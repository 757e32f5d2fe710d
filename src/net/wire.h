/**
 * @file
 * Message vocabulary of the distributed leaf-execution protocol, riding
 * the CRC framing of net/frame.h. The protocol is deliberately minimal —
 * a worker PLANS NOTHING:
 *
 *   coordinator                              worker
 *   ----------------------------------------------------------------
 *                                         <- WorkerHello {version,
 *                                            threads} on connect: the
 *                                            assignment weight is known
 *                                            BEFORE the first wave, and
 *                                            a version skew fails at
 *                                            connect, not mid-solve
 *   OpenSession {model, device, config,
 *                seed, shots, fingerprints} ->
 *                                            rebuilds the device from
 *                                            its catalog name, replans
 *                                            build_solve_tree from
 *                                            (model, config, seed),
 *                                            verifies all four
 *                                            fingerprints match
 *                                         <- SessionReady {threads}
 *   ExecBatch [(session, leaf_id), ...]   ->
 *                                         <- LeafCounts | LeafFailed
 *                                            (one per entry, any order)
 *   CloseSession                          ->
 *
 * The work descriptor is compact because the plan is reproducible: a leaf
 * is just (session, leaf_id) — its sub-model, RNG stream seed and template
 * key all come out of the worker's own replanned tree, and the
 * fingerprint check proves that tree is byte-equivalent to the
 * coordinator's. The reply is the raw count histogram plus the template
 * tier the WaveHooks need, so a remote fold is indistinguishable from a
 * local one.
 *
 * Only result-relevant config fields travel (the config_fingerprint
 * set); execution-local knobs like thread count stay per-process.
 */
#ifndef FQ_NET_WIRE_H
#define FQ_NET_WIRE_H

#include <cstdint>
#include <string>
#include <vector>

#include "engine/template_cache.h"
#include "frozenqubits/driver.h"
#include "ising/ising_model.h"
#include "net/frame.h"
#include "sim/counts.h"

namespace fq::net {

/** Bumped on any wire-format change, and on any change to what a worker
 *  computes for the same frames (version 6: the doubling table build,
 *  whose tables for non-exact models differ in the last bits); a worker
 *  refuses other versions. */
constexpr std::uint32_t kProtocolVersion = 6;

enum MessageType : std::uint32_t {
    kMsgOpenSession = 1,
    kMsgSessionReady = 2,
    kMsgExecBatch = 3,
    kMsgLeafCounts = 4,
    kMsgLeafFailed = 5,
    kMsgCloseSession = 6,
    kMsgError = 7, ///< session-level protocol failure (fingerprint, decode)
    kMsgWorkerHello = 8, ///< worker -> coordinator greeting on connect
};

/** First frame on every connection, worker -> coordinator: advertises
 *  the protocol version and the worker's thread capacity, so the pool
 *  weights its cost-based assignment correctly from the very first wave
 *  (SessionReady used to carry threads too late for wave one). */
struct WorkerHello
{
    std::uint32_t protocol_version = kProtocolVersion;
    std::int32_t threads = 1;
};

struct OpenSession
{
    std::uint64_t session_id = 0;
    ising::IsingModel model;
    std::string device_name;
    frozenqubits::DriverConfig config; ///< result-relevant fields only
    std::uint64_t seed = 0;            ///< plan seed (Rng(seed) replan)
    std::int32_t shots = 0;
    std::uint64_t model_hash = 0;  ///< engine::model_fingerprint
    std::uint64_t config_hash = 0; ///< engine::config_fingerprint
    std::uint64_t plan_hash = 0;   ///< engine::plan_fingerprint
    /** engine::device_fingerprint(dev, 0): topology and calibration, so a
     *  device the worker's catalog rebuilds differently is rejected. */
    std::uint64_t device_hash = 0;
};

struct SessionReady
{
    std::uint64_t session_id = 0;
    std::int32_t threads = 1; ///< worker parallelism (assignment weight)
};

struct ExecBatch
{
    std::uint64_t session_id = 0;
    std::vector<std::int32_t> leaf_ids;
};

struct LeafCounts
{
    std::uint64_t session_id = 0;
    std::int32_t leaf_id = 0;
    /** One byte on the wire; any value but Compile / Bind is rejected. */
    engine::TemplateTier tier = engine::TemplateTier::Compile;
    std::int32_t width = 0;
    sim::HistogramEntries histogram;
};

struct LeafFailed
{
    std::uint64_t session_id = 0;
    std::int32_t leaf_id = 0;
    std::string message;
};

struct CloseSession
{
    std::uint64_t session_id = 0;
};

struct WireError
{
    std::uint64_t session_id = 0;
    std::string message;
};

// Encoders produce a frame payload; decoders throw NetError on trailing
// garbage, truncation, a list count the payload cannot hold, a version
// mismatch or an out-of-range tier byte.
std::vector<std::uint8_t> encode_open_session(const OpenSession& msg);
OpenSession decode_open_session(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_session_ready(const SessionReady& msg);
SessionReady decode_session_ready(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_exec_batch(const ExecBatch& msg);
ExecBatch decode_exec_batch(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_leaf_counts(const LeafCounts& msg);
LeafCounts decode_leaf_counts(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_leaf_failed(const LeafFailed& msg);
LeafFailed decode_leaf_failed(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_close_session(const CloseSession& msg);
CloseSession decode_close_session(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_wire_error(const WireError& msg);
WireError decode_wire_error(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_worker_hello(const WorkerHello& msg);
WorkerHello decode_worker_hello(const std::vector<std::uint8_t>& payload);

} // namespace fq::net

#endif // FQ_NET_WIRE_H
