/**
 * @file
 * Durable solves: a versioned, self-validating binary snapshot of an
 * in-flight wave-loop request, capturable at any checkpoint boundary and
 * restorable into a freshly planned WaveRequest — in the same process,
 * after a crash, or on another shard (request migration).
 *
 * What a snapshot holds — and, as importantly, what it does not:
 *
 *   identity   — fingerprints of the model (graph hash), the
 *                determinism-relevant DriverConfig fields, the replanned
 *                SolveTree (per-leaf RNG streams / widths), the device
 *                name, the plan seed and the shot count. The tree,
 *                per-leaf scores, presolve and compiled templates are NOT
 *                serialized: build_solve_tree and make_schedule are pure
 *                functions of (model, dev, config, seed), so the resume
 *                replans them and the fingerprints prove it got the same
 *                plan.
 *   progress   — the schedule cursor (folded leaves), the pending re-rank
 *                boundary, the epoch count, and the schedule's mutable
 *                state (executed / beyond_budget / pruned partition plus
 *                re-rank and deadline telemetry) as rewritten by re-ranks
 *                and trims up to the boundary.
 *   outcomes   — the raw sampled histogram of every folded leaf. Decoding
 *                is deterministic, so restore re-folds them through the
 *                StreamingReducer and rebuilds outcomes, incumbent and
 *                anytime trace bit for bit.
 *   incumbent  — the epoch-snapshot incumbent at the boundary, stored as
 *                a self-validation record: after re-folding, the restored
 *                incumbent must reproduce it exactly or the restore throws
 *                CheckpointError (corruption that CRC framing cannot see,
 *                e.g. a tampered-but-reframed payload).
 *
 * Framing: magic + version + payload length + CRC32(payload). Truncation,
 * bit flips, wrong magic and unknown versions all throw CheckpointError.
 *
 * Format history: version 2 adds a per-folded-record node-kind frame tag
 * (the reduction arm the leaf executed under, from the kind-metadata
 * table in engine/expander.h) so restores cross-check the replanned
 * tree's vocabulary, not just its seeds. Version 1 snapshots — written
 * before the tag existed — still decode and restore bit-identically;
 * their records carry kNoKindTag and skip the arm check.
 *
 * Determinism contract: a solve checkpointed at an arbitrary boundary,
 * killed, and resumed in a new process produces bit-identical counts,
 * incumbent and anytime trace to an uninterrupted run, at any thread
 * count, solo or through a SolveService (tests/test_checkpoint.cc).
 */
#ifndef FQ_ENGINE_CHECKPOINT_H
#define FQ_ENGINE_CHECKPOINT_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "engine/expander.h"
#include "engine/wave_loop.h"

namespace fq::engine {

/** Typed failure of the durability surface: corrupt / truncated / wrong-
 *  version snapshot bytes, or a snapshot that does not match the request
 *  it is being restored into (model, config, plan, device, shots). */
class CheckpointError : public fq::Error
{
  public:
    explicit CheckpointError(const std::string& what) : fq::Error(what) {}
};

/** Current on-disk format version (the only one encode writes).
 *  Decode also accepts version 1 (pre-arm-tag snapshots). */
constexpr std::uint32_t kCheckpointFormatVersion = 2;

/** Oldest format version decode still reads. */
constexpr std::uint32_t kMinCheckpointFormatVersion = 1;

/** In-memory form of one snapshot (see file header for field semantics). */
struct SolveCheckpoint
{
    // --------------------------------------------------------- identity --
    std::uint64_t model_hash = 0;  ///< model_fingerprint of the instance
    std::uint64_t config_hash = 0; ///< config_fingerprint (result-relevant)
    std::uint64_t plan_hash = 0;   ///< plan_fingerprint of the solve tree
    std::string device_name;
    std::uint64_t seed = 0; ///< plan seed (WaveRequest::seed)
    int shots = 0;

    // --------------------------------------------------------- progress --
    std::uint64_t cursor = 0;      ///< folded scheduled leaves
    std::uint64_t next_rerank = 0; ///< pending re-rank boundary (0 = off)
    int epochs = 0;

    // ----------------------------------------- schedule mutable state --
    std::vector<int> executed;
    std::vector<int> beyond_budget;
    std::vector<int> pruned;
    int reranks = 0;
    int rerank_pruned = 0;
    int rerank_promoted = 0;
    int rerank_demoted = 0;
    int deadline_trimmed = 0;

    // --------------------------------------------------------- outcomes --
    struct FoldedLeaf
    {
        int leaf_id = 0;
        int width = 0;
        /** (state, count) pairs in ascending state order — sim::Counts'
         *  own deterministic map order, so round-trips are exact. */
        std::vector<std::pair<std::uint64_t, std::uint64_t>> histogram;
        /** NodeKindInfo::frame_tag of the reduction arm (the leaf's
         *  parent node kind) — version 2 wire field. kNoKindTag for
         *  records decoded from a version-1 snapshot; restore skips the
         *  arm cross-check for those. */
        std::uint8_t arm_tag = kNoKindTag;
    };
    /** One record per folded scheduled leaf, in rank order (== the first
     *  `cursor` entries of `executed`). */
    std::vector<FoldedLeaf> folded;

    // ----------------------------------- incumbent (self-validation) --
    bool incumbent_valid = false;
    double incumbent_cost = 0.0;
    int incumbent_leaf = -1;
    ising::SpinVector incumbent_assignment;
};

/** Sink for a durable ExecutionEngine solve: receives the snapshot at
 *  each checkpoint boundary; return false to suspend (wave_loop.h
 *  CheckpointHook semantics — the pre-suspension snapshot resumes the
 *  full solve elsewhere). */
using CheckpointSink = std::function<bool(const SolveCheckpoint&)>;

// ------------------------------------------------------ fingerprints --

/** Order-stable 64-bit fingerprint of an Ising instance (spin count,
 *  linear/quadratic coefficient bits, offset). */
std::uint64_t model_fingerprint(const ising::IsingModel& model);

/**
 * Fingerprint of the DriverConfig fields that determine a solve's RESULT.
 * Deliberately excludes threads, wave_share and checkpoint_interval —
 * none of them may change what a solve produces (the determinism
 * contract), so a snapshot written at --threads 8 restores fine at
 * --threads 1, with different checkpoint cadence, on a differently loaded
 * shard.
 */
std::uint64_t config_fingerprint(const frozenqubits::DriverConfig& config);

/** Fingerprint of a planned SolveTree (leaf count, per-leaf RNG streams,
 *  widths, repair flags) — proof that a resume's replan reproduced the
 *  plan the snapshot's cursor indexes into. */
std::uint64_t plan_fingerprint(const SolveTree& tree);

// --------------------------------------------------- capture / restore --

/**
 * Capture a snapshot of @p request at a wave barrier (its dispatched
 * leaves must all have folded — the post_barrier_checkpoint call site
 * guarantees it). Throws fq::Error for a finished request: a completed
 * solve has nothing to resume, so snapshotting it is caller confusion,
 * not a degenerate checkpoint.
 */
SolveCheckpoint capture_checkpoint(const WaveRequest& request);

/**
 * Restore @p snapshot into @p request, which must be freshly planned
 * (cursor 0, reducer empty) from the SAME (model, dev, config, seed,
 * shots) — fingerprint-checked, CheckpointError on any mismatch. The
 * snapshot's schedule partition is validated (every leaf id exactly once
 * across executed/beyond_budget/pruned; FQ_REQUIRE that the cursor never
 * exceeds the scheduled-leaf count), the folded histograms are re-folded
 * through the reducer, and the rebuilt incumbent must reproduce the
 * recorded one bit for bit (CheckpointError otherwise — the snapshot was
 * corrupted in a way the CRC framing could not see). On success the
 * request continues mid-schedule as if it had never stopped.
 */
void restore_checkpoint(const SolveCheckpoint& snapshot,
                        WaveRequest& request);

// --------------------------------------------------------- wire format --

/** Serialize as format kCheckpointFormatVersion with CRC-checked framing
 *  (magic, version, length, CRC32). */
std::vector<std::uint8_t> encode_checkpoint(const SolveCheckpoint& ck);

/** Parse framed bytes; CheckpointError on truncation, bad magic, unknown
 *  version, unknown node-kind tag, length mismatch or CRC failure. */
SolveCheckpoint decode_checkpoint(const std::uint8_t* data,
                                  std::size_t size);

/** Atomic file write (temp + rename); CheckpointError on I/O failure. */
void write_checkpoint_file(const std::string& path,
                           const SolveCheckpoint& ck);

/** Read + decode one snapshot file; CheckpointError on I/O failure or any
 *  decode failure. */
SolveCheckpoint read_checkpoint_file(const std::string& path);

} // namespace fq::engine

#endif // FQ_ENGINE_CHECKPOINT_H
