#include "net/wire.h"

#include <cmath>

#include "common/bytes.h"

namespace fq::net {

namespace {

using Writer = common::ByteWriter<std::uint64_t>;
using Reader = common::ByteReader<NetError, std::uint64_t>;

constexpr const char* kWhat = "net: message";

// ------------------------------------------------ model/config codecs --

void
put_model(Writer& out, const ising::IsingModel& model)
{
    out.i32(model.num_spins());
    for (const double h : model.linear_terms())
        out.f64(h);
    const auto& quad = model.quadratic_terms();
    out.len(quad.size());
    for (const auto& term : quad) {
        out.i32(term.i);
        out.i32(term.j);
        out.f64(term.coefficient);
    }
    out.f64(model.offset());
}

/** A model coefficient from the peer: NaN and +-inf are refused here,
 *  before any table build sees them. */
double
get_coefficient(Reader& in)
{
    const double v = in.f64();
    if (!std::isfinite(v))
        throw NetError("net: model carries a non-finite coefficient");
    return v;
}

ising::IsingModel
get_model(Reader& in)
{
    const std::int32_t n = in.i32();
    if (n < 0 || n > 1 << 20)
        throw NetError("net: implausible model spin count");
    ising::IsingModel model(n);
    for (std::int32_t i = 0; i < n; ++i)
        model.set_linear(i, get_coefficient(in));
    const std::size_t terms = in.count(4 + 4 + 8);
    for (std::size_t k = 0; k < terms; ++k) {
        const std::int32_t i = in.i32();
        const std::int32_t j = in.i32();
        model.add_quadratic(i, j, get_coefficient(in));
    }
    model.set_offset(get_coefficient(in));
    return model;
}

/** A u32-coded enum from the peer, checked against its last value. */
template <typename Enum>
Enum
get_enum(Reader& in, Enum last, const char* what)
{
    const std::uint32_t raw = in.u32();
    if (raw > static_cast<std::uint32_t>(last))
        throw NetError(std::string("net: config carries unknown ") + what +
                       " " + std::to_string(raw));
    return static_cast<Enum>(raw);
}

/**
 * Result-relevant config fields: exactly the config_fingerprint set
 * (engine/checkpoint.cc). threads / wave_share / checkpoint_interval /
 * allow_remote stay process-local, like the fingerprint excludes them.
 */
void
put_config(Writer& out,
           const frozenqubits::DriverConfig& config)
{
    out.i32(config.num_freeze);
    out.u32(static_cast<std::uint32_t>(config.policy));
    out.u8(config.symmetry_pruning ? 1 : 0);
    out.u32(static_cast<std::uint32_t>(config.compile.layout));
    out.i32(config.compile.router.lookahead);
    out.f64(config.compile.router.lookahead_weight);
    out.f64(config.compile.router.decay);
    out.u64(config.compile.router.seed);
    out.u8(config.compile.run_optimization_passes ? 1 : 0);
    out.u8(config.compile.decompose_swaps ? 1 : 0);
    out.i32(config.p1_grid_resolution);
    out.u64(config.seed);
    out.i32(config.max_depth);
    out.i64(config.max_circuits);
    out.i32(config.partition_width);
    out.u8(config.prune_dominated ? 1 : 0);
    out.i64(config.rerank_interval);
    out.i64(config.deadline_cost_units);
    out.f64(config.sparsify_keep);
}

frozenqubits::DriverConfig
get_config(Reader& in)
{
    frozenqubits::DriverConfig config;
    config.num_freeze = in.i32();
    config.policy = get_enum<frozenqubits::HotspotPolicy>(
        in, frozenqubits::HotspotPolicy::Random, "hotspot policy");
    config.symmetry_pruning = in.u8() != 0;
    config.compile.layout = get_enum<transpiler::LayoutStrategy>(
        in, transpiler::LayoutStrategy::NoiseAdaptive, "layout strategy");
    config.compile.router.lookahead = in.i32();
    config.compile.router.lookahead_weight = in.f64();
    config.compile.router.decay = in.f64();
    config.compile.router.seed = in.u64();
    config.compile.run_optimization_passes = in.u8() != 0;
    config.compile.decompose_swaps = in.u8() != 0;
    config.p1_grid_resolution = in.i32();
    config.seed = in.u64();
    config.max_depth = in.i32();
    config.max_circuits = in.i64();
    config.partition_width = in.i32();
    config.prune_dominated = in.u8() != 0;
    config.rerank_interval = in.i64();
    config.deadline_cost_units = in.i64();
    config.sparsify_keep = in.f64();
    // Workers execute leaves only: no checkpointing, no nested remoting.
    config.threads = 1;
    config.checkpoint_interval = 0;
    return config;
}

} // namespace

std::vector<std::uint8_t>
encode_open_session(const OpenSession& msg)
{
    Writer out;
    out.u32(kProtocolVersion);
    out.u64(msg.session_id);
    put_model(out, msg.model);
    out.str(msg.device_name);
    put_config(out, msg.config);
    out.u64(msg.seed);
    out.i32(msg.shots);
    out.u64(msg.model_hash);
    out.u64(msg.config_hash);
    out.u64(msg.plan_hash);
    out.u64(msg.device_hash);
    return out.take();
}

OpenSession
decode_open_session(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload.data(), payload.size(), kWhat);
    const std::uint32_t version = in.u32();
    if (version != kProtocolVersion)
        throw NetError("net: protocol version mismatch (got " +
                       std::to_string(version) + ", want " +
                       std::to_string(kProtocolVersion) + ")");
    OpenSession msg;
    msg.session_id = in.u64();
    msg.model = get_model(in);
    msg.device_name = in.str();
    msg.config = get_config(in);
    msg.seed = in.u64();
    msg.shots = in.i32();
    msg.model_hash = in.u64();
    msg.config_hash = in.u64();
    msg.plan_hash = in.u64();
    msg.device_hash = in.u64();
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_session_ready(const SessionReady& msg)
{
    Writer out;
    out.u64(msg.session_id);
    out.i32(msg.threads);
    return out.take();
}

SessionReady
decode_session_ready(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload.data(), payload.size(), kWhat);
    SessionReady msg;
    msg.session_id = in.u64();
    msg.threads = in.i32();
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_exec_batch(const ExecBatch& msg)
{
    Writer out;
    out.u64(msg.session_id);
    out.i32s(msg.leaf_ids);
    return out.take();
}

ExecBatch
decode_exec_batch(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload.data(), payload.size(), kWhat);
    ExecBatch msg;
    msg.session_id = in.u64();
    msg.leaf_ids = in.i32s();
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_leaf_counts(const LeafCounts& msg)
{
    Writer out;
    out.u64(msg.session_id);
    out.i32(msg.leaf_id);
    out.i32(msg.width);
    out.u64_pairs(msg.histogram);
    return out.take();
}

LeafCounts
decode_leaf_counts(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload.data(), payload.size(), kWhat);
    LeafCounts msg;
    msg.session_id = in.u64();
    msg.leaf_id = in.i32();
    msg.width = in.i32();
    msg.histogram = in.u64_pairs();
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_leaf_failed(const LeafFailed& msg)
{
    Writer out;
    out.u64(msg.session_id);
    out.i32(msg.leaf_id);
    out.str(msg.message);
    return out.take();
}

LeafFailed
decode_leaf_failed(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload.data(), payload.size(), kWhat);
    LeafFailed msg;
    msg.session_id = in.u64();
    msg.leaf_id = in.i32();
    msg.message = in.str();
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_close_session(const CloseSession& msg)
{
    Writer out;
    out.u64(msg.session_id);
    return out.take();
}

CloseSession
decode_close_session(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload.data(), payload.size(), kWhat);
    CloseSession msg;
    msg.session_id = in.u64();
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_wire_error(const WireError& msg)
{
    Writer out;
    out.u64(msg.session_id);
    out.str(msg.message);
    return out.take();
}

WireError
decode_wire_error(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload.data(), payload.size(), kWhat);
    WireError msg;
    msg.session_id = in.u64();
    msg.message = in.str();
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_worker_hello(const WorkerHello& msg)
{
    Writer out;
    out.u32(msg.protocol_version);
    out.i32(msg.threads);
    return out.take();
}

WorkerHello
decode_worker_hello(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload.data(), payload.size(), kWhat);
    WorkerHello msg;
    msg.protocol_version = in.u32();
    if (msg.protocol_version != kProtocolVersion)
        throw NetError("net: worker speaks protocol version " +
                       std::to_string(msg.protocol_version) + ", want " +
                       std::to_string(kProtocolVersion));
    msg.threads = in.i32();
    in.finish();
    return msg;
}

} // namespace fq::net
