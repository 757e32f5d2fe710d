#include "net/wire.h"

#include <cstring>

namespace fq::net {

namespace {

// Little-endian byte packing, the same layout discipline as the
// checkpoint codec (engine/checkpoint.cc) but with NetError as the typed
// failure — a truncated or over-long payload is a wire defect, not a
// checkpoint defect.

void
put_u8(std::vector<std::uint8_t>& out, std::uint8_t v)
{
    out.push_back(v);
}

void
put_u32(std::vector<std::uint8_t>& out, std::uint32_t v)
{
    for (int k = 0; k < 4; ++k)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
}

void
put_u64(std::vector<std::uint8_t>& out, std::uint64_t v)
{
    for (int k = 0; k < 8; ++k)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
}

void
put_i32(std::vector<std::uint8_t>& out, std::int32_t v)
{
    put_u32(out, static_cast<std::uint32_t>(v));
}

void
put_i64(std::vector<std::uint8_t>& out, std::int64_t v)
{
    put_u64(out, static_cast<std::uint64_t>(v));
}

void
put_double(std::vector<std::uint8_t>& out, double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    put_u64(out, u);
}

void
put_string(std::vector<std::uint8_t>& out, const std::string& s)
{
    put_u64(out, s.size());
    out.insert(out.end(), s.begin(), s.end());
}

class Reader
{
  public:
    explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes)
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return bytes_[pos_++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int k = 0; k < 4; ++k)
            v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * k);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int k = 0; k < 8; ++k)
            v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * k);
        return v;
    }

    std::int32_t
    i32()
    {
        return static_cast<std::int32_t>(u32());
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    double
    dbl()
    {
        const std::uint64_t u = u64();
        double v = 0.0;
        std::memcpy(&v, &u, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /** Element count for a list of @p elem_size-byte records. */
    std::size_t
    count(std::size_t elem_size)
    {
        const std::uint64_t n = u64();
        if (elem_size != 0 && n > (bytes_.size() - pos_) / elem_size)
            throw NetError("net: message list length exceeds payload");
        return static_cast<std::size_t>(n);
    }

    void
    finish() const
    {
        if (pos_ != bytes_.size())
            throw NetError("net: trailing bytes after message payload");
    }

  private:
    void
    need(std::uint64_t n) const
    {
        if (n > bytes_.size() - pos_)
            throw NetError("net: truncated message payload");
    }

    const std::vector<std::uint8_t>& bytes_;
    std::size_t pos_ = 0;
};

// ------------------------------------------------ model/config codecs --

void
put_model(std::vector<std::uint8_t>& out, const ising::IsingModel& model)
{
    put_i32(out, model.num_spins());
    for (const double h : model.linear_terms())
        put_double(out, h);
    const auto& quad = model.quadratic_terms();
    put_u64(out, quad.size());
    for (const auto& term : quad) {
        put_i32(out, term.i);
        put_i32(out, term.j);
        put_double(out, term.coefficient);
    }
    put_double(out, model.offset());
}

ising::IsingModel
get_model(Reader& in)
{
    const std::int32_t n = in.i32();
    if (n < 0 || n > 1 << 20)
        throw NetError("net: implausible model spin count");
    ising::IsingModel model(n);
    for (std::int32_t i = 0; i < n; ++i)
        model.set_linear(i, in.dbl());
    const std::size_t terms = in.count(4 + 4 + 8);
    for (std::size_t k = 0; k < terms; ++k) {
        const std::int32_t i = in.i32();
        const std::int32_t j = in.i32();
        model.add_quadratic(i, j, in.dbl());
    }
    model.set_offset(in.dbl());
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
put_config(std::vector<std::uint8_t>& out,
           const frozenqubits::DriverConfig& config)
{
    put_i32(out, config.num_freeze);
    put_u32(out, static_cast<std::uint32_t>(config.policy));
    put_u8(out, config.symmetry_pruning ? 1 : 0);
    put_u32(out, static_cast<std::uint32_t>(config.compile.layout));
    put_i32(out, config.compile.router.lookahead);
    put_double(out, config.compile.router.lookahead_weight);
    put_double(out, config.compile.router.decay);
    put_u64(out, config.compile.router.seed);
    put_u8(out, config.compile.run_optimization_passes ? 1 : 0);
    put_u8(out, config.compile.decompose_swaps ? 1 : 0);
    put_i32(out, config.p1_grid_resolution);
    put_u64(out, config.seed);
    put_i32(out, config.max_depth);
    put_i64(out, config.max_circuits);
    put_i32(out, config.partition_width);
    put_u8(out, config.prune_dominated ? 1 : 0);
    put_i64(out, config.rerank_interval);
    put_i64(out, config.deadline_cost_units);
    put_double(out, config.sparsify_keep);
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
    config.compile.router.lookahead_weight = in.dbl();
    config.compile.router.decay = in.dbl();
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
    config.sparsify_keep = in.dbl();
    // Workers execute leaves only: no checkpointing, no nested remoting.
    config.threads = 1;
    config.checkpoint_interval = 0;
    return config;
}

} // namespace

std::vector<std::uint8_t>
encode_open_session(const OpenSession& msg)
{
    std::vector<std::uint8_t> out;
    put_u32(out, kProtocolVersion);
    put_u64(out, msg.session_id);
    put_model(out, msg.model);
    put_string(out, msg.device_name);
    put_config(out, msg.config);
    put_u64(out, msg.seed);
    put_i32(out, msg.shots);
    put_u64(out, msg.model_hash);
    put_u64(out, msg.config_hash);
    put_u64(out, msg.plan_hash);
    put_u64(out, msg.device_hash);
    return out;
}

OpenSession
decode_open_session(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload);
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
    std::vector<std::uint8_t> out;
    put_u64(out, msg.session_id);
    put_i32(out, msg.threads);
    return out;
}

SessionReady
decode_session_ready(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload);
    SessionReady msg;
    msg.session_id = in.u64();
    msg.threads = in.i32();
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_exec_batch(const ExecBatch& msg)
{
    std::vector<std::uint8_t> out;
    put_u64(out, msg.session_id);
    put_u64(out, msg.leaf_ids.size());
    for (const std::int32_t id : msg.leaf_ids)
        put_i32(out, id);
    return out;
}

ExecBatch
decode_exec_batch(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload);
    ExecBatch msg;
    msg.session_id = in.u64();
    const std::size_t n = in.count(4);
    msg.leaf_ids.reserve(n);
    for (std::size_t k = 0; k < n; ++k)
        msg.leaf_ids.push_back(in.i32());
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_leaf_counts(const LeafCounts& msg)
{
    std::vector<std::uint8_t> out;
    put_u64(out, msg.session_id);
    put_i32(out, msg.leaf_id);
    put_u8(out, static_cast<std::uint8_t>(msg.tier));
    put_i32(out, msg.width);
    put_u64(out, msg.histogram.size());
    for (const auto& [state, count] : msg.histogram) {
        put_u64(out, state);
        put_u64(out, count);
    }
    return out;
}

LeafCounts
decode_leaf_counts(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload);
    LeafCounts msg;
    msg.session_id = in.u64();
    msg.leaf_id = in.i32();
    const std::uint8_t tier = in.u8();
    if (tier != static_cast<std::uint8_t>(engine::TemplateTier::Compile) &&
        tier != static_cast<std::uint8_t>(engine::TemplateTier::Bind))
        throw NetError("net: leaf counts carry unknown template tier " +
                       std::to_string(tier));
    msg.tier = static_cast<engine::TemplateTier>(tier);
    msg.width = in.i32();
    const std::size_t n = in.count(8 + 8);
    msg.histogram.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t state = in.u64();
        const std::uint64_t count = in.u64();
        msg.histogram.emplace_back(state, count);
    }
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_leaf_failed(const LeafFailed& msg)
{
    std::vector<std::uint8_t> out;
    put_u64(out, msg.session_id);
    put_i32(out, msg.leaf_id);
    put_string(out, msg.message);
    return out;
}

LeafFailed
decode_leaf_failed(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload);
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
    std::vector<std::uint8_t> out;
    put_u64(out, msg.session_id);
    return out;
}

CloseSession
decode_close_session(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload);
    CloseSession msg;
    msg.session_id = in.u64();
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_wire_error(const WireError& msg)
{
    std::vector<std::uint8_t> out;
    put_u64(out, msg.session_id);
    put_string(out, msg.message);
    return out;
}

WireError
decode_wire_error(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload);
    WireError msg;
    msg.session_id = in.u64();
    msg.message = in.str();
    in.finish();
    return msg;
}

std::vector<std::uint8_t>
encode_worker_hello(const WorkerHello& msg)
{
    std::vector<std::uint8_t> out;
    put_u32(out, msg.protocol_version);
    put_i32(out, msg.threads);
    return out;
}

WorkerHello
decode_worker_hello(const std::vector<std::uint8_t>& payload)
{
    Reader in(payload);
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
