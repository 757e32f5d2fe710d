#include "engine/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/crc32.h"
#include "common/error.h"
#include "common/rng.h"
#include "frozenqubits/driver.h"
#include "sim/counts.h"

namespace fq::engine {

namespace {

// ------------------------------------------------------------- framing --

/** "FQCK" little-endian. */
constexpr std::uint32_t kMagic = 0x4B434651u;

/** Bit-exact 64-bit view of a double (NaN payloads and -0.0 included). */
std::uint64_t
double_bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

double
bits_double(std::uint64_t u)
{
    double v = 0.0;
    std::memcpy(&v, &u, sizeof(v));
    return v;
}

using common::crc32;

/** Little-endian fixed-width append-only buffer. */
class ByteWriter
{
  public:
    void
    put_u8(std::uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    put_u32(std::uint32_t v)
    {
        for (int k = 0; k < 4; ++k)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
    }

    void
    put_u64(std::uint64_t v)
    {
        for (int k = 0; k < 8; ++k)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
    }

    void
    put_i32(std::int32_t v)
    {
        put_u32(static_cast<std::uint32_t>(v));
    }

    void
    put_double(double v)
    {
        put_u64(double_bits(v));
    }

    void
    put_string(const std::string& s)
    {
        put_u32(static_cast<std::uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    void
    put_int_vector(const std::vector<int>& v)
    {
        put_u32(static_cast<std::uint32_t>(v.size()));
        for (int x : v)
            put_i32(x);
    }

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian reader; every overrun is CheckpointError
 *  (a truncated or length-corrupted payload, never UB). */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint8_t
    get_u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t
    get_u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int k = 0; k < 4; ++k)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * k);
        return v;
    }

    std::uint64_t
    get_u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int k = 0; k < 8; ++k)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * k);
        return v;
    }

    std::int32_t
    get_i32()
    {
        return static_cast<std::int32_t>(get_u32());
    }

    double
    get_double()
    {
        return bits_double(get_u64());
    }

    std::string
    get_string()
    {
        const std::uint32_t n = get_u32();
        need(n);
        std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    std::vector<int>
    get_int_vector()
    {
        const std::uint32_t n = get_u32();
        // Each entry costs 4 bytes; pre-check so a corrupt length cannot
        // drive a near-2^32 reserve before the first get_i32 would throw.
        need(static_cast<std::size_t>(n) * 4);
        std::vector<int> v;
        v.reserve(n);
        for (std::uint32_t k = 0; k < n; ++k)
            v.push_back(get_i32());
        return v;
    }

    std::size_t remaining() const { return size_ - pos_; }

  private:
    void
    need(std::size_t n)
    {
        if (size_ - pos_ < n)
            throw CheckpointError(
                "checkpoint payload truncated: need " + std::to_string(n) +
                " more bytes at offset " + std::to_string(pos_) + " of " +
                std::to_string(size_));
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// ------------------------------------------------- fingerprint helpers --

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    return combine_seeds(h, v);
}

std::uint64_t
mix_double(std::uint64_t h, double v)
{
    return mix(h, double_bits(v));
}

} // namespace

// --------------------------------------------------------- fingerprints --

std::uint64_t
model_fingerprint(const ising::IsingModel& model)
{
    std::uint64_t h = hash_seed("fq-checkpoint-model");
    h = mix(h, static_cast<std::uint64_t>(model.num_spins()));
    for (double c : model.linear_terms())
        h = mix_double(h, c);
    h = mix(h, static_cast<std::uint64_t>(model.num_quadratic_terms()));
    for (const auto& term : model.quadratic_terms()) {
        h = mix(h, static_cast<std::uint64_t>(term.i));
        h = mix(h, static_cast<std::uint64_t>(term.j));
        h = mix_double(h, term.coefficient);
    }
    h = mix_double(h, model.offset());
    return h;
}

std::uint64_t
config_fingerprint(const frozenqubits::DriverConfig& config)
{
    // Every field that can change what a solve PRODUCES, and nothing that
    // only changes how fast or how durably it runs (threads, wave_share,
    // checkpoint_interval) — the exclusion the header documents.
    std::uint64_t h = hash_seed("fq-checkpoint-config");
    h = mix(h, static_cast<std::uint64_t>(config.num_freeze));
    h = mix(h, static_cast<std::uint64_t>(config.policy));
    h = mix(h, config.symmetry_pruning ? 1 : 0);
    // Template editing and fused simulation are always on, and the kernel
    // backend is always the width rule (the old Auto = 0); the constants
    // keep every snapshot written while they were config fields restoring.
    h = mix(h, 1);
    h = mix(h, 1);
    h = mix(h, 0);
    h = mix(h, static_cast<std::uint64_t>(config.compile.layout));
    h = mix(h, static_cast<std::uint64_t>(config.compile.router.lookahead));
    h = mix_double(h, config.compile.router.lookahead_weight);
    h = mix_double(h, config.compile.router.decay);
    h = mix(h, config.compile.router.seed);
    h = mix(h, config.compile.run_optimization_passes ? 1 : 0);
    h = mix(h, config.compile.decompose_swaps ? 1 : 0);
    h = mix(h, static_cast<std::uint64_t>(config.p1_grid_resolution));
    h = mix(h, config.seed);
    h = mix(h, static_cast<std::uint64_t>(config.max_depth));
    h = mix(h, static_cast<std::uint64_t>(config.max_circuits));
    h = mix(h, static_cast<std::uint64_t>(config.partition_width));
    h = mix(h, config.prune_dominated ? 1 : 0);
    h = mix(h, static_cast<std::uint64_t>(config.rerank_interval));
    h = mix(h, static_cast<std::uint64_t>(config.deadline_cost_units));
    // Mixed only when active so every pre-sparsify config hashes exactly
    // as it did before the field existed — v1 snapshots keep restoring.
    if (config.sparsify_keep != 0.0)
        h = mix_double(h, config.sparsify_keep);
    return h;
}

std::uint64_t
plan_fingerprint(const SolveTree& tree)
{
    std::uint64_t h = hash_seed("fq-checkpoint-plan");
    h = mix(h, static_cast<std::uint64_t>(tree.leaves.size()));
    h = mix(h, static_cast<std::uint64_t>(tree.max_depth));
    for (const auto& leaf : tree.leaves) {
        h = mix(h, leaf.rng_seed);
        h = mix(h, static_cast<std::uint64_t>(tree.leaf_width(leaf.leaf_id)));
        h = mix(h, static_cast<std::uint64_t>(leaf.local_solve));
        h = mix(h, leaf.needs_repair ? 1 : 0);
        h = mix(h, leaf.fuse ? 1 : 0);
        h = mix(h, static_cast<std::uint64_t>(leaf.backend));
        h = mix(h, static_cast<std::uint64_t>(leaf.build.num_layers));
        h = mix(h, leaf.tpl_compatible ? 1 : 0);
        // Only when a Sparsify proxy drives the optimizer loop, so trees
        // the old vocabulary could express keep their old fingerprints.
        if (leaf.proxy) {
            h = mix(h, hash_seed("fq-plan-proxy"));
            h = mix(h, static_cast<std::uint64_t>(
                           leaf.proxy->num_quadratic_terms()));
        }
    }
    return h;
}

// --------------------------------------------------- capture / restore --

SolveCheckpoint
capture_checkpoint(const WaveRequest& request)
{
    FQ_REQUIRE(request.model != nullptr && request.tree != nullptr &&
                   request.schedule != nullptr &&
                   request.reducer != nullptr && request.dev != nullptr &&
                   request.config != nullptr,
               "checkpoint capture over an unwired request");
    FQ_REQUIRE(!request.done(),
               "cannot checkpoint a finished request — a completed solve "
               "has nothing to resume");

    SolveCheckpoint ck;
    ck.model_hash = model_fingerprint(*request.model);
    ck.config_hash = config_fingerprint(*request.config);
    ck.plan_hash = plan_fingerprint(*request.tree);
    ck.device_name = request.dev->name;
    ck.seed = request.seed;
    ck.shots = request.shots;

    ck.cursor = request.dispatched;
    ck.next_rerank = request.next_rerank;
    ck.epochs = request.epochs;

    const auto& schedule = *request.schedule;
    ck.executed = schedule.executed;
    ck.beyond_budget = schedule.beyond_budget;
    ck.pruned = schedule.pruned;
    ck.reranks = schedule.reranks;
    ck.rerank_pruned = schedule.rerank_pruned;
    ck.rerank_promoted = schedule.rerank_promoted;
    ck.rerank_demoted = schedule.rerank_demoted;
    ck.deadline_trimmed = schedule.deadline_trimmed;

    for (auto& [leaf_id, counts] :
         request.reducer->export_folded(request.dispatched)) {
        SolveCheckpoint::FoldedLeaf rec;
        rec.leaf_id = leaf_id;
        rec.width = request.tree->leaf_width(leaf_id);
        rec.arm_tag =
            node_kind_info(leaf_arm_kind(*request.tree, leaf_id)).frame_tag;
        rec.histogram.reserve(counts.histogram().size());
        for (const auto& [state, count] : counts.histogram())
            rec.histogram.emplace_back(state, count);
        ck.folded.push_back(std::move(rec));
    }

    const auto incumbent =
        request.reducer->epoch_snapshot(request.dispatched);
    ck.incumbent_valid = incumbent.valid;
    ck.incumbent_cost = incumbent.cost;
    ck.incumbent_leaf = incumbent.leaf;
    ck.incumbent_assignment = incumbent.assignment;
    return ck;
}

void
restore_checkpoint(const SolveCheckpoint& ck, WaveRequest& request)
{
    FQ_REQUIRE(request.model != nullptr && request.tree != nullptr &&
                   request.schedule != nullptr &&
                   request.reducer != nullptr && request.dev != nullptr &&
                   request.config != nullptr,
               "checkpoint restore into an unwired request");
    FQ_REQUIRE(request.dispatched == 0 && request.epochs == 0,
               "checkpoint restore target must be a freshly planned "
               "request");

    // ------------------------------------------------- identity checks --
    const auto check = [](bool ok, const std::string& what) {
        if (!ok)
            throw CheckpointError("checkpoint does not match this request: " +
                                  what);
    };
    check(ck.model_hash == model_fingerprint(*request.model),
          "model fingerprint differs (different Ising instance)");
    check(ck.config_hash == config_fingerprint(*request.config),
          "config fingerprint differs (a result-relevant DriverConfig "
          "field changed)");
    check(ck.device_name == request.dev->name,
          "device differs (snapshot from '" + ck.device_name +
              "', restoring on '" + request.dev->name + "')");
    check(ck.seed == request.seed, "plan seed differs");
    check(ck.shots == request.shots, "shot count differs");
    check(ck.plan_hash == plan_fingerprint(*request.tree),
          "plan fingerprint differs (the replanned solve tree is not the "
          "one the snapshot's cursor indexes into)");

    // ------------------------------------------ schedule-state checks --
    // The snapshot's partition must place every executable leaf exactly
    // once; a fresh plan from matching fingerprints covers the same set,
    // so any discrepancy is payload corruption the CRC framing missed.
    const std::size_t num_leaves =
        static_cast<std::size_t>(request.tree->num_executable_leaves());
    std::vector<char> seen(num_leaves, 0);
    std::size_t placed = 0;
    const auto place = [&](const std::vector<int>& ids) {
        for (int leaf_id : ids) {
            if (leaf_id < 0 ||
                static_cast<std::size_t>(leaf_id) >= num_leaves ||
                seen[static_cast<std::size_t>(leaf_id)])
                throw CheckpointError(
                    "snapshot schedule partition corrupt: leaf " +
                    std::to_string(leaf_id) +
                    " out of range or placed twice");
            seen[static_cast<std::size_t>(leaf_id)] = 1;
            ++placed;
        }
    };
    place(ck.executed);
    place(ck.beyond_budget);
    place(ck.pruned);
    if (placed != num_leaves)
        throw CheckpointError(
            "snapshot schedule partition corrupt: covers " +
            std::to_string(placed) + " of " + std::to_string(num_leaves) +
            " leaves");

    // A snapshot is only taken mid-solve, so its cursor must sit strictly
    // inside the scheduled-leaf list — a cursor at or past the end is a
    // corrupt or hand-edited snapshot, not a resumable state.
    FQ_REQUIRE(ck.cursor < ck.executed.size(),
               "restored cursor exceeds the scheduled-leaf count");
    if (ck.next_rerank != 0 && ck.next_rerank <= ck.cursor)
        throw CheckpointError(
            "snapshot re-rank boundary " + std::to_string(ck.next_rerank) +
            " is not past its cursor " + std::to_string(ck.cursor));
    if (ck.folded.size() != ck.cursor)
        throw CheckpointError(
            "snapshot holds " + std::to_string(ck.folded.size()) +
            " folded records for a cursor of " + std::to_string(ck.cursor));
    for (std::size_t k = 0; k < ck.folded.size(); ++k) {
        const auto& rec = ck.folded[k];
        if (rec.leaf_id != ck.executed[k])
            throw CheckpointError(
                "folded record " + std::to_string(k) + " is leaf " +
                std::to_string(rec.leaf_id) + " but the schedule rank " +
                "holds leaf " + std::to_string(ck.executed[k]));
        if (rec.width != request.tree->leaf_width(rec.leaf_id))
            throw CheckpointError(
                "folded record for leaf " + std::to_string(rec.leaf_id) +
                " has register width " + std::to_string(rec.width) +
                ", the plan says " +
                std::to_string(request.tree->leaf_width(rec.leaf_id)));
        // v2 records carry the reduction arm the leaf executed under; the
        // replanned tree must put the same kind there (v1 records carry
        // kNoKindTag and predate the check).
        if (rec.arm_tag != kNoKindTag) {
            const std::uint8_t expect =
                node_kind_info(leaf_arm_kind(*request.tree, rec.leaf_id))
                    .frame_tag;
            if (rec.arm_tag != expect)
                throw CheckpointError(
                    "folded record for leaf " + std::to_string(rec.leaf_id) +
                    " was produced under node kind tag " +
                    std::to_string(rec.arm_tag) +
                    ", the replanned tree expands it under tag " +
                    std::to_string(expect));
        }
    }

    // ------------------------------------------------------- apply --
    auto& schedule = *request.schedule;
    schedule.executed = ck.executed;
    schedule.beyond_budget = ck.beyond_budget;
    schedule.pruned = ck.pruned;
    schedule.reranks = ck.reranks;
    schedule.rerank_pruned = ck.rerank_pruned;
    schedule.rerank_promoted = ck.rerank_promoted;
    schedule.rerank_demoted = ck.rerank_demoted;
    schedule.deadline_trimmed = ck.deadline_trimmed;

    // Re-fold the raw histograms: decode is deterministic, so this rebuilds
    // outcomes, incumbent and anytime trace bit for bit.
    for (const auto& rec : ck.folded) {
        sim::Counts counts(rec.width);
        for (const auto& [state, count] : rec.histogram)
            counts.add(state, count);
        request.reducer->fold(rec.leaf_id, std::move(counts));
    }

    request.dispatched = static_cast<std::size_t>(ck.cursor);
    request.next_rerank = static_cast<std::size_t>(ck.next_rerank);
    request.epochs = ck.epochs;

    // ------------------------------------------- self-validation --
    // The re-folded incumbent must reproduce the snapshot's record exactly
    // (bitwise on the cost): anything else means the payload was corrupted
    // in a way the CRC framing could not see, or decode determinism broke.
    const auto incumbent = request.reducer->epoch_snapshot(ck.cursor);
    const bool incumbent_ok =
        incumbent.valid == ck.incumbent_valid &&
        incumbent.leaf == ck.incumbent_leaf &&
        (!ck.incumbent_valid ||
         (double_bits(incumbent.cost) == double_bits(ck.incumbent_cost) &&
          incumbent.assignment == ck.incumbent_assignment));
    if (!incumbent_ok)
        throw CheckpointError(
            "re-folded incumbent does not reproduce the snapshot's record "
            "— snapshot corrupt or decode determinism violated");
}

// --------------------------------------------------------- wire format --

std::vector<std::uint8_t>
encode_checkpoint(const SolveCheckpoint& ck)
{
    ByteWriter payload;
    payload.put_u64(ck.model_hash);
    payload.put_u64(ck.config_hash);
    payload.put_u64(ck.plan_hash);
    payload.put_string(ck.device_name);
    payload.put_u64(ck.seed);
    payload.put_i32(ck.shots);

    payload.put_u64(ck.cursor);
    payload.put_u64(ck.next_rerank);
    payload.put_i32(ck.epochs);

    payload.put_int_vector(ck.executed);
    payload.put_int_vector(ck.beyond_budget);
    payload.put_int_vector(ck.pruned);
    payload.put_i32(ck.reranks);
    payload.put_i32(ck.rerank_pruned);
    payload.put_i32(ck.rerank_promoted);
    payload.put_i32(ck.rerank_demoted);
    payload.put_i32(ck.deadline_trimmed);

    payload.put_u32(static_cast<std::uint32_t>(ck.folded.size()));
    for (const auto& rec : ck.folded) {
        payload.put_i32(rec.leaf_id);
        payload.put_i32(rec.width);
        payload.put_u8(rec.arm_tag);
        payload.put_u32(static_cast<std::uint32_t>(rec.histogram.size()));
        for (const auto& [state, count] : rec.histogram) {
            payload.put_u64(state);
            payload.put_u64(count);
        }
    }

    payload.put_u8(ck.incumbent_valid ? 1 : 0);
    payload.put_double(ck.incumbent_cost);
    payload.put_i32(ck.incumbent_leaf);
    payload.put_u32(
        static_cast<std::uint32_t>(ck.incumbent_assignment.size()));
    for (std::int8_t spin : ck.incumbent_assignment)
        payload.put_u8(static_cast<std::uint8_t>(spin));

    const auto& body = payload.bytes();
    ByteWriter framed;
    framed.put_u32(kMagic);
    framed.put_u32(kCheckpointFormatVersion);
    framed.put_u64(static_cast<std::uint64_t>(body.size()));
    framed.put_u32(crc32(body.data(), body.size()));
    auto out = framed.take();
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

SolveCheckpoint
decode_checkpoint(const std::uint8_t* data, std::size_t size)
{
    ByteReader frame(data, size);
    const std::uint32_t magic = frame.get_u32();
    if (magic != kMagic)
        throw CheckpointError("not a checkpoint file (bad magic)");
    const std::uint32_t version = frame.get_u32();
    if (version < kMinCheckpointFormatVersion ||
        version > kCheckpointFormatVersion)
        throw CheckpointError(
            "unsupported checkpoint format version " +
            std::to_string(version) + " (this build reads versions " +
            std::to_string(kMinCheckpointFormatVersion) + ".." +
            std::to_string(kCheckpointFormatVersion) + ")");
    const std::uint64_t length = frame.get_u64();
    const std::uint32_t expected_crc = frame.get_u32();
    if (length != frame.remaining())
        throw CheckpointError(
            "checkpoint payload length mismatch: header says " +
            std::to_string(length) + " bytes, file holds " +
            std::to_string(frame.remaining()));
    const std::uint8_t* body = data + (size - frame.remaining());
    if (crc32(body, static_cast<std::size_t>(length)) != expected_crc)
        throw CheckpointError(
            "checkpoint payload failed its CRC check (corrupt file)");

    ByteReader payload(body, static_cast<std::size_t>(length));
    SolveCheckpoint ck;
    ck.model_hash = payload.get_u64();
    ck.config_hash = payload.get_u64();
    ck.plan_hash = payload.get_u64();
    ck.device_name = payload.get_string();
    ck.seed = payload.get_u64();
    ck.shots = payload.get_i32();

    ck.cursor = payload.get_u64();
    ck.next_rerank = payload.get_u64();
    ck.epochs = payload.get_i32();

    ck.executed = payload.get_int_vector();
    ck.beyond_budget = payload.get_int_vector();
    ck.pruned = payload.get_int_vector();
    ck.reranks = payload.get_i32();
    ck.rerank_pruned = payload.get_i32();
    ck.rerank_promoted = payload.get_i32();
    ck.rerank_demoted = payload.get_i32();
    ck.deadline_trimmed = payload.get_i32();

    const std::uint32_t num_folded = payload.get_u32();
    ck.folded.reserve(num_folded);
    for (std::uint32_t k = 0; k < num_folded; ++k) {
        SolveCheckpoint::FoldedLeaf rec;
        rec.leaf_id = payload.get_i32();
        rec.width = payload.get_i32();
        if (version >= 2) {
            rec.arm_tag = payload.get_u8();
            // A tag this build's kind-metadata table cannot name means the
            // snapshot came from a newer (or corrupted) vocabulary —
            // restoring it would mis-attribute the record's arm silently.
            if (node_kind_info_by_tag(rec.arm_tag) == nullptr)
                throw CheckpointError(
                    "checkpoint folded record " + std::to_string(k) +
                    " carries unknown node kind tag " +
                    std::to_string(rec.arm_tag) +
                    " (snapshot from a newer reduction vocabulary?)");
        }
        const std::uint32_t entries = payload.get_u32();
        rec.histogram.reserve(entries);
        for (std::uint32_t e = 0; e < entries; ++e) {
            const std::uint64_t state = payload.get_u64();
            const std::uint64_t count = payload.get_u64();
            rec.histogram.emplace_back(state, count);
        }
        ck.folded.push_back(std::move(rec));
    }

    ck.incumbent_valid = payload.get_u8() != 0;
    ck.incumbent_cost = payload.get_double();
    ck.incumbent_leaf = payload.get_i32();
    const std::uint32_t spins = payload.get_u32();
    ck.incumbent_assignment.reserve(spins);
    for (std::uint32_t k = 0; k < spins; ++k)
        ck.incumbent_assignment.push_back(
            static_cast<std::int8_t>(payload.get_u8()));

    if (payload.remaining() != 0)
        throw CheckpointError(
            "checkpoint payload has " +
            std::to_string(payload.remaining()) +
            " trailing bytes (corrupt or mis-framed file)");
    return ck;
}

void
write_checkpoint_file(const std::string& path, const SolveCheckpoint& ck)
{
    const auto bytes = encode_checkpoint(ck);
    // Write-then-rename: a crash mid-write leaves the previous snapshot
    // intact instead of a torn file — the property the kill-and-resume CI
    // smoke test relies on.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw CheckpointError("cannot open '" + tmp +
                                  "' for writing");
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            throw CheckpointError("failed writing checkpoint to '" + tmp +
                                  "'");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw CheckpointError("cannot rename '" + tmp + "' to '" + path +
                              "'");
    }
}

SolveCheckpoint
read_checkpoint_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CheckpointError("cannot open checkpoint file '" + path +
                              "'");
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        throw CheckpointError("failed reading checkpoint file '" + path +
                              "'");
    return decode_checkpoint(bytes.data(), bytes.size());
}

} // namespace fq::engine
