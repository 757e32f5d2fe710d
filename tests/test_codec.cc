/**
 * @file
 * Byte-format suite for the two binary formats that leave the process —
 * wire messages inside CRC frames, and checkpoint snapshots:
 *
 *   - pinned bytes: fixed messages, one frame and one two-leaf snapshot
 *     encode to the exact size and CRC-32 they had when the formats were
 *     frozen (protocol version 6, checkpoint format 2). A codec change
 *     that moves a single byte fails here before it reaches a peer or a
 *     file on disk.
 *   - the shared codec (common/bytes.h): every read is bounds-checked and
 *     typed, list counts the bytes cannot hold are refused before any
 *     allocation, and the CRC frame header rejects bad magic, short
 *     headers, length mismatches and payload corruption.
 *   - the shared histogram check (sim::checked_counts) that worker
 *     replies and checkpoint records both pass through.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/error.h"
#include "engine/checkpoint.h"
#include "net/frame.h"
#include "net/wire.h"
#include "sim/counts.h"

namespace {

using namespace fq;

/** Size and CRC-32 of one encoding. */
struct Pin
{
    std::size_t size;
    std::uint32_t crc;
};

void
expect_pinned(const std::vector<std::uint8_t>& bytes, Pin pin,
              const char* what)
{
    EXPECT_EQ(bytes.size(), pin.size) << what;
    EXPECT_EQ(common::crc32(bytes.data(), bytes.size()), pin.crc)
        << what << " crc 0x" << std::hex
        << common::crc32(bytes.data(), bytes.size());
}

ising::IsingModel
pinned_model()
{
    ising::IsingModel model(4);
    model.set_linear(0, 0.5);
    model.set_linear(3, -1.25);
    model.add_quadratic(0, 1, 1.0);
    model.add_quadratic(1, 2, -1.0);
    model.add_quadratic(2, 3, 0.75);
    model.set_offset(2.0);
    return model;
}

TEST(PinnedBytes, WireMessages)
{
    net::OpenSession open;
    open.session_id = 0x0102030405060708ull;
    open.model = pinned_model();
    open.device_name = "ibm-montreal";
    open.config.num_freeze = 2;
    open.config.max_depth = 2;
    open.config.max_circuits = 12;
    open.config.rerank_interval = 3;
    open.config.sparsify_keep = 0.5;
    open.config.seed = 99;
    open.seed = 99;
    open.shots = 2048;
    open.model_hash = 0x1111;
    open.config_hash = 0x2222;
    open.plan_hash = 0x3333;
    open.device_hash = 0x4444;
    expect_pinned(net::encode_open_session(open), Pin{272, 0x0e050aba},
                  "OpenSession");

    expect_pinned(net::encode_session_ready({7, 4}),
                  Pin{12, 0x802fb8b7}, "SessionReady");
    expect_pinned(net::encode_exec_batch({7, {0, 3, 5}}),
                  Pin{28, 0x92813ea1}, "ExecBatch");

    net::LeafCounts counts;
    counts.session_id = 7;
    counts.leaf_id = 3;
    counts.width = 5;
    counts.histogram = {{0, 100}, {17, 900}, {31, 24}};
    expect_pinned(net::encode_leaf_counts(counts), Pin{72, 0x36f4fae3},
                  "LeafCounts");

    expect_pinned(net::encode_leaf_failed({7, 3, "boom"}),
                  Pin{24, 0xbbd5abc2}, "LeafFailed");
    expect_pinned(net::encode_close_session({7}), Pin{8, 0x6fe7d670},
                  "CloseSession");
    expect_pinned(net::encode_wire_error({7, "fingerprint mismatch"}),
                  Pin{36, 0xebf7d346}, "WireError");
    expect_pinned(net::encode_worker_hello({net::kProtocolVersion, 8}),
                  Pin{8, 0xaa53fe9f}, "WorkerHello");
}

TEST(PinnedBytes, Frame)
{
    expect_pinned(net::encode_frame(net::kMsgExecBatch, {1, 2, 3, 250, 0}),
                  Pin{25, 0x2dad8aa3}, "frame");
}

TEST(PinnedBytes, CheckpointWithTwoFoldedLeaves)
{
    engine::SolveCheckpoint ck;
    ck.model_hash = 0xAAAA;
    ck.config_hash = 0xBBBB;
    ck.plan_hash = 0xCCCC;
    ck.device_name = "ibm-montreal";
    ck.seed = 7;
    ck.shots = 64;
    ck.cursor = 2;
    ck.next_rerank = 4;
    ck.epochs = 1;
    ck.executed = {2, 0, 1};
    ck.beyond_budget = {3};
    ck.pruned = {};
    ck.reranks = 1;
    ck.rerank_pruned = 1;
    ck.rerank_promoted = 0;
    ck.rerank_demoted = 2;
    ck.deadline_trimmed = 0;
    engine::SolveCheckpoint::FoldedLeaf a;
    a.leaf_id = 2;
    a.width = 3;
    a.arm_tag = 1;
    a.histogram = {{1, 40}, {6, 24}};
    engine::SolveCheckpoint::FoldedLeaf b;
    b.leaf_id = 0;
    b.width = 3;
    b.arm_tag = 1;
    b.histogram = {{0, 64}};
    ck.folded = {a, b};
    ck.incumbent_valid = true;
    ck.incumbent_cost = -3.5;
    ck.incumbent_leaf = 2;
    ck.incumbent_assignment = {1, -1, 1, 1, -1};
    expect_pinned(engine::encode_checkpoint(ck), Pin{240, 0x9ce6961d},
                  "checkpoint");
}

// ------------------------------------------------------------ codec --

class CodecError : public Error
{
  public:
    using Error::Error;
};

using Writer = common::ByteWriter<std::uint32_t>;
using Reader = common::ByteReader<CodecError, std::uint32_t>;

Reader
reader(const std::vector<std::uint8_t>& bytes)
{
    return Reader(bytes.data(), bytes.size(), "test");
}

TEST(ByteCodec, RoundTripsEveryFieldType)
{
    Writer out;
    out.u8(0xAB);
    out.u32(0xDEADBEEFu);
    out.u64(0x0123456789ABCDEFull);
    out.i32(-7);
    out.i64(-(std::int64_t{1} << 40));
    out.f64(-0.0);
    out.f64(std::numeric_limits<double>::quiet_NaN());
    out.str("fq");
    out.i32s({3, -1, 4});
    out.u64_pairs({{1, 2}, {~std::uint64_t{0}, 5}});
    const auto bytes = out.take();
    // Fixed widths, u32 length prefixes: nothing else on the wire.
    EXPECT_EQ(bytes.size(), 1u + 4 + 8 + 4 + 8 + 8 + 8 + (4 + 2) +
                                (4 + 3 * 4) + (4 + 2 * 16));
    EXPECT_EQ(bytes[1], 0xEF); // little-endian

    auto in = reader(bytes);
    EXPECT_EQ(in.u8(), 0xAB);
    EXPECT_EQ(in.u32(), 0xDEADBEEFu);
    EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(in.i32(), -7);
    EXPECT_EQ(in.i64(), -(std::int64_t{1} << 40));
    const double zero = in.f64();
    EXPECT_TRUE(zero == 0.0 && std::signbit(zero));
    EXPECT_TRUE(std::isnan(in.f64()));
    EXPECT_EQ(in.str(), "fq");
    EXPECT_EQ(in.i32s(), (std::vector<std::int32_t>{3, -1, 4}));
    EXPECT_EQ(in.u64_pairs(),
              (common::U64Pairs{{1, 2}, {~std::uint64_t{0}, 5}}));
    EXPECT_NO_THROW(in.finish());
}

TEST(ByteCodec, EveryOverrunIsTyped)
{
    Writer out;
    out.u32(1);
    const auto bytes = out.take();
    auto truncated = reader(bytes);
    EXPECT_THROW(truncated.u64(), CodecError);

    auto trailing = reader(bytes);
    trailing.u8();
    EXPECT_THROW(trailing.finish(), CodecError);
}

TEST(ByteCodec, RejectsCountsTheBytesCannotHold)
{
    // Two 16-byte pairs announced, 31 bytes present.
    Writer pairs;
    pairs.len(2);
    for (int k = 0; k < 31; ++k)
        pairs.u8(0);
    const auto pair_bytes = pairs.take();
    auto pair_in = reader(pair_bytes);
    EXPECT_THROW(pair_in.u64_pairs(), CodecError);

    // Counts near 2^32 for every list kind.
    Writer huge;
    huge.u32(0xFFFFFFFFu);
    const auto huge_bytes = huge.take();
    auto str_in = reader(huge_bytes);
    EXPECT_THROW(str_in.str(), CodecError);
    auto ints_in = reader(huge_bytes);
    EXPECT_THROW(ints_in.i32s(), CodecError);
    auto count_in = reader(huge_bytes);
    EXPECT_THROW(count_in.count(1), CodecError);

    // A count the bytes can hold is accepted exactly.
    Writer exact;
    exact.i32s({1, 2});
    const auto exact_bytes = exact.take();
    auto exact_in = reader(exact_bytes);
    EXPECT_EQ(exact_in.count(4), 2u);
}

TEST(ByteCodec, CrcFrameHeaderRejectsEveryDefect)
{
    constexpr std::uint32_t kMagic = 0x54534554u;
    const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
    const auto frame = common::encode_crc_frame(kMagic, 42, payload);
    ASSERT_EQ(frame.size(), common::kFrameHeaderBytes + payload.size());
    const auto* body = frame.data() + common::kFrameHeaderBytes;

    const auto header = common::parse_frame_header<CodecError>(
        frame.data(), frame.size(), kMagic, "test");
    EXPECT_EQ(header.tag, 42u);
    EXPECT_EQ(header.length, payload.size());
    EXPECT_NO_THROW(common::verify_frame_payload<CodecError>(
        header, body, payload.size(), "test"));

    EXPECT_THROW(common::parse_frame_header<CodecError>(
                     frame.data(), frame.size(), kMagic + 1, "test"),
                 CodecError);
    EXPECT_THROW(common::parse_frame_header<CodecError>(
                     frame.data(), common::kFrameHeaderBytes - 1, kMagic,
                     "test"),
                 CodecError);
    EXPECT_THROW(common::verify_frame_payload<CodecError>(
                     header, body, payload.size() - 1, "test"),
                 CodecError);
    auto flipped = frame;
    flipped.back() ^= 0x10;
    EXPECT_THROW(common::verify_frame_payload<CodecError>(
                     header, flipped.data() + common::kFrameHeaderBytes,
                     payload.size(), "test"),
                 CodecError);
}

// -------------------------------------------------- histogram check --

TEST(HistogramCheck, AcceptsOnlyShotsShotSamples)
{
    const auto counts =
        sim::checked_counts<CodecError>(3, {{1, 40}, {6, 24}}, 64);
    EXPECT_EQ(counts.total_shots(), 64u);
    EXPECT_EQ(sim::histogram_entries(counts),
              (sim::HistogramEntries{{1, 40}, {6, 24}}));

    const auto rejects = [](int width, const sim::HistogramEntries& entries) {
        EXPECT_THROW(sim::checked_counts<CodecError>(width, entries, 64),
                     CodecError);
    };
    rejects(0, {{0, 64}});
    rejects(64, {{0, 64}});
    rejects(3, {{8, 64}});          // state beyond the register
    rejects(3, {{0, 0}, {1, 64}});  // zero count
    rejects(3, {{0, 63}});          // short of the shots
    rejects(3, {{0, 65}});          // past the shots
    rejects(3, {{0, ~std::uint64_t{0}}, {1, 65}}); // wraps to 64
}

} // namespace
