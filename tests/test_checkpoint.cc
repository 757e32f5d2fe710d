/**
 * @file
 * Durable-solve tests: the checkpoint/restore acceptance contract —
 *
 *   - encode/decode and file write/read round-trip every snapshot field
 *     exactly (histograms included);
 *   - a depth-2 re-ranked solve checkpointed at EVERY boundary and
 *     resumed in a fresh engine is bit-identical to the uninterrupted
 *     run, at 1 thread and at N threads, solo and through a
 *     SolveService;
 *   - a suspended solve completes as a degraded anytime result whose
 *     snapshot resumes the full solve;
 *   - a corrupted cursor (>= scheduled-leaf count) is rejected before
 *     any fold (the satellite regression for the restore invariant);
 *   - a checked-in format-v1 snapshot (tests/data/checkpoint_v1.bin)
 *     still decodes and resumes bit-identically;
 *   - deadline admission: an unmeetable budget throws DeadlineError at
 *     plan time; a trimmed solve is degraded, reports the trim, and
 *     stays bit-identical across thread counts.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/error.h"
#include "device/catalog.h"
#include "engine/checkpoint.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "engine/solve_service.h"
#include "solve_test_util.h"

namespace {

using namespace fq;
using namespace fq::engine;
using fq::test::ba_model;
using fq::test::expect_solves_identical;

/** The canonical durable workload: recursive depth-2 tree under budget
 *  with a mid-schedule re-rank boundary — every kind of schedule
 *  mutation (re-rank prune/demote, epoch snapshots) is live when the
 *  checkpoints fire. */
struct DurableWorkload
{
    ising::IsingModel model = ba_model(16, 2, 5);
    frozenqubits::DriverConfig config;
    int shots = 256;
    std::uint64_t seed = 7;

    DurableWorkload()
    {
        config.num_freeze = 2;
        config.max_depth = 2;
        config.max_circuits = 4;
        config.rerank_interval = 2;
        config.checkpoint_interval = 1;
        config.seed = seed;
    }
};

void
expect_checkpoints_equal(const SolveCheckpoint& a, const SolveCheckpoint& b)
{
    EXPECT_EQ(a.model_hash, b.model_hash);
    EXPECT_EQ(a.config_hash, b.config_hash);
    EXPECT_EQ(a.plan_hash, b.plan_hash);
    EXPECT_EQ(a.device_name, b.device_name);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.cursor, b.cursor);
    EXPECT_EQ(a.next_rerank, b.next_rerank);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.beyond_budget, b.beyond_budget);
    EXPECT_EQ(a.pruned, b.pruned);
    EXPECT_EQ(a.reranks, b.reranks);
    EXPECT_EQ(a.rerank_pruned, b.rerank_pruned);
    EXPECT_EQ(a.rerank_promoted, b.rerank_promoted);
    EXPECT_EQ(a.rerank_demoted, b.rerank_demoted);
    EXPECT_EQ(a.deadline_trimmed, b.deadline_trimmed);
    ASSERT_EQ(a.folded.size(), b.folded.size());
    for (std::size_t k = 0; k < a.folded.size(); ++k) {
        EXPECT_EQ(a.folded[k].leaf_id, b.folded[k].leaf_id);
        EXPECT_EQ(a.folded[k].width, b.folded[k].width);
        EXPECT_EQ(a.folded[k].arm_tag, b.folded[k].arm_tag);
        EXPECT_EQ(a.folded[k].histogram, b.folded[k].histogram);
    }
    EXPECT_EQ(a.incumbent_valid, b.incumbent_valid);
    EXPECT_DOUBLE_EQ(a.incumbent_cost, b.incumbent_cost);
    EXPECT_EQ(a.incumbent_leaf, b.incumbent_leaf);
    EXPECT_EQ(a.incumbent_assignment, b.incumbent_assignment);
}

/** Solve the workload collecting the snapshot at every boundary. */
std::vector<SolveCheckpoint>
collect_snapshots(const DurableWorkload& w,
                  frozenqubits::SampledSolve* solved = nullptr,
                  int threads = 1)
{
    std::vector<SolveCheckpoint> snapshots;
    ExecutionEngine eng(threads);
    const auto dev = device::make_device("ibm-montreal");
    auto result =
        eng.solve(w.model, dev, w.config, w.shots, w.seed,
                  [&](const SolveCheckpoint& ck) {
                      snapshots.push_back(ck);
                      return true;
                  });
    if (solved)
        *solved = std::move(result);
    return snapshots;
}

TEST(Checkpoint, SinkDoesNotChangeResults)
{
    // Same durable config with and without a sink: only the sink arms
    // the checkpoint barriers, and they must not change any result.
    DurableWorkload w;
    frozenqubits::SampledSolve with_sink;
    EXPECT_FALSE(collect_snapshots(w, &with_sink).empty());
    const auto dev = device::make_device("ibm-montreal");
    ExecutionEngine eng(1);
    const auto without_sink =
        eng.solve(w.model, dev, w.config, w.shots, w.seed);
    expect_solves_identical(without_sink, with_sink);
    EXPECT_EQ(eng.last_diagnostics().checkpoints, 0);
}

TEST(Checkpoint, CheckpointBarriersDoNotChangeResults)
{
    DurableWorkload w;
    const auto dev = device::make_device("ibm-montreal");
    ExecutionEngine eng(1);
    auto plain = w.config;
    plain.checkpoint_interval = 0;
    const auto reference =
        eng.solve(w.model, dev, plain, w.shots, w.seed);
    frozenqubits::SampledSolve with_barriers;
    const auto snapshots = collect_snapshots(w, &with_barriers);
    EXPECT_FALSE(snapshots.empty());
    expect_solves_identical(reference, with_barriers);
    // Snapshots fire strictly before completion — a finished request has
    // nothing to resume (capture_checkpoint rejects it).
    for (const auto& ck : snapshots)
        EXPECT_LT(ck.cursor,
                  static_cast<std::uint64_t>(reference.leaves_executed));
}

TEST(Checkpoint, EncodeDecodeRoundTrip)
{
    DurableWorkload w;
    const auto snapshots = collect_snapshots(w);
    ASSERT_FALSE(snapshots.empty());
    for (const auto& ck : snapshots) {
        const auto bytes = encode_checkpoint(ck);
        const auto back = decode_checkpoint(bytes.data(), bytes.size());
        expect_checkpoints_equal(ck, back);
    }
}

TEST(Checkpoint, FileRoundTrip)
{
    DurableWorkload w;
    const auto snapshots = collect_snapshots(w);
    ASSERT_FALSE(snapshots.empty());
    const std::string path = ::testing::TempDir() + "fq_ck_roundtrip.bin";
    write_checkpoint_file(path, snapshots.back());
    const auto back = read_checkpoint_file(path);
    expect_checkpoints_equal(snapshots.back(), back);
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeAtEveryBoundaryIsBitIdentical)
{
    DurableWorkload w;
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::SampledSolve reference;
    const auto snapshots = collect_snapshots(w, &reference);
    ASSERT_FALSE(snapshots.empty());

    for (const auto& ck : snapshots) {
        for (int threads : {1, 4}) {
            ExecutionEngine fresh(threads);
            const auto resumed =
                fresh.resume(w.model, dev, w.config, w.shots, ck);
            expect_solves_identical(reference, resumed);
            EXPECT_EQ(fresh.last_diagnostics().resumed_from,
                      static_cast<int>(ck.cursor));
        }
    }
}

TEST(Checkpoint, SuspendThenResumeMatchesUninterrupted)
{
    DurableWorkload w;
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::SampledSolve reference;
    collect_snapshots(w, &reference);
    ASSERT_FALSE(reference.degraded);

    // Crash-like path: suspend after the first fold, keep only the last
    // snapshot written before the suspension, resume from it cold.
    SolveCheckpoint last;
    ExecutionEngine eng(2);
    const auto partial =
        eng.solve(w.model, dev, w.config, w.shots, w.seed,
                  [&](const SolveCheckpoint& ck) {
                      last = ck;
                      return ck.cursor < 1;
                  });
    EXPECT_TRUE(partial.degraded);
    EXPECT_LT(partial.leaves_executed, reference.leaves_executed);
    EXPECT_EQ(last.cursor, 1u);

    ExecutionEngine fresh(2);
    const auto resumed = fresh.resume(w.model, dev, w.config, w.shots, last);
    expect_solves_identical(reference, resumed);
}

TEST(Checkpoint, ServiceResumeMatchesSoloSolve)
{
    DurableWorkload w;
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::SampledSolve reference;
    const auto snapshots = collect_snapshots(w, &reference);
    ASSERT_FALSE(snapshots.empty());

    ExecutionEngine eng(2);
    SolveService service(eng);
    auto ticket = service.submit_resume(w.model, dev, w.config, w.shots,
                                        snapshots.front());
    const auto resumed = ticket.get();
    expect_solves_identical(reference, resumed);
    const auto diag = service.diagnostics(ticket.id());
    EXPECT_EQ(diag.resumed_from,
              static_cast<int>(snapshots.front().cursor));
}

TEST(Checkpoint, CorruptedCursorIsRejectedBeforeAnyFold)
{
    DurableWorkload w;
    const auto dev = device::make_device("ibm-montreal");
    const auto snapshots = collect_snapshots(w);
    ASSERT_FALSE(snapshots.empty());

    // The restore invariant: the cursor indexes INTO the scheduled
    // partition, so cursor >= executed.size() means the snapshot lies
    // about its progress. It must be rejected up front, not crash a
    // fold loop later. (The bytes themselves are valid: frame the
    // corrupt struct through encode/decode to prove CRC cannot see it.)
    auto corrupt = snapshots.back();
    corrupt.cursor = corrupt.executed.size();
    const auto bytes = encode_checkpoint(corrupt);
    const auto decoded = decode_checkpoint(bytes.data(), bytes.size());

    ExecutionEngine eng(1);
    EXPECT_THROW(eng.resume(w.model, dev, w.config, w.shots, decoded),
                 fq::Error);
}

TEST(Checkpoint, DeadlineRejectsUnmeetableBudgetAtPlanTime)
{
    DurableWorkload w;
    const auto dev = device::make_device("ibm-montreal");
    auto config = w.config;
    config.checkpoint_interval = 0;
    config.deadline_cost_units = 1; // cheapest leaf costs 2^width >> 1
    ExecutionEngine eng(1);
    EXPECT_THROW(eng.solve(w.model, dev, config, w.shots, w.seed),
                 DeadlineError);
}

/** Largest power-of-two budget that trims the workload's schedule
 *  without rejecting it outright (0 if none exists). */
long long
find_trimming_deadline(const DurableWorkload& w,
                       frozenqubits::DriverConfig config)
{
    const auto dev = device::make_device("ibm-montreal");
    ExecutionEngine eng(1);
    for (int shift = 40; shift >= 1; --shift) {
        config.deadline_cost_units = 1LL << shift;
        try {
            const auto solved =
                eng.solve(w.model, dev, config, w.shots, w.seed);
            if (solved.degraded)
                return config.deadline_cost_units;
        } catch (const DeadlineError&) {
            return 0; // even one leaf no longer fits
        }
    }
    return 0;
}

TEST(Checkpoint, DeadlineTrimIsDegradedAndThreadCountInvariant)
{
    DurableWorkload w;
    const auto dev = device::make_device("ibm-montreal");
    auto config = w.config;
    config.checkpoint_interval = 0;

    ExecutionEngine probe(1);
    const auto full = probe.solve(w.model, dev, config, w.shots, w.seed);
    ASSERT_GT(full.leaves_executed, 1);

    config.deadline_cost_units = find_trimming_deadline(w, config);
    ASSERT_GT(config.deadline_cost_units, 0);
    ExecutionEngine one(1), many(4);
    const auto a = one.solve(w.model, dev, config, w.shots, w.seed);
    const auto b = many.solve(w.model, dev, config, w.shots, w.seed);
    expect_solves_identical(a, b);
    EXPECT_TRUE(a.degraded);
    EXPECT_GT(a.deadline_trimmed, 0);
    EXPECT_LT(a.leaves_executed, full.leaves_executed);
    EXPECT_EQ(one.last_diagnostics().deadline_trimmed, a.deadline_trimmed);
}

TEST(Checkpoint, ResumePreservesDeadlineTrim)
{
    DurableWorkload w;
    const auto dev = device::make_device("ibm-montreal");
    auto config = w.config;
    config.deadline_cost_units = find_trimming_deadline(w, config);
    ASSERT_GT(config.deadline_cost_units, 0);

    std::vector<SolveCheckpoint> snapshots;
    ExecutionEngine eng(1);
    const auto reference =
        eng.solve(w.model, dev, config, w.shots, w.seed,
                  [&](const SolveCheckpoint& ck) {
                      snapshots.push_back(ck);
                      return true;
                  });
    ASSERT_TRUE(reference.degraded);
    for (const auto& ck : snapshots) {
        ExecutionEngine fresh(2);
        const auto resumed =
            fresh.resume(w.model, dev, config, w.shots, ck);
        expect_solves_identical(reference, resumed);
    }
}

// ------------------------------------------------ format version 2 --

TEST(Checkpoint, RecordsReductionArmTags)
{
    DurableWorkload w; // depth-2 recursive freeze: every arm is Freeze
    const auto snapshots = collect_snapshots(w);
    ASSERT_FALSE(snapshots.empty());
    const auto freeze_tag = node_kind_info(NodeKind::Freeze).frame_tag;
    for (const auto& ck : snapshots)
        for (const auto& rec : ck.folded)
            EXPECT_EQ(rec.arm_tag, freeze_tag);
    // And the frame header says version 2.
    const auto bytes = encode_checkpoint(snapshots.back());
    EXPECT_EQ(bytes[4], 2);
}

TEST(Checkpoint, SparsifyTreeRoundTripsAndResumes)
{
    DurableWorkload w;
    const auto dev = device::make_device("ibm-montreal");
    auto config = w.config;
    config.max_depth = 1; // sparsify interposes its own level
    config.sparsify_keep = 0.5;

    std::vector<SolveCheckpoint> snapshots;
    ExecutionEngine eng(1);
    const auto reference =
        eng.solve(w.model, dev, config, w.shots, w.seed,
                  [&](const SolveCheckpoint& ck) {
                      snapshots.push_back(ck);
                      return true;
                  });
    ASSERT_FALSE(snapshots.empty());

    const auto sparsify_tag =
        node_kind_info(NodeKind::Sparsify).frame_tag;
    for (const auto& ck : snapshots) {
        for (const auto& rec : ck.folded)
            EXPECT_EQ(rec.arm_tag, sparsify_tag);
        // Wire round trip, arm tags included.
        const auto bytes = encode_checkpoint(ck);
        expect_checkpoints_equal(
            ck, decode_checkpoint(bytes.data(), bytes.size()));
        // Resume from every boundary, at any thread count.
        for (int threads : {1, 4}) {
            ExecutionEngine fresh(threads);
            expect_solves_identical(
                reference,
                fresh.resume(w.model, dev, config, w.shots, ck));
        }
    }
}

TEST(Checkpoint, VersionOneSnapshotsRestoreBitIdentically)
{
    // Golden bytes: the workload's first snapshot, written in format v1
    // (no arm tags) by the last encoder that still emitted it. Decoding
    // it pins the v1 reader and every fingerprint the snapshot carries.
    DurableWorkload w;
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::SampledSolve reference;
    const auto snapshots = collect_snapshots(w, &reference);
    ASSERT_FALSE(snapshots.empty());

    const auto legacy = read_checkpoint_file(FQ_CHECKPOINT_V1_BLOB);
    ASSERT_FALSE(legacy.folded.empty());
    for (const auto& rec : legacy.folded)
        EXPECT_EQ(rec.arm_tag, kNoKindTag);
    // Everything but the tags matches today's capture at that boundary.
    auto tagged = legacy;
    for (std::size_t k = 0; k < tagged.folded.size(); ++k)
        tagged.folded[k].arm_tag =
            snapshots.front().folded.at(k).arm_tag;
    expect_checkpoints_equal(snapshots.front(), tagged);
    // The restore is exact: the arm cross-check is simply skipped for
    // untagged records.
    for (int threads : {1, 4}) {
        ExecutionEngine fresh(threads);
        expect_solves_identical(
            reference, fresh.resume(w.model, dev, w.config, w.shots, legacy));
    }
}

TEST(Checkpoint, ConfigFingerprintIsPinned)
{
    // Golden values: snapshots on disk carry config_fingerprint, so any
    // change to what it mixes strands every existing snapshot. These are
    // the fingerprints computed before template editing stopped being a
    // config field; they must never move.
    EXPECT_EQ(config_fingerprint(frozenqubits::DriverConfig{}),
              0x560113bab339593aull);

    frozenqubits::DriverConfig config;
    config.num_freeze = 3;
    config.max_depth = 3;
    config.partition_width = 12;
    config.max_circuits = 24;
    config.rerank_interval = 4;
    EXPECT_EQ(config_fingerprint(config), 0x9f74051f73004ea2ull);
}

} // namespace
