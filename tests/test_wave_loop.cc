/**
 * @file
 * Wave-loop tests: the epoch-execution acceptance contract —
 *
 *   - `rerank=off` is bit-identical to the pre-epoch engine's single flat
 *     batch (re-implemented here as the reference);
 *   - with re-ranking ON, threads=1 and threads=N are bit-identical in
 *     every tree mode (flat / budgeted / recursive / hybrid-partition);
 *   - the reducer's epoch snapshot sees exactly the schedule prefix,
 *     regardless of which later leaves also folded;
 *   - re-ranking prunes stale dominated leaves (saving circuits) without
 *     ever worsening the incumbent;
 *   - cost-weighted wave assembly charges 2^width per leaf so a wide
 *     tenant cannot pack a wave, bounded by the wave_size slot cap with
 *     a first-leaf progress guarantee.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "engine/wave_loop.h"
#include "graph/generators.h"
#include "ising/ising_model.h"
#include "solve_test_util.h"

namespace {

using namespace fq;
using namespace fq::engine;
using fq::test::ba_model;
using fq::test::expect_solves_identical;

struct Workload
{
    ising::IsingModel model;
    frozenqubits::DriverConfig config;
    int shots = 1024;
    std::uint64_t seed = 0;
};

/** Every SolveTree mode, all with adaptive re-ranking enabled. */
std::vector<Workload>
rerank_workloads()
{
    std::vector<Workload> w;
    { // flat, budget-cut, re-rank after every fold
        Workload a;
        a.model = ba_model(12, 1, 5);
        a.config.num_freeze = 3;
        a.config.max_circuits = 2;
        a.config.rerank_interval = 1;
        a.seed = 33;
        w.push_back(std::move(a));
    }
    { // flat, unbudgeted: re-ranking may only prune/reorder the tail
        Workload b;
        b.model = ba_model(12, 2, 7);
        b.config.num_freeze = 3;
        b.config.rerank_interval = 2;
        b.seed = 44;
        w.push_back(std::move(b));
    }
    { // recursive depth-2 under budget, boundary mid-schedule
        Workload c;
        c.model = ba_model(12, 1, 9);
        c.config.num_freeze = 2;
        c.config.max_depth = 2;
        c.config.max_circuits = 5;
        c.config.rerank_interval = 2;
        c.shots = 512;
        c.seed = 17;
        w.push_back(std::move(c));
    }
    { // hybrid partition + repair decode + re-ranking
        Workload d;
        d.model = ba_model(16, 1, 21);
        d.config.num_freeze = 2;
        d.config.max_depth = 2;
        d.config.partition_width = 12;
        d.config.max_circuits = 6;
        d.config.rerank_interval = 1;
        d.shots = 512;
        d.seed = 3;
        w.push_back(std::move(d));
    }
    return w;
}

TEST(WaveLoop, RerankOnBitIdenticalAcrossThreadCounts)
{
    // THE determinism acceptance: with adaptive re-ranking active, every
    // tree mode is bit-identical between a serial and an oversubscribed
    // engine — re-rank inputs depend only on the fold count, which the
    // dispatch_limit cap makes thread-invariant.
    const auto dev = device::make_device("ibm-montreal");
    for (const auto& w : rerank_workloads()) {
        ExecutionEngine serial(1);
        ExecutionEngine parallel(4);
        const auto a = serial.solve(w.model, dev, w.config, w.shots, w.seed);
        const auto b =
            parallel.solve(w.model, dev, w.config, w.shots, w.seed);
        expect_solves_identical(a, b);
        EXPECT_EQ(serial.last_diagnostics().reranks,
                  parallel.last_diagnostics().reranks);
        EXPECT_EQ(serial.last_diagnostics().rerank_pruned,
                  parallel.last_diagnostics().rerank_pruned);
    }
}

TEST(WaveLoop, RerankOffMatchesSingleFlatBatchReference)
{
    // `rerank=off` must reproduce the pre-epoch engine bit for bit. The
    // reference below IS that engine's execution shape: plan, schedule,
    // then ONE executor batch over every scheduled leaf folding into a
    // StreamingReducer.
    const auto dev = device::make_device("ibm-montreal");
    for (long long budget : {0LL, 2LL}) {
        auto model = ba_model(12, 1, 5);
        frozenqubits::DriverConfig config;
        config.num_freeze = 3;
        config.max_circuits = budget;

        TemplateCache cache;
        BatchExecutor executor(2);
        Rng plan_rng(config.seed);
        const auto tree =
            build_solve_tree(model, dev, config, cache, plan_rng);
        const auto schedule =
            make_schedule(model, tree, config, false, &executor);
        StreamingReducer reducer(model, tree, schedule);
        executor.map<int>(
            static_cast<int>(schedule.executed.size()),
            [&](int index, BatchExecutor::Scratch& scratch) {
                const int leaf_id =
                    schedule.executed[static_cast<std::size_t>(index)];
                reducer.fold(leaf_id,
                             simulate_scheduled_leaf(cache, tree, leaf_id,
                                                     dev, config, 2048,
                                                     scratch));
                return 0;
            });
        const auto reference = reducer.finish();

        ExecutionEngine eng(2);
        const auto solved = eng.solve(model, dev, config, 2048, config.seed);
        expect_solves_identical(solved, reference);
        EXPECT_EQ(eng.last_diagnostics().epochs, 1);
        EXPECT_EQ(eng.last_diagnostics().reranks, 0);
    }
}

TEST(WaveLoop, EpochSnapshotSeesOnlyTheSchedulePrefix)
{
    // The snapshot at fold count k must be a pure function of the first k
    // scheduled leaves: folding MORE leaves first must not change it.
    const auto model = ba_model(12, 1, 5);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;
    config.max_circuits = 4; // score + presolve, full schedule

    TemplateCache cache;
    BatchExecutor executor(1);
    Rng plan_rng(config.seed);
    const auto tree = build_solve_tree(model, dev, config, cache, plan_rng);
    const auto schedule = make_schedule(model, tree, config);
    ASSERT_GE(schedule.executed.size(), 3u);

    BatchExecutor::Scratch scratch;
    const auto counts_of = [&](int leaf_id) {
        return simulate_scheduled_leaf(cache, tree, leaf_id, dev, config,
                                       1024, scratch);
    };

    StreamingReducer full(model, tree, schedule);
    for (int leaf_id : schedule.executed) // every scheduled leaf folded
        full.fold(leaf_id, counts_of(leaf_id));
    StreamingReducer prefix(model, tree, schedule);
    for (std::size_t k = 0; k < 2; ++k) // only the first two folded
        prefix.fold(schedule.executed[k], counts_of(schedule.executed[k]));

    const auto a = full.epoch_snapshot(2);
    const auto b = prefix.epoch_snapshot(2);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
    EXPECT_EQ(a.leaf, b.leaf);
    EXPECT_EQ(a.assignment, b.assignment);

    // Snapshots tighten monotonically with the fold count.
    double last = full.epoch_snapshot(0).cost;
    for (std::size_t k = 1; k <= schedule.executed.size(); ++k) {
        const double cost = full.epoch_snapshot(k).cost;
        EXPECT_LE(cost, last);
        last = cost;
    }

    // A snapshot over leaves that never folded is a contract violation.
    EXPECT_THROW(prefix.epoch_snapshot(3), fq::Error);
}

TEST(WaveLoop, RerankPrunesStaleDominatedLeaves)
{
    // ±1-weight BA1 trees are SA-trivial: after the first fold the
    // incumbent dominates most sibling bounds, so per-fold re-ranking
    // must drop them before they burn circuits — without changing the
    // reported best (a dominated leaf provably cannot improve it).
    const auto model = ba_model(12, 1, 5);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig base;
    base.num_freeze = 3;

    ExecutionEngine off_eng(2), on_eng(2);
    const auto off = off_eng.solve(model, dev, base, 2048, base.seed);

    auto adaptive = base;
    adaptive.rerank_interval = 1;
    const auto on = on_eng.solve(model, dev, adaptive, 2048, base.seed);

    const auto& diag = on_eng.last_diagnostics();
    EXPECT_GT(diag.reranks, 0);
    EXPECT_GT(diag.rerank_pruned, 0);
    EXPECT_LT(on.leaves_executed, off.leaves_executed);
    EXPECT_DOUBLE_EQ(on.best_cost, off.best_cost);
    // Interval 1: every executed leaf is its own epoch.
    EXPECT_EQ(diag.epochs, on.leaves_executed);
}

/** Minimal solo workload wired into a WaveRequest for assembly tests. */
struct AssemblyFixture
{
    ising::IsingModel model;
    device::Device dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    TemplateCache cache;
    SolveTree tree;
    LeafSchedule schedule;
    WaveRequest request;

    AssemblyFixture(int n, std::uint64_t seed, int wave_share = 0)
        : model(ba_model(n, 1, seed))
    {
        config.num_freeze = 2; // 2 executable leaves of width n - 2
        config.wave_share = wave_share;
        Rng rng(config.seed);
        tree = build_solve_tree(model, dev, config, cache, rng);
        schedule = make_schedule(model, tree, config);
        request.model = &model;
        request.tree = &tree;
        request.schedule = &schedule;
        request.dev = &dev;
        request.config = &config;
        request.shots = 64;
    }
};

TEST(WaveLoop, CostWeightedAssemblyChargesWideLeavesMore)
{
    // Leaf slot cost is 2^width: a 12-spin leaf costs 16x a 8-spin one.
    AssemblyFixture narrow(10, 5); // leaves of width 8
    AssemblyFixture wide(14, 7);   // leaves of width 12
    EXPECT_EQ(leaf_slot_cost(narrow.tree, 0), 1LL << 8);
    EXPECT_EQ(leaf_slot_cost(wide.tree, 0), 1LL << 12);

    // Equal-width tenants: the cost budget reproduces equal-slot packing
    // (wave_size leaves per wave, round-robin).
    AssemblyFixture a(10, 11), b(10, 13);
    const auto even = assemble_wave({&a.request, &b.request},
                                    /*wave_size=*/4, /*rotate=*/0);
    EXPECT_EQ(even.size(), 4u);

    // Mixed widths: the wide leaf fits while the budget has room but
    // blows it on admission, so neither tenant can pack the wave — the
    // wide request cannot stall a deep tail of narrow work.
    const auto mixed = assemble_wave({&narrow.request, &wide.request},
                                     /*wave_size=*/4, /*rotate=*/0);
    int from_wide = 0, from_narrow = 0;
    for (const auto& slot : mixed) {
        if (slot.request == &wide.request)
            ++from_wide;
        else
            ++from_narrow;
    }
    EXPECT_EQ(from_wide, 1);    // admitted once, never packs
    EXPECT_GE(from_narrow, 1);  // round-robin served the narrow tenant
    EXPECT_LT(mixed.size(), 4u);

    // The wave_size slot cap is hard: three equal tenants at wave_size=2
    // pack exactly two slots (latency and queue memory stay bounded no
    // matter how many tenants are live).
    AssemblyFixture t1(10, 37), t2(10, 41), t3(10, 43);
    const auto capped_wave =
        assemble_wave({&t1.request, &t2.request, &t3.request},
                      /*wave_size=*/2, /*rotate=*/0);
    EXPECT_EQ(capped_wave.size(), 2u);

    // A solo wide tenant still fills its own waves: cost is normalized to
    // the cheapest PENDING leaf, so homogeneous wide work is not throttled.
    AssemblyFixture solo(14, 19);
    const auto alone =
        assemble_wave({&solo.request}, /*wave_size=*/4, /*rotate=*/0);
    EXPECT_EQ(alone.size(), solo.schedule.executed.size());

    // wave_share self-cap composes with cost weighting.
    AssemblyFixture capped(10, 23, /*wave_share=*/1);
    AssemblyFixture free_rider(10, 29);
    const auto shared = assemble_wave({&capped.request,
                                       &free_rider.request},
                                      /*wave_size=*/4, /*rotate=*/0);
    int from_capped = 0;
    for (const auto& slot : shared)
        if (slot.request == &capped.request)
            ++from_capped;
    EXPECT_EQ(from_capped, 1);
}

TEST(WaveLoop, DispatchNeverOvershootsARerankBoundary)
{
    // The determinism invariant itself: with rerank_interval R, assembly
    // stops a request at its boundary even when the wave has room, so the
    // re-ranked tail is independent of wave composition.
    AssemblyFixture fixture(12, 31);
    frozenqubits::DriverConfig config = fixture.config;
    config.rerank_interval = 1;
    fixture.schedule = make_schedule(fixture.model, fixture.tree, config);
    fixture.request.config = &config;
    arm_rerank(fixture.request);
    ASSERT_GE(fixture.schedule.executed.size(), 2u);

    const auto wave =
        assemble_wave({&fixture.request}, /*wave_size=*/8, /*rotate=*/0);
    EXPECT_EQ(wave.size(), 1u); // capped at the first boundary
    EXPECT_EQ(fixture.request.dispatched, 1u);
    EXPECT_EQ(fixture.request.dispatch_limit(), 1u);
}

} // namespace
