/**
 * @file
 * ExecutionEngine tests: the determinism guarantee (thread-pooled batches
 * bit-identical to serial), the compile-once template cache, and the
 * symmetry-pruning contract (mirror tasks are never executed).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include "common/error.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "engine/solve_tree.h"
#include "engine/template_cache.h"
#include "engine/thread_pool.h"
#include "frozenqubits/decoder.h"
#include "graph/generators.h"
#include "ising/ising_model.h"
#include "solve_test_util.h"

namespace {

using namespace fq;
using namespace fq::engine;
using fq::test::ba_model;
using fq::test::expect_matches_compile_oracle;
using fq::test::expect_solves_identical;

void
expect_stats_equal(const frozenqubits::CircuitStats& a,
                   const frozenqubits::CircuitStats& b)
{
    EXPECT_EQ(a.num_qubits, b.num_qubits);
    EXPECT_EQ(a.pre_routing_cx, b.pre_routing_cx);
    EXPECT_EQ(a.post_routing_cx, b.post_routing_cx);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_DOUBLE_EQ(a.duration_ns, b.duration_ns);
    EXPECT_DOUBLE_EQ(a.eps, b.eps);
    EXPECT_DOUBLE_EQ(a.angles.gamma, b.angles.gamma);
    EXPECT_DOUBLE_EQ(a.angles.beta, b.angles.beta);
    EXPECT_DOUBLE_EQ(a.ev_ideal, b.ev_ideal);
    EXPECT_DOUBLE_EQ(a.ev_noisy, b.ev_noisy);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);

    constexpr int kCount = 1000;
    std::vector<std::atomic<int>> touched(kCount);
    pool.for_each_index(kCount, [&](int index, int worker) {
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, 4);
        touched[static_cast<std::size_t>(index)].fetch_add(1);
    });
    for (const auto& t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, PropagatesTaskExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.for_each_index(
                     8,
                     [](int index, int) {
                         if (index >= 4)
                             throw std::runtime_error("task failed");
                     }),
                 std::runtime_error);
    // The pool must survive a failed batch.
    int sum = 0;
    std::mutex m;
    pool.for_each_index(4, [&](int index, int) {
        std::lock_guard<std::mutex> lock(m);
        sum += index;
    });
    EXPECT_EQ(sum, 6);
}

TEST(RngStreams, SubproblemStreamsAreStableAndDistinct)
{
    const auto a = subproblem_stream_seed(7, 0);
    EXPECT_EQ(a, subproblem_stream_seed(7, 0));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 64; ++i)
        seeds.insert(subproblem_stream_seed(7, i));
    EXPECT_EQ(seeds.size(), 64u);
    EXPECT_NE(subproblem_stream_seed(7, 1), subproblem_stream_seed(8, 1));
}

TEST(ExecutionEngine, ParallelReportBitIdenticalToSerial)
{
    // The acceptance contract: threads=4 and threads=1 produce identical
    // Reports (EV fields exact, integer stats exact) on a 12-spin BA
    // instance with m=3 (4 executed sub-circuits).
    const auto model = ba_model(12, 1, 5);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;

    ExecutionEngine serial(1);
    ExecutionEngine parallel(4);
    const auto a = serial.run(model, dev, config);
    const auto b = parallel.run(model, dev, config);

    EXPECT_EQ(a.hotspots, b.hotspots);
    EXPECT_EQ(a.num_subproblems, b.num_subproblems);
    EXPECT_EQ(a.num_executed, b.num_executed);
    expect_stats_equal(a.baseline, b.baseline);
    ASSERT_EQ(a.executed.size(), b.executed.size());
    for (std::size_t k = 0; k < a.executed.size(); ++k)
        expect_stats_equal(a.executed[k], b.executed[k]);
    EXPECT_DOUBLE_EQ(a.ev_ideal_fq, b.ev_ideal_fq);
    EXPECT_DOUBLE_EQ(a.ev_noisy_fq, b.ev_noisy_fq);
    EXPECT_DOUBLE_EQ(a.arg_baseline, b.arg_baseline);
    EXPECT_DOUBLE_EQ(a.arg_fq, b.arg_fq);
}

TEST(ExecutionEngine, ParallelSampledSolveBitIdenticalToSerial)
{
    // Per-sub-problem RNG streams derived from (seed, index) make even the
    // SAMPLED path schedule-independent: identical histograms, not just
    // statistically-equivalent ones.
    const auto model = ba_model(10, 1, 9);
    device::Device dev;
    dev.topology = device::make_grid(3, 4);
    dev.name = "grid-3x4-test";
    dev.calibration =
        device::Calibration::uniform(dev.topology, 1e-3, 5e-3, 500.0);

    frozenqubits::DriverConfig config;
    config.num_freeze = 2;

    ExecutionEngine serial(1);
    ExecutionEngine parallel(4);
    const auto a = serial.solve(model, dev, config, 2048, 33);
    const auto b = parallel.solve(model, dev, config, 2048, 33);

    EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
    EXPECT_EQ(a.best_assignment, b.best_assignment);
    EXPECT_EQ(a.from_subproblem, b.from_subproblem);
    ASSERT_EQ(a.distributions.size(), b.distributions.size());
    for (std::size_t s = 0; s < a.distributions.size(); ++s)
        EXPECT_EQ(a.distributions[s].histogram(),
                  b.distributions[s].histogram());
}

TEST(ExecutionEngine, TemplateCompiledOnceAndHitOnSiblings)
{
    const auto model = ba_model(12, 1, 5);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;

    ExecutionEngine eng(2);
    const auto report = eng.run(model, dev, config);
    ASSERT_EQ(report.num_executed, 2);

    // One transpiler run serves both executed sub-circuits: the second is
    // an RZ-angle edit of the compiled template, never a fresh compile.
    const auto& diag = eng.last_diagnostics();
    EXPECT_FALSE(diag.template_cache_hit); // first run must compile
    EXPECT_EQ(diag.template_edits, 1);
    EXPECT_GT(report.executed[0].compile_time_ms, 0.0);
    EXPECT_EQ(report.executed[1].compile_time_ms, 0.0);

    const auto cache_after_first = eng.template_cache().stats();
    // Two structure-only transpiles through the family tier: the shared
    // sibling template and the baseline arm.
    EXPECT_EQ(cache_after_first.compiles, 0u);
    EXPECT_EQ(cache_after_first.family_structural_compiles, 2u);

    // A second run over the same structure is served from cache entirely.
    const auto again = eng.run(model, dev, config);
    EXPECT_TRUE(eng.last_diagnostics().template_cache_hit);
    EXPECT_EQ(again.baseline.compile_time_ms, 0.0);
    const auto cache_after_second = eng.template_cache().stats();
    EXPECT_EQ(cache_after_second.family_structural_compiles, 2u);
    EXPECT_GT(cache_after_second.family_hits,
              cache_after_first.family_hits);

    // Cached compiles must not change any result.
    EXPECT_DOUBLE_EQ(report.arg_fq, again.arg_fq);
    EXPECT_DOUBLE_EQ(report.arg_baseline, again.arg_baseline);
}

TEST(ExecutionEngine, MirrorPrunedTasksAreNeverExecuted)
{
    const auto model = ba_model(12, 1, 7); // h == 0: pruning applies
    ASSERT_TRUE(model.has_zero_linear_terms());
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;

    ExecutionEngine eng(4);
    const auto report = eng.run(model, dev, config);
    const auto& diag = eng.last_diagnostics();

    EXPECT_EQ(report.num_subproblems, 8);
    EXPECT_EQ(report.num_executed, 4); // 2^{m-1}
    EXPECT_EQ(diag.mirrors_inferred, 4);

    // Executed and pruned index sets partition [0, 2^m) and are disjoint:
    // a pruned mirror is recovered by bit flipping, never run.
    const std::set<int> executed(diag.executed_subproblems.begin(),
                                 diag.executed_subproblems.end());
    const std::set<int> pruned(diag.pruned_subproblems.begin(),
                               diag.pruned_subproblems.end());
    EXPECT_EQ(executed.size(), 4u);
    EXPECT_EQ(pruned.size(), 4u);
    std::set<int> overlap;
    std::set_intersection(executed.begin(), executed.end(), pruned.begin(),
                          pruned.end(),
                          std::inserter(overlap, overlap.begin()));
    EXPECT_TRUE(overlap.empty());
    std::set<int> all;
    std::set_union(executed.begin(), executed.end(), pruned.begin(),
                   pruned.end(), std::inserter(all, all.begin()));
    EXPECT_EQ(all.size(), 8u);
}

TEST(ExecutionEngine, CacheDistinguishesLinearZeroPatterns)
{
    // Same quadratic topology, different h zero-patterns: without
    // keep_zero_linear_rz the builder emits RZs only for nonzero h_i, so a
    // shared engine must NOT serve one model's compiled baseline for the
    // other (regression: the cache key once ignored linear terms).
    const auto zero_h = ba_model(10, 1, 21); // Max-Cut: all h == 0
    ASSERT_TRUE(zero_h.has_zero_linear_terms());
    auto with_h = zero_h;
    for (int i = 0; i < with_h.num_spins(); ++i)
        with_h.set_linear(i, 0.5);

    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;

    ExecutionEngine shared(1);
    const auto a = shared.evaluate(zero_h, dev, config);
    const auto b = shared.evaluate(with_h, dev, config);

    ExecutionEngine fresh(1);
    const auto b_fresh = fresh.evaluate(with_h, dev, config);
    expect_stats_equal(b, b_fresh);
    EXPECT_EQ(shared.template_cache().stats().family_structural_compiles,
              2u);
    (void)a;
}

TEST(ExecutionEngine, CacheDistinguishesDevicesStructurally)
{
    // Two hand-built devices aliasing on (name, qubit count) but with
    // different coupling maps must never be served each other's compiled
    // circuits by a shared engine (regression: the cache key once hashed
    // only the device name and width).
    const auto model = ba_model(10, 1, 13);
    frozenqubits::DriverConfig config;

    device::Device a;
    a.topology = device::make_grid(2, 6);
    a.name = "grid";
    a.calibration =
        device::Calibration::uniform(a.topology, 1e-3, 5e-3, 500.0);
    device::Device b;
    b.topology = device::make_grid(3, 4); // same 12 qubits, different map
    b.name = "grid";
    b.calibration =
        device::Calibration::uniform(b.topology, 1e-3, 5e-3, 500.0);

    ExecutionEngine shared(1);
    const auto ra = shared.evaluate(model, a, config);
    const auto rb = shared.evaluate(model, b, config);
    EXPECT_EQ(shared.template_cache().stats().family_structural_compiles,
              2u);

    ExecutionEngine fresh(1);
    expect_stats_equal(rb, fresh.evaluate(model, b, config));
    (void)ra;
}

TEST(ExecutionEngine, BaselineArmMatchesCompileOracleOnEveryDevice)
{
    // The baseline arm resolves its template through the family tier's
    // structure-only compile; on every catalog device it must report what
    // a direct compile of the angle-carrying circuit reports. Both linear
    // patterns run: with h == 0 the builder omits every linear RZ.
    const auto zero_h = ba_model(12, 2, 5);
    ASSERT_TRUE(zero_h.has_zero_linear_terms());
    auto with_h = zero_h;
    for (int i = 0; i < with_h.num_spins(); i += 2)
        with_h.set_linear(i, 0.5);
    frozenqubits::DriverConfig config;
    qaoa::BuildOptions build;
    build.num_layers = 1;

    for (const auto& name : device::ibm_device_names()) {
        SCOPED_TRACE(name);
        const auto dev = device::make_device(name);
        ExecutionEngine eng(1);
        for (const auto& model : {zero_h, with_h}) {
            const auto cold = eng.evaluate(model, dev, config);
            expect_matches_compile_oracle(cold, model, dev, config, build);
            const auto warm = eng.evaluate(model, dev, config);
            expect_stats_equal(cold, warm);
            EXPECT_EQ(warm.compile_time_ms, 0.0);
        }
    }
}

TEST(ExecutionEngine, PartialExecutionRunsExactlyTheBudget)
{
    // The budgeted-execution contract: max_circuits = B < 2^{m-1} executes
    // exactly B leaf circuits, best-first, and any thread count is
    // bit-identical to serial (Report/SampledSolve acceptance).
    const auto model = ba_model(12, 1, 5);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;   // 4 canonical leaves
    config.max_circuits = 2; // B < 2^{m-1}

    ExecutionEngine serial(1);
    ExecutionEngine parallel(4);
    const auto a = serial.solve(model, dev, config, 2048, 33);
    const auto b = parallel.solve(model, dev, config, 2048, 33);

    EXPECT_EQ(a.leaves_total, 4);
    EXPECT_EQ(a.leaves_executed, 2);
    EXPECT_EQ(serial.last_diagnostics().tasks_executed, 2);
    EXPECT_EQ(serial.last_diagnostics().leaves_beyond_budget, 2);
    EXPECT_TRUE(serial.last_diagnostics().scheduler_scored);
    // Exactly B executed distributions, each fully sampled.
    ASSERT_EQ(a.distributions.size(), 2u);
    for (const auto& d : a.distributions)
        EXPECT_EQ(d.total_shots(), 2048u);
    // Anytime trace: presolve point + one per executed circuit, with a
    // monotonically non-increasing incumbent.
    ASSERT_EQ(a.anytime.size(), 3u);
    EXPECT_EQ(a.anytime.front().circuits, 0);
    for (std::size_t p = 1; p < a.anytime.size(); ++p) {
        EXPECT_EQ(a.anytime[p].circuits, static_cast<int>(p));
        EXPECT_LE(a.anytime[p].incumbent_cost,
                  a.anytime[p - 1].incumbent_cost);
    }
    expect_solves_identical(a, b);
}

TEST(ExecutionEngine, RecursiveDepth2BitIdenticalAcrossThreads)
{
    // Depth-2 recursion: the root's 2^m children are re-frozen (mirror
    // pruning moves to the terminal level), and the determinism guarantee
    // must hold through the deeper tree — with and without a budget.
    const auto model = ba_model(12, 1, 9);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.max_depth = 2;

    ExecutionEngine serial(1);
    ExecutionEngine parallel(4);
    const auto a = serial.solve(model, dev, config, 1024, 17);
    const auto b = parallel.solve(model, dev, config, 1024, 17);
    EXPECT_EQ(serial.last_diagnostics().tree_depth, 2);
    EXPECT_GT(serial.last_diagnostics().leaves_total, 4);
    expect_solves_identical(a, b);

    config.max_circuits = 5; // partial execution through the deep tree
    const auto c = serial.solve(model, dev, config, 1024, 17);
    const auto d = parallel.solve(model, dev, config, 1024, 17);
    EXPECT_EQ(c.leaves_executed, 5);
    expect_solves_identical(c, d);
    // The budgeted run solves a subset of the full run's leaves; its best
    // decode can therefore never beat the full run's.
    EXPECT_GE(c.best_cost, a.best_cost);
}

TEST(ExecutionEngine, HybridPartitionSolveIsValidAndDeterministic)
{
    // Partition nodes drop cut couplings during the quantum phase; the
    // decode must still produce a full valid assignment whose reported
    // cost matches re-evaluation under the original Hamiltonian.
    const auto model = ba_model(16, 1, 21);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.max_depth = 2;
    config.partition_width = 12; // root (16 spins) gets bisected

    ExecutionEngine serial(1);
    ExecutionEngine parallel(4);
    const auto a = serial.solve(model, dev, config, 1024, 3);
    const auto b = parallel.solve(model, dev, config, 1024, 3);

    ASSERT_EQ(a.best_assignment.size(),
              static_cast<std::size_t>(model.num_spins()));
    for (auto z : a.best_assignment)
        EXPECT_TRUE(z == 1 || z == -1);
    EXPECT_DOUBLE_EQ(a.best_cost, model.evaluate(a.best_assignment));
    expect_solves_identical(a, b);
}

TEST(Reducer, ReportWithNoExecutedTasksFailsLoudly)
{
    // Regression: an all-skipped (or empty) execution used to flow +inf
    // EVs into the report and silently produce a bogus approximation-ratio
    // gap; it must throw instead of looking like a solved instance.
    ExecutionPlan plan; // no tasks
    frozenqubits::CircuitStats baseline;
    baseline.ev_ideal = -1.0;
    baseline.ev_noisy = -0.5;
    EXPECT_THROW(reduce_report(plan, baseline, {}), fq::Error);
}

TEST(ExecutionEngine, FacadeMatchesEngine)
{
    // run_pipeline is a facade over the engine; both paths must agree.
    const auto model = ba_model(12, 1, 11);
    const auto dev = device::make_device("ibm-hanoi");
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.threads = 2;

    ExecutionEngine eng(2);
    const auto a = eng.run(model, dev, config);
    const auto b = frozenqubits::run_pipeline(model, dev, config);
    EXPECT_EQ(a.hotspots, b.hotspots);
    EXPECT_DOUBLE_EQ(a.arg_baseline, b.arg_baseline);
    EXPECT_DOUBLE_EQ(a.arg_fq, b.arg_fq);
    expect_stats_equal(a.baseline, b.baseline);
}

TEST(ExecutionEngine, FamilyTierSolvesBitIdenticalAcrossThreadsAndWarmth)
{
    // The family tier only changes whether planning pays the structural
    // compile, never a leaf's program — so solves are bit-identical serial
    // or pooled, cold or warm.
    const auto model = ba_model(12, 1, 13);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;

    ExecutionEngine eng_serial(1), eng_pool(4);
    const auto a = eng_serial.solve(model, dev, config, 1024, 77);
    const auto b = eng_pool.solve(model, dev, config, 1024, 77);
    expect_solves_identical(a, b);

    // A repeat on the warm engine plans from the resident family — no
    // structural compile — with the result unchanged.
    const auto compiles =
        eng_pool.template_cache().stats().family_structural_compiles;
    const auto c = eng_pool.solve(model, dev, config, 1024, 77);
    expect_solves_identical(a, c);
    EXPECT_EQ(eng_pool.template_cache().stats().family_structural_compiles,
              compiles);
}

TEST(TemplateCache, FamilyByteAccountingExactAtEvictionBoundary)
{
    // Shared structure is charged ONCE per labeled variant, fused programs
    // are never charged (the cache does not keep them), and eviction
    // releases exactly what was charged — bytes() must reconcile with the
    // structure pool at every step.
    TemplateCache cache;
    const auto dev = device::make_device("ibm-montreal");
    transpiler::CompileOptions compile_opts;
    qaoa::BuildOptions build;

    const auto model_a = ba_model(10, 1, 41);
    const auto first = cache.get_or_bind(model_a, dev, compile_opts, build);
    EXPECT_EQ(first.tier, TemplateTier::Compile);
    auto stats = cache.stats();
    EXPECT_EQ(stats.structure_bytes, first.family->bytes());
    EXPECT_EQ(cache.bytes(), stats.structure_bytes);

    // Building a leaf's tables charges nothing.
    const auto program_a = cache.get_or_fuse(model_a, build);
    ASSERT_NE(program_a, nullptr);
    stats = cache.stats();
    EXPECT_EQ(stats.structure_bytes, first.family->bytes());
    EXPECT_EQ(cache.bytes(), stats.structure_bytes);

    // A second member of the same family: new tables, NO new structure.
    auto member = model_a;
    for (const auto& term : member.quadratic_terms())
        member.add_quadratic(term.i, term.j, 0.5);
    const auto second = cache.get_or_bind(member, dev, compile_opts, build);
    EXPECT_EQ(second.tier, TemplateTier::Bind);
    EXPECT_EQ(second.family.get(), first.family.get()); // shared structure
    const auto program_b = cache.get_or_fuse(member, build);
    ASSERT_NE(program_b, nullptr);
    stats = cache.stats();
    EXPECT_EQ(stats.structure_bytes, first.family->bytes()); // still once
    EXPECT_EQ(cache.bytes(), stats.structure_bytes);
    EXPECT_EQ(stats.family_binds, 2u);

    // Family eviction at the budget boundary: the reset drops the resident
    // variant and recharges EXACTLY the incoming structure's bytes.
    cache.set_family_byte_budget(1);
    const auto model_b = ba_model(8, 1, 43); // different structure
    const auto third = cache.get_or_bind(model_b, dev, compile_opts, build);
    EXPECT_EQ(third.tier, TemplateTier::Compile);
    stats = cache.stats();
    EXPECT_EQ(stats.family_evictions, 1u);
    EXPECT_EQ(stats.structure_bytes, third.family->bytes());
    EXPECT_EQ(cache.bytes(), stats.structure_bytes);

    const auto program_c = cache.get_or_fuse(model_b, build);
    ASSERT_NE(program_c, nullptr);
    stats = cache.stats();
    EXPECT_EQ(stats.family_binds, 3u);
    EXPECT_EQ(cache.bytes(), stats.structure_bytes);

    cache.clear();
    EXPECT_EQ(cache.bytes(), 0u);
    EXPECT_EQ(cache.stats().structure_bytes, 0u);
}

// --- One reducer: the Section 3.6 decode over mirror-completed 2^m
// distributions is the oracle for the streaming decode of flat trees.

struct FlatOracleCase
{
    const char* name;
    int freeze;
    bool real_valued; ///< uniform real J plus nonzero h (mirror pruning off)
    long long max_circuits;
    int threads;
};

ising::IsingModel
real_valued_model(int n, std::uint64_t seed)
{
    Rng rng(seed);
    const auto g = graph::barabasi_albert(n, 3, rng);
    ising::IsingModel model(n);
    for (const auto& e : g.edges())
        model.add_quadratic(e.u, e.v, rng.uniform(-1.0, 1.0));
    for (int i = 0; i < n; ++i)
        model.set_linear(i, rng.uniform(-0.5, 0.5));
    return model;
}

void
PrintTo(const FlatOracleCase& c, std::ostream* os)
{
    *os << c.name;
}

class FlatDecodeOracle : public ::testing::TestWithParam<FlatOracleCase>
{
};

TEST_P(FlatDecodeOracle, FlatDecodeMatchesDecodeBestOracle)
{
    const auto& param = GetParam();
    // The ±1 instance has optimal decodes in several leaves, so the
    // lowest-leaf tie-break is checked against decode_best's too.
    const auto model =
        param.real_valued ? real_valued_model(12, 21) : ba_model(12, 3, 3);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = param.freeze;
    config.max_circuits = param.max_circuits;
    constexpr std::uint64_t kSeed = 29;

    ExecutionEngine engine(param.threads);
    const auto solved = engine.solve(model, dev, config, 1024, kSeed);
    const auto& executed = engine.last_diagnostics().executed_subproblems;

    // Replan the same tree and rebuild the 2^m layout: each executed leaf
    // fills its own sub-problem, and its bit-flipped histogram fills every
    // mirror it covers (Section 3.7.2).
    TemplateCache cache;
    Rng rng(kSeed);
    const auto tree = build_solve_tree(model, dev, config, cache, rng);
    ASSERT_TRUE(tree.flat());
    const auto& root = tree.nodes.front();
    EXPECT_EQ(root.plan.tasks.size() < root.plan.subproblems.size(),
              !param.real_valued);
    const int width = model.num_spins() - param.freeze;
    std::vector<sim::Counts> distributions(root.plan.subproblems.size(),
                                           sim::Counts(width));
    ASSERT_EQ(executed.size(), solved.distributions.size());
    for (std::size_t k = 0; k < executed.size(); ++k) {
        const auto& leaf = tree.leaves[static_cast<std::size_t>(executed[k])];
        const auto& counts = solved.distributions[k];
        distributions[static_cast<std::size_t>(leaf.local_solve)] = counts;
        for (int mirror_node : leaf.mirror_nodes)
            distributions[static_cast<std::size_t>(
                tree.nodes[static_cast<std::size_t>(mirror_node)]
                    .local_solve)] = counts.flip_all_bits();
    }
    const auto oracle =
        frozenqubits::decode_best(model, root.plan.subproblems, distributions);

    EXPECT_EQ(oracle.cost, solved.best_quantum_cost);
    EXPECT_EQ(oracle.subproblem_index, solved.best_quantum_leaf);
    if (solved.from_subproblem >= 0)
        EXPECT_EQ(oracle.assignment, solved.best_assignment);
    else // the presolve incumbent strictly beat every quantum decode
        EXPECT_LT(solved.best_cost, oracle.cost);
}

INSTANTIATE_TEST_SUITE_P(
    Reducer, FlatDecodeOracle,
    ::testing::Values(FlatOracleCase{"ba3_freeze2_t1", 2, false, 0, 1},
                      FlatOracleCase{"ba3_freeze3_t4", 3, false, 0, 4},
                      FlatOracleCase{"ba3_freeze4_t1", 4, false, 0, 1},
                      FlatOracleCase{"ba3_freeze4_t4", 4, false, 0, 4},
                      FlatOracleCase{"real_freeze2_t4", 2, true, 0, 4},
                      FlatOracleCase{"real_freeze3_t1", 3, true, 0, 1},
                      FlatOracleCase{"ba3_freeze4_budget3_t4", 4, false, 3,
                                     4},
                      FlatOracleCase{"real_freeze3_budget2_t1", 3, true, 2,
                                     1}),
    [](const ::testing::TestParamInfo<FlatOracleCase>& info) {
        return std::string(info.param.name);
    });

} // namespace
