/**
 * @file
 * Tests for the FrozenQubits core — the paper's contribution. The central
 * properties (DESIGN.md Section 6):
 *   1. Table 2 freeze rules: H_sub(z) == H(z with z_k = s), exhaustively.
 *   2. 2^m sub-problems exactly partition the state space; the min over
 *      sub-problem minima equals the global minimum.
 *   3. Mirror sub-problems of a symmetric parent satisfy
 *      H_{-s}(z) == H_{+s}(-z); pruning halves the executed circuits.
 *   4. Decoding: offsets are exact, lifted outcomes evaluate identically
 *      under sub- and original Hamiltonians.
 *   5. Template editing reproduces the from-scratch compiled circuit.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.h"
#include "device/catalog.h"
#include "engine/plan.h"
#include "frozenqubits/decoder.h"
#include "frozenqubits/driver.h"
#include "frozenqubits/freeze.h"
#include "frozenqubits/hotspot.h"
#include "frozenqubits/template_editor.h"
#include "graph/generators.h"
#include "ising/exact_solver.h"
#include "ising/symmetry.h"
#include "qaoa/qaoa_builder.h"
#include "sim/statevector.h"
#include "solve_test_util.h"

namespace {

using namespace fq;
using namespace fq::frozenqubits;

ising::IsingModel
random_model(int n, double h_scale, Rng& rng, double edge_prob = 0.5)
{
    ising::IsingModel m(n);
    for (int i = 0; i < n; ++i)
        if (h_scale > 0.0)
            m.set_linear(i, h_scale * rng.normal());
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (rng.bernoulli(edge_prob))
                m.add_quadratic(i, j, rng.normal());
    m.set_offset(rng.normal());
    return m;
}

TEST(Hotspot, MaxDegreePicksTheHub)
{
    const auto star_model =
        ising::IsingModel::from_graph(graph::star(8));
    Rng rng(1);
    const auto picks =
        select_hotspots(star_model, 1, HotspotPolicy::MaxDegree, rng);
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], 0);
}

TEST(Hotspot, IterativeSelectionRecomputesDegrees)
{
    // Two separate stars: after freezing hub A the next pick must be hub B,
    // not one of A's spokes.
    graph::Graph g(10);
    for (int v = 1; v <= 4; ++v)
        g.add_edge(0, v); // hub 0, degree 4
    for (int v = 6; v <= 9; ++v)
        g.add_edge(5, v); // hub 5, degree 4
    const auto m = ising::IsingModel::from_graph(g);
    Rng rng(2);
    const auto picks = select_hotspots(m, 2, HotspotPolicy::MaxDegree, rng);
    const std::set<int> expected{0, 5};
    EXPECT_EQ(std::set<int>(picks.begin(), picks.end()), expected);
}

TEST(Hotspot, WeightedPolicyFollowsCouplingMagnitude)
{
    ising::IsingModel m(4);
    m.add_quadratic(0, 1, 0.1);
    m.add_quadratic(0, 2, 0.1);
    m.add_quadratic(0, 3, 0.1); // node 0: degree 3, weight 0.3
    m.add_quadratic(1, 2, 5.0); // nodes 1,2: degree 2, weight >= 5
    Rng rng(3);
    EXPECT_EQ(select_hotspots(m, 1, HotspotPolicy::MaxDegree, rng)[0], 0);
    const int weighted =
        select_hotspots(m, 1, HotspotPolicy::WeightedDegree, rng)[0];
    EXPECT_TRUE(weighted == 1 || weighted == 2);
}

TEST(Hotspot, RandomPolicyIsDistinct)
{
    Rng rng(4);
    const auto m = random_model(12, 0.0, rng);
    const auto picks = select_hotspots(m, 5, HotspotPolicy::Random, rng);
    EXPECT_EQ(std::set<int>(picks.begin(), picks.end()).size(), 5u);
}

TEST(Hotspot, DroppedEdgeCount)
{
    const auto m = ising::IsingModel::from_graph(graph::star(6));
    EXPECT_EQ(dropped_edge_count(m, {0}), 5);
    EXPECT_EQ(dropped_edge_count(m, {1}), 1);
    EXPECT_EQ(dropped_edge_count(m, {0, 1}), 5);
}

/** Exhaustive Table 2 verification over random instances. */
class FreezeInvariant : public ::testing::TestWithParam<int>
{
};

TEST_P(FreezeInvariant, SubHamiltonianMatchesSubstitution)
{
    Rng rng(100 + GetParam());
    const int n = 4 + static_cast<int>(rng.uniform_int(std::uint64_t(5)));
    const auto m = random_model(n, rng.bernoulli(0.5) ? 0.8 : 0.0, rng);

    const int k = static_cast<int>(rng.uniform_int(std::uint64_t(n)));
    for (int value : {+1, -1}) {
        const auto sub = freeze_spin(as_subproblem(m), k, value);
        ASSERT_EQ(sub.model.num_spins(), n - 1);

        // Every assignment of the survivors must cost exactly what the
        // original costs with z_k pinned (Equations (2)-(3)).
        for (std::uint64_t s = 0; s < (1ull << (n - 1)); ++s) {
            const auto sub_z = ising::state_to_spins(s, n - 1);
            ising::SpinVector full(n);
            for (int i = 0; i < n - 1; ++i)
                full[sub.original_of[i]] = sub_z[i];
            full[k] = static_cast<std::int8_t>(value);
            ASSERT_NEAR(sub.model.evaluate(sub_z), m.evaluate(full), 1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, FreezeInvariant,
                         ::testing::Range(0, 10));

TEST(Freeze, CoefficientRulesOnHandExample)
{
    // Figure 5's four-spin example: freeze z3 of a model with h = 0.
    ising::IsingModel m(4);
    m.add_quadratic(0, 1, 1.0);
    m.add_quadratic(0, 2, 1.0);
    m.add_quadratic(1, 2, 1.0);
    m.add_quadratic(0, 3, 1.0);
    m.add_quadratic(1, 3, -1.0);

    const auto plus = freeze_spin(as_subproblem(m), 3, +1);
    // h'_0 = J_03 = 1, h'_1 = J_13 = -1, h'_2 = 0; offset unchanged.
    EXPECT_DOUBLE_EQ(plus.model.linear(0), 1.0);
    EXPECT_DOUBLE_EQ(plus.model.linear(1), -1.0);
    EXPECT_DOUBLE_EQ(plus.model.linear(2), 0.0);
    EXPECT_DOUBLE_EQ(plus.model.offset(), 0.0);
    EXPECT_EQ(plus.model.num_quadratic_terms(), 3);

    const auto minus = freeze_spin(as_subproblem(m), 3, -1);
    EXPECT_DOUBLE_EQ(minus.model.linear(0), -1.0);
    EXPECT_DOUBLE_EQ(minus.model.linear(1), 1.0);
}

TEST(Freeze, OffsetAbsorbsLinearTerm)
{
    ising::IsingModel m(3);
    m.set_linear(1, 0.75);
    m.add_quadratic(0, 2, 1.0);
    m.set_offset(2.0);
    const auto plus = freeze_spin(as_subproblem(m), 1, +1);
    EXPECT_DOUBLE_EQ(plus.model.offset(), 2.75);
    const auto minus = freeze_spin(as_subproblem(m), 1, -1);
    EXPECT_DOUBLE_EQ(minus.model.offset(), 1.25);
}

TEST(Freeze, FreezeAllPartitionsStateSpace)
{
    Rng rng(5);
    const auto m = random_model(8, 0.5, rng);
    const std::vector<int> spins{2, 5};
    const auto subs = freeze_all(m, spins);
    ASSERT_EQ(subs.size(), 4u);

    // Union check: lift every sub-space state; together they must cover
    // all 2^8 original states exactly once with matching costs.
    std::set<std::uint64_t> covered;
    for (const auto& sub : subs) {
        for (std::uint64_t s = 0; s < 64; ++s) {
            const auto full = lift_state(sub, s, 8);
            const auto full_state = ising::spins_to_state(full);
            EXPECT_TRUE(covered.insert(full_state).second)
                << "state covered twice";
            EXPECT_NEAR(sub.model.evaluate_state(s),
                        m.evaluate(full), 1e-9);
        }
    }
    EXPECT_EQ(covered.size(), 256u);
}

TEST(Freeze, MinOverSubproblemsIsGlobalMin)
{
    Rng rng(6);
    for (int trial = 0; trial < 5; ++trial) {
        const auto m = random_model(9, trial % 2 ? 0.7 : 0.0, rng);
        const auto global = ising::solve_exact(m);

        Rng sel_rng(trial);
        const auto hotspots =
            select_hotspots(m, 2, HotspotPolicy::MaxDegree, sel_rng);
        const auto subs = freeze_all(m, hotspots);
        double best = 1e300;
        for (const auto& sub : subs)
            best = std::min(best,
                            ising::solve_exact(sub.model).min_cost);
        EXPECT_NEAR(best, global.min_cost, 1e-9) << "trial " << trial;
    }
}

TEST(Freeze, MirrorPairProperty)
{
    // For a zero-linear parent, the +s and -s sub-problems are mirrors:
    // H_{-s}(z) == H_{+s}(-z) — Section 3.7.2.
    Rng rng(7);
    auto g = graph::barabasi_albert(9, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto m = ising::IsingModel::from_graph(g);
    ASSERT_TRUE(m.has_zero_linear_terms());

    const auto subs = freeze_all(m, {0, 4});
    ASSERT_EQ(subs.size(), 4u);
    // Enumeration order: assignment bits (bit b = spin b value), so the
    // mirror of index i is ~i & 0b11.
    for (int i = 0; i < 4; ++i) {
        const auto& a = subs[i].model;
        const auto& b = subs[3 - i].model;
        for (std::uint64_t s = 0; s < 128; ++s) {
            const auto z = ising::state_to_spins(s, 7);
            ASSERT_NEAR(b.evaluate(z), a.evaluate(ising::flip_all(z)),
                        1e-9);
        }
    }
}

TEST(Freeze, PlanPrunesHalfForSymmetricParents)
{
    Rng rng(8);
    auto g = graph::barabasi_albert(10, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto symmetric = ising::IsingModel::from_graph(g);

    for (int m_freeze : {1, 2, 3}) {
        const auto plan = plan_executions(symmetric, m_freeze);
        EXPECT_EQ(static_cast<int>(plan.size()), 1 << (m_freeze - 1));
        std::set<int> covered;
        for (const auto& entry : plan) {
            covered.insert(entry.solve);
            EXPECT_EQ(entry.mirrors.size(), 1u);
            covered.insert(entry.mirrors[0]);
            EXPECT_EQ(entry.mirrors[0],
                      ((1 << m_freeze) - 1) ^ entry.solve);
        }
        EXPECT_EQ(static_cast<int>(covered.size()), 1 << m_freeze);
    }
}

TEST(Freeze, PlanKeepsAllForAsymmetricParents)
{
    Rng rng(9);
    const auto m = random_model(8, 1.0, rng);
    ASSERT_FALSE(m.has_zero_linear_terms());
    const auto plan = plan_executions(m, 2);
    EXPECT_EQ(plan.size(), 4u);
    for (const auto& entry : plan)
        EXPECT_TRUE(entry.mirrors.empty());
}

TEST(Freeze, PruningCanBeDisabled)
{
    ising::IsingModel m(4);
    m.add_quadratic(0, 1, 1.0);
    const auto plan = plan_executions(m, 2, /*enable_pruning=*/false);
    EXPECT_EQ(plan.size(), 4u);
}

TEST(Freeze, RejectsFreezingUnknownSpin)
{
    ising::IsingModel m(4);
    m.add_quadratic(0, 1, 1.0);
    auto sub = freeze_spin(as_subproblem(m), 2, +1);
    EXPECT_THROW(freeze_spin(sub, 2, -1), Error); // already frozen
    EXPECT_THROW(freeze_spin(as_subproblem(m), 1, 0), Error); // bad value
}

TEST(Decoder, LiftInsertsFrozenValues)
{
    ising::IsingModel m(5);
    m.add_quadratic(0, 4, 1.0);
    auto sub = freeze_spin(as_subproblem(m), 2, -1);
    sub = freeze_spin(sub, 0, +1);

    const ising::SpinVector sub_z{-1, +1, -1}; // spins 1, 3, 4
    const auto full = lift_assignment(sub, sub_z);
    ASSERT_EQ(full.size(), 5u);
    EXPECT_EQ(full[0], +1);
    EXPECT_EQ(full[1], -1);
    EXPECT_EQ(full[2], -1);
    EXPECT_EQ(full[3], +1);
    EXPECT_EQ(full[4], -1);
}

TEST(Decoder, ConsistencyErrorIsZero)
{
    Rng rng(10);
    const auto m = random_model(8, 0.6, rng);
    const auto sub = freeze_spin(as_subproblem(m), 3, -1);

    sim::Counts counts(7);
    for (int k = 0; k < 40; ++k)
        counts.add(rng() & 0x7f);
    EXPECT_NEAR(decoding_consistency_error(m, sub, counts), 0.0, 1e-9);
}

TEST(Decoder, BestPicksGlobalMinimumAcrossSubspaces)
{
    Rng rng(11);
    const auto m = random_model(8, 0.0, rng);
    const auto global = ising::solve_exact(m);

    const auto subs = freeze_all(m, {1, 6});
    // Feed each sub-problem its own exhaustive distribution.
    std::vector<sim::Counts> dists;
    for (const auto& sub : subs) {
        sim::Counts c(6);
        for (std::uint64_t s = 0; s < 64; ++s)
            c.add(s);
        dists.push_back(c);
        (void)sub;
    }
    const auto decoded = decode_best(m, subs, dists);
    EXPECT_NEAR(decoded.cost, global.min_cost, 1e-9);
    EXPECT_NEAR(m.evaluate(decoded.assignment), global.min_cost, 1e-9);
}

TEST(TemplateEditor, EditedCircuitMatchesFreshBuild)
{
    // Build + bind the edited template and a from-scratch circuit for the
    // sibling sub-problem; they must be the same unitary.
    Rng rng(12);
    auto g = graph::barabasi_albert(7, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto m = ising::IsingModel::from_graph(g);

    const auto subs = freeze_all(m, {select_hotspots(
        m, 1, HotspotPolicy::MaxDegree, rng)[0]});
    ASSERT_TRUE(templates_compatible(subs[0].model, subs[1].model));

    qaoa::BuildOptions opts;
    opts.keep_zero_linear_rz = true;
    opts.include_measurements = false;
    const auto template_circuit =
        qaoa::build_qaoa_circuit(subs[0].model, opts);
    const auto edited = edit_template(template_circuit, subs[1].model);
    const auto fresh = qaoa::build_qaoa_circuit(subs[1].model, opts);

    const std::vector<double> gammas{0.37}, betas{0.21};
    const auto a = sim::run_circuit(edited.bind(gammas, betas));
    const auto b = sim::run_circuit(fresh.bind(gammas, betas));
    EXPECT_NEAR(a.overlap(b), 1.0, 1e-10);
}

TEST(TemplateEditor, CompatibilityChecks)
{
    ising::IsingModel a(3), b(3), c(4);
    a.add_quadratic(0, 1, 1.0);
    b.add_quadratic(0, 1, -2.0); // same structure, different coefficient
    c.add_quadratic(0, 1, 1.0);
    EXPECT_TRUE(templates_compatible(a, b));
    EXPECT_FALSE(templates_compatible(a, c)); // width differs
    b.add_quadratic(1, 2, 1.0);
    EXPECT_FALSE(templates_compatible(a, b)); // term list differs
}

TEST(Driver, ReportStructureForM2)
{
    Rng rng(13);
    auto g = graph::barabasi_albert(12, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const auto dev = device::make_device("ibm-montreal");

    DriverConfig config;
    config.num_freeze = 2;
    const auto report = run_pipeline(model, dev, config);

    EXPECT_EQ(report.num_subproblems, 4);
    EXPECT_EQ(report.num_executed, 2); // symmetry pruning
    ASSERT_EQ(report.executed.size(), 2u);
    EXPECT_EQ(report.hotspots.size(), 2u);

    for (const auto& sub : report.executed) {
        EXPECT_EQ(sub.num_qubits, 10);
        // Fewer CNOTs and shallower than baseline — the core claim.
        EXPECT_LT(sub.post_routing_cx, report.baseline.post_routing_cx);
        EXPECT_LE(sub.depth, report.baseline.depth);
        EXPECT_GT(sub.eps, report.baseline.eps);
    }
    // FrozenQubits must not lose fidelity on a power-law instance.
    EXPECT_LE(report.arg_fq, report.arg_baseline + 1e-9);
}

TEST(Driver, SymmetryPruningDoesNotChangeAnswer)
{
    Rng rng(14);
    auto g = graph::barabasi_albert(10, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const auto dev = device::make_device("ibm-hanoi");

    DriverConfig with;
    with.num_freeze = 2;
    DriverConfig without = with;
    without.symmetry_pruning = false;

    const auto a = run_pipeline(model, dev, with);
    const auto b = run_pipeline(model, dev, without);
    EXPECT_EQ(a.num_executed, 2);
    EXPECT_EQ(b.num_executed, 4);
    EXPECT_NEAR(a.ev_ideal_fq, b.ev_ideal_fq, 1e-6);
    EXPECT_NEAR(a.arg_fq, b.arg_fq, 1e-6);
}

TEST(Driver, TemplateEditingMatchesFullCompiles)
{
    Rng rng(15);
    auto g = graph::barabasi_albert(10, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const auto dev = device::make_device("ibm-cairo");

    DriverConfig config;
    config.num_freeze = 2;
    const auto report = run_pipeline(model, dev, config);

    // Every executed sibling reports exactly what compiling its own circuit
    // from scratch reports, though only one shared template was compiled.
    const auto subs = freeze_all(model, report.hotspots);
    const auto entries = plan_executions(model, config.num_freeze,
                                         config.symmetry_pruning);
    ASSERT_EQ(report.executed.size(), entries.size());
    for (std::size_t k = 0; k < entries.size(); ++k) {
        SCOPED_TRACE(k);
        test::expect_matches_compile_oracle(
            report.executed[k],
            subs[static_cast<std::size_t>(entries[k].solve)].model, dev,
            config, engine::default_build_options());
    }
    qaoa::BuildOptions baseline_build;
    baseline_build.num_layers = 1;
    test::expect_matches_compile_oracle(report.baseline, model, dev, config,
                                        baseline_build);
}

TEST(Driver, SampledSolveFindsOptimumUnderLowNoise)
{
    Rng rng(16);
    auto g = graph::barabasi_albert(10, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const auto exact = ising::solve_exact(model);

    // Near-ideal small device so QAOA sampling plus decoding can reach the
    // exact ground state.
    device::Device dev;
    dev.topology = device::make_grid(3, 4);
    dev.name = "grid-3x4-clean";
    dev.calibration =
        device::Calibration::uniform(dev.topology, 1e-5, 1e-4, 5000.0);

    DriverConfig config;
    config.num_freeze = 1;
    const auto solved =
        solve_with_sampling(model, dev, config, 4096, 17);

    EXPECT_NEAR(solved.best_cost, exact.min_cost, 1e-9);
    EXPECT_NEAR(model.evaluate(solved.best_assignment), solved.best_cost,
                1e-9);
    // One executed leaf; its mirror sub-space is decoded by flipping the
    // same histogram, never sampled.
    ASSERT_EQ(solved.distributions.size(), 1u);
    EXPECT_EQ(solved.distributions[0].total_shots(), 4096u);
}

TEST(Driver, ImprovementFactorGuardsDivision)
{
    Report r;
    r.arg_baseline = 50.0;
    r.arg_fq = 0.0;
    EXPECT_DOUBLE_EQ(r.improvement(1e-3), 50000.0);
    r.arg_fq = 10.0;
    EXPECT_DOUBLE_EQ(r.improvement(), 5.0);
}

} // namespace
