/**
 * @file
 * Cross-module property suites: parameterized sweeps of the library's
 * invariants over graph classes, devices, and random instances — the
 * "does the whole stack commute" checks that single-module tests miss.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bitops.h"
#include "device/catalog.h"
#include "frozenqubits/decoder.h"
#include "frozenqubits/driver.h"
#include "frozenqubits/freeze.h"
#include "frozenqubits/hotspot.h"
#include "frozenqubits/template_editor.h"
#include "graph/generators.h"
#include "ising/exact_solver.h"
#include "ising/qubo.h"
#include "ising/symmetry.h"
#include "qaoa/analytic_p1.h"
#include "qaoa/qaoa_builder.h"
#include "sim/noise_model.h"
#include "sim/statevector.h"
#include "transpiler/pipeline.h"
#include "transpiler/router.h"

namespace {

using namespace fq;

/** The benchmark graph classes, generated per index. */
graph::Graph
graph_of_class(int which, int n, Rng& rng)
{
    switch (which) {
      case 0:
        return graph::barabasi_albert(n, 1, rng);
      case 1:
        return graph::barabasi_albert(n, 2, rng);
      case 2:
        return graph::random_regular(n - (n % 2), 3, rng);
      case 3:
        return graph::complete(n);
      case 4:
        return graph::star(n);
      default:
        return graph::path(n);
    }
}

constexpr const char* kClassNames[] = {"BA1", "BA2", "3reg", "SK",
                                       "star", "path"};

/** Freeze partition property across every graph class. */
class FreezeAcrossClasses : public ::testing::TestWithParam<int>
{
};

TEST_P(FreezeAcrossClasses, MinOverSubproblemsIsGlobalMin)
{
    const int which = GetParam();
    Rng rng(50 + which);
    auto g = graph_of_class(which, 10, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const auto exact = ising::solve_exact(model);

    const auto hotspots = frozenqubits::select_hotspots(
        model, 2, frozenqubits::HotspotPolicy::MaxDegree, rng);
    const auto subs = frozenqubits::freeze_all(model, hotspots);
    double best = 1e300;
    for (const auto& sub : subs)
        best = std::min(best, ising::solve_exact(sub.model).min_cost);
    EXPECT_NEAR(best, exact.min_cost, 1e-9) << kClassNames[which];
}

TEST_P(FreezeAcrossClasses, SymmetryPruningRecoversAllSubspaces)
{
    const int which = GetParam();
    Rng rng(60 + which);
    auto g = graph_of_class(which, 9, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);

    // Max-Cut models are flip-symmetric; the plan must pair every index.
    const auto plan = frozenqubits::plan_executions(model, 3);
    std::set<int> covered;
    for (const auto& entry : plan) {
        covered.insert(entry.solve);
        for (int m : entry.mirrors)
            covered.insert(m);
    }
    EXPECT_EQ(covered.size(), 8u) << kClassNames[which];
}

INSTANTIATE_TEST_SUITE_P(GraphClasses, FreezeAcrossClasses,
                         ::testing::Range(0, 6));

/** Analytic p=1 vs statevector over structured classes with fields. */
class AnalyticAcrossClasses : public ::testing::TestWithParam<int>
{
};

TEST_P(AnalyticAcrossClasses, EnergyMatchesStatevector)
{
    const int which = GetParam();
    Rng rng(70 + which);
    auto g = graph_of_class(which, 7, rng);
    graph::assign_random_pm1_weights(g, rng);
    auto model = ising::IsingModel::from_graph(g);
    // Add fields to exercise the h-dependent terms.
    for (int i = 0; i < model.num_spins(); ++i)
        if (rng.bernoulli(0.5))
            model.set_linear(i, rng.uniform(-1.0, 1.0));

    const qaoa::P1Angles angles{rng.uniform(0.1, 1.2),
                                rng.uniform(0.1, 1.2)};
    qaoa::BuildOptions opts;
    opts.include_measurements = false;
    const auto circuit = qaoa::build_qaoa_circuit(model, opts)
                             .bind({angles.gamma}, {angles.beta});
    const auto sv = sim::run_circuit(circuit);
    EXPECT_NEAR(qaoa::evaluate_p1_energy(model, angles),
                sv.expectation_ising(model), 1e-8)
        << kClassNames[which];
}

INSTANTIATE_TEST_SUITE_P(GraphClasses, AnalyticAcrossClasses,
                         ::testing::Range(0, 6));

/** Full driver consistency across devices. */
class DriverAcrossDevices : public ::testing::TestWithParam<int>
{
};

TEST_P(DriverAcrossDevices, ReportInvariantsHold)
{
    const auto names = device::ibm_device_names();
    const auto dev = device::make_device(names[GetParam()]);

    Rng rng(80);
    auto g = graph::barabasi_albert(12, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);

    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    const auto r = frozenqubits::run_pipeline(model, dev, config);

    EXPECT_EQ(r.num_subproblems, 4);
    EXPECT_EQ(r.num_executed, 2);
    for (const auto& sub : r.executed) {
        EXPECT_EQ(sub.num_qubits, 10);
        EXPECT_LE(sub.pre_routing_cx, r.baseline.pre_routing_cx);
        EXPECT_LE(sub.post_routing_cx, r.baseline.post_routing_cx);
        EXPECT_GE(sub.eps, r.baseline.eps);
        EXPECT_GE(sub.ev_noisy, sub.ev_ideal - 1e-9)
            << "noise cannot beat the ideal EV";
    }
    EXPECT_GE(r.arg_baseline, 0.0);
    EXPECT_GE(r.arg_fq, 0.0);
    EXPECT_LE(r.arg_fq, r.arg_baseline + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllDevices, DriverAcrossDevices,
                         ::testing::Range(0, 8));

TEST(DriverDeterminism, SameSeedSameReport)
{
    const auto dev = device::make_device("ibm-toronto");
    Rng rng(90);
    auto g = graph::barabasi_albert(10, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);

    frozenqubits::DriverConfig config;
    config.num_freeze = 1;
    const auto a = frozenqubits::run_pipeline(model, dev, config);
    const auto b = frozenqubits::run_pipeline(model, dev, config);
    EXPECT_DOUBLE_EQ(a.arg_baseline, b.arg_baseline);
    EXPECT_DOUBLE_EQ(a.arg_fq, b.arg_fq);
    EXPECT_EQ(a.baseline.post_routing_cx, b.baseline.post_routing_cx);
    EXPECT_EQ(a.hotspots, b.hotspots);
}

TEST(RouterOnGrid, EquivalenceWithNontrivialLayout)
{
    // 3x3 grid device, 9-qubit random circuit, greedy layout: the routed
    // circuit plus the final permutation must equal the logical unitary.
    const auto topo = device::make_grid(3, 3);
    Rng rng(91);
    circuit::Circuit logical(9);
    for (int k = 0; k < 40; ++k) {
        const int q = static_cast<int>(rng.uniform_int(std::uint64_t(9)));
        int r = static_cast<int>(rng.uniform_int(std::uint64_t(9)));
        if (r == q)
            r = (q + 1) % 9;
        if (rng.bernoulli(0.5))
            logical.cx(q, r);
        else
            logical.rx(q, rng.uniform(-1.0, 1.0));
    }
    const auto layout = transpiler::compute_layout(
        logical, topo, nullptr, transpiler::LayoutStrategy::DegreeGreedy);
    const auto routed = transpiler::route(logical, topo, layout);
    ASSERT_TRUE(transpiler::respects_coupling(routed.physical, topo));

    const auto sv_logical = sim::run_circuit(logical);
    const auto sv_physical = sim::run_circuit(routed.physical);
    for (std::uint64_t s = 0; s < sv_logical.dimension(); ++s) {
        std::uint64_t mapped = 0;
        for (int i = 0; i < 9; ++i)
            if (s & (std::uint64_t(1) << i))
                mapped |= std::uint64_t(1) << routed.final_layout[i];
        ASSERT_NEAR(std::abs(sv_logical.amplitude(s) -
                             sv_physical.amplitude(mapped)),
                    0.0, 1e-9);
    }
}

TEST(NoiseSampling, EvMatchesSurvivalPrediction)
{
    // Under the sampled channel, EV ~= survival * EV_ideal (readout off):
    // a direct statistical check of the global-depolarizing semantics.
    Rng rng(92);
    auto g = graph::barabasi_albert(8, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const auto tuned = qaoa::optimize_p1(model, 24);
    qaoa::BuildOptions opts;
    opts.include_measurements = false;
    const auto state = sim::run_circuit(
        qaoa::build_qaoa_circuit(model, opts)
            .bind({tuned.angles.gamma}, {tuned.angles.beta}));
    const double ev_ideal = state.expectation_ising(model);

    const std::vector<double> no_flip(8, 0.0);
    for (double survival : {1.0, 0.6, 0.2}) {
        const auto counts = sim::sample_noisy_counts(state, survival,
                                                     no_flip, 60000, rng);
        EXPECT_NEAR(counts.expectation(model), survival * ev_ideal,
                    0.12 * std::abs(ev_ideal) + 0.05)
            << "survival " << survival;
    }
}

TEST(TemplateEditing, MetricsInvariantAcrossSiblings)
{
    // Editing rewrites angles only: every structural metric must be
    // byte-identical across the 2^m sibling executables.
    Rng rng(93);
    auto g = graph::barabasi_albert(12, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const auto dev = device::make_device("ibm-cairo");

    const auto hotspots = frozenqubits::select_hotspots(
        model, 2, frozenqubits::HotspotPolicy::MaxDegree, rng);
    const auto subs = frozenqubits::freeze_all(model, hotspots);

    qaoa::BuildOptions build;
    build.keep_zero_linear_rz = true;
    const auto compiled = transpiler::compile(
        qaoa::build_qaoa_circuit(subs[0].model, build), dev);
    const auto base_metrics = compiled.metrics;

    for (std::size_t s = 1; s < subs.size(); ++s) {
        ASSERT_TRUE(
            frozenqubits::templates_compatible(subs[0].model,
                                               subs[s].model));
        const auto edited =
            frozenqubits::edit_template(compiled.physical, subs[s].model);
        const auto m = circuit::compute_metrics(edited);
        EXPECT_EQ(m.cx_gates, base_metrics.cx_gates);
        EXPECT_EQ(m.depth, base_metrics.depth);
        EXPECT_EQ(m.total_gates, base_metrics.total_gates);
    }
}

TEST(DecoderProperty, LiftedCostsAlwaysMatch)
{
    // Fuzz: random sub-problem chains of depth 1..3, random outcomes; the
    // lift must preserve the cost exactly (offset bookkeeping).
    Rng rng(94);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = 6 + static_cast<int>(rng.uniform_int(std::uint64_t(5)));
        ising::IsingModel model(n);
        for (int i = 0; i < n; ++i)
            if (rng.bernoulli(0.4))
                model.set_linear(i, rng.normal());
        for (int i = 0; i < n; ++i)
            for (int j = i + 1; j < n; ++j)
                if (rng.bernoulli(0.4))
                    model.add_quadratic(i, j, rng.normal());
        model.set_offset(rng.normal());

        auto sub = frozenqubits::as_subproblem(model);
        const int depth =
            1 + static_cast<int>(rng.uniform_int(std::uint64_t(3)));
        for (int d = 0; d < depth; ++d) {
            const int pick = sub.original_of[rng.uniform_int(
                static_cast<std::uint64_t>(sub.original_of.size()))];
            sub = frozenqubits::freeze_spin(sub, pick, rng.sign());
        }
        sim::Counts counts(sub.model.num_spins());
        for (int k = 0; k < 20; ++k)
            counts.add(rng() &
                       ((std::uint64_t(1) << sub.model.num_spins()) - 1));
        EXPECT_NEAR(
            frozenqubits::decoding_consistency_error(model, sub, counts),
            0.0, 1e-9)
            << "trial " << trial;
    }
}

TEST(QuboThroughFrozenQubits, EndToEndOptimum)
{
    // QUBO -> Ising -> FrozenQubits sampling -> binary decode recovers the
    // brute-force QUBO optimum on a clean device.
    Rng rng(95);
    ising::QuboModel qubo(10);
    for (int i = 0; i < 10; ++i)
        qubo.add_linear(i, rng.uniform(-1.0, 1.0));
    const auto g = graph::barabasi_albert(10, 1, rng);
    for (const auto& e : g.edges())
        qubo.add_quadratic(e.u, e.v, rng.uniform(-2.0, 2.0));

    const auto model = qubo.to_ising();
    device::Device dev;
    dev.topology = device::make_grid(3, 4);
    dev.name = "clean";
    dev.calibration =
        device::Calibration::uniform(dev.topology, 1e-5, 1e-4, 5000.0);

    frozenqubits::DriverConfig config;
    config.num_freeze = 1;
    const auto solved = frozenqubits::solve_with_sampling(
        model, dev, config, 8192, 96);

    double best = 1e300;
    for (std::uint64_t bits = 0; bits < 1024; ++bits) {
        ising::BinaryVector x(10);
        for (int i = 0; i < 10; ++i)
            x[i] = (bits >> i) & 1;
        best = std::min(best, qubo.evaluate(x));
    }
    EXPECT_NEAR(qubo.evaluate(ising::spins_to_binary(
                    solved.best_assignment)),
                best, 1e-9);
}

TEST(MetricsProperty, DepthBoundedByGateCount)
{
    Rng rng(97);
    for (int trial = 0; trial < 10; ++trial) {
        circuit::Circuit c(5);
        const int gates =
            1 + static_cast<int>(rng.uniform_int(std::uint64_t(60)));
        for (int k = 0; k < gates; ++k) {
            const int q =
                static_cast<int>(rng.uniform_int(std::uint64_t(5)));
            if (rng.bernoulli(0.5))
                c.h(q);
            else
                c.cx(q, (q + 1) % 5);
        }
        const int depth = circuit::circuit_depth(c);
        EXPECT_LE(depth, static_cast<int>(c.size()));
        EXPECT_GE(depth, static_cast<int>(c.size() + 4) / 5)
            << "depth below the width-parallelism bound";
    }
}

TEST(EpsProperty, GateOrderInvariantOnDisjointQubits)
{
    const auto dev = device::make_grid_device(3, 3);
    circuit::Circuit a(9), b(9);
    a.cx(0, 1);
    a.cx(3, 4);
    a.cx(6, 7);
    b.cx(6, 7);
    b.cx(0, 1);
    b.cx(3, 4);
    EXPECT_DOUBLE_EQ(
        sim::expected_probability_of_success(a, dev.calibration),
        sim::expected_probability_of_success(b, dev.calibration));
}

TEST(HotspotProperty, FreezingHotspotsMaximizesDroppedEdges)
{
    // Greedy max-degree freezing must drop at least as many edges as any
    // random selection of the same size (verified over draws).
    Rng rng(98);
    auto g = graph::barabasi_albert(30, 1, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const auto greedy = frozenqubits::select_hotspots(
        model, 3, frozenqubits::HotspotPolicy::MaxDegree, rng);
    const int greedy_drop =
        frozenqubits::dropped_edge_count(model, greedy);
    for (int trial = 0; trial < 20; ++trial) {
        const auto random = frozenqubits::select_hotspots(
            model, 3, frozenqubits::HotspotPolicy::Random, rng);
        EXPECT_GE(greedy_drop,
                  frozenqubits::dropped_edge_count(model, random));
    }
}

TEST(MirrorProperty, SolvedAndInferredDistributionsAgree)
{
    // Solving the mirror sub-problem directly must give the same best
    // cost as inferring it by flipping the solved distribution.
    Rng rng(99);
    auto g = graph::barabasi_albert(10, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);

    const auto hotspots = frozenqubits::select_hotspots(
        model, 1, frozenqubits::HotspotPolicy::MaxDegree, rng);
    const auto subs = frozenqubits::freeze_all(model, hotspots);

    // Exhaustive "distribution" for sub 0; infer sub 1 by flipping.
    sim::Counts counts0(9);
    for (std::uint64_t s = 0; s < 512; ++s)
        counts0.add(s);
    const auto counts1 = counts0.flip_all_bits();
    EXPECT_NEAR(counts0.best(subs[0].model).cost,
                counts1.best(subs[1].model).cost, 1e-9);
}

} // namespace
