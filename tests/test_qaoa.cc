/**
 * @file
 * Tests for the QAOA layer. The load-bearing suite is the parameterized
 * property check that the closed-form p=1 expectation (Ozaeta et al.)
 * matches the dense statevector simulation for random Ising instances —
 * the analytic evaluator underpins every fidelity figure at scale.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "frozenqubits/freeze.h"
#include "frozenqubits/hotspot.h"
#include "graph/generators.h"
#include "ising/ising_model.h"
#include "qaoa/analytic_p1.h"
#include "qaoa/qaoa_builder.h"
#include "sim/statevector.h"

namespace {

using namespace fq;
using namespace fq::qaoa;

/** Statevector reference for <Z_i>, <Z_i Z_j> and <C> at p=1. */
struct SvReference
{
    std::vector<double> z;
    std::vector<double> zz;
    double energy = 0.0;
};

SvReference
statevector_reference(const ising::IsingModel& model, const P1Angles& angles)
{
    BuildOptions opts;
    opts.num_layers = 1;
    opts.include_measurements = false;
    const auto circuit = build_qaoa_circuit(model, opts);
    const auto bound = circuit.bind({angles.gamma}, {angles.beta});
    const auto sv = sim::run_circuit(bound);

    const int n = model.num_spins();
    SvReference ref;
    ref.z.assign(n, 0.0);
    ref.zz.assign(model.quadratic_terms().size(), 0.0);
    const auto probs = sv.probabilities();
    for (std::uint64_t s = 0; s < probs.size(); ++s) {
        const double p = probs[s];
        if (p == 0.0)
            continue;
        for (int i = 0; i < n; ++i)
            ref.z[i] += p * spin_of_bit(s, i);
        const auto& terms = model.quadratic_terms();
        for (std::size_t t = 0; t < terms.size(); ++t)
            ref.zz[t] += p * spin_of_bit(s, terms[t].i) *
                         spin_of_bit(s, terms[t].j);
    }
    ref.energy = sv.expectation_ising(model);
    return ref;
}

TEST(QaoaBuilder, GateCountsMatchPrediction)
{
    Rng rng(1);
    auto g = graph::barabasi_albert(9, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    auto model = ising::IsingModel::from_graph(g);
    model.set_linear(3, 0.5); // one non-zero linear term

    for (int p : {1, 2, 3}) {
        BuildOptions opts;
        opts.num_layers = p;
        const auto c = build_qaoa_circuit(model, opts);
        const auto budget = predict_gate_budget(model, opts);
        EXPECT_EQ(c.count(circuit::GateType::CX), budget.cx);
        EXPECT_EQ(c.count(circuit::GateType::RZ), budget.rz);
        EXPECT_EQ(c.count(circuit::GateType::RX), budget.rx);
        EXPECT_EQ(c.count(circuit::GateType::H), budget.h);
        EXPECT_EQ(c.count(circuit::GateType::MEASURE), budget.measure);
        // Two CNOTs per edge per layer — the paper's core cost relation.
        EXPECT_EQ(budget.cx, 2 * model.num_quadratic_terms() * p);
    }
}

TEST(QaoaBuilder, ZeroLinearPlaceholdersKeptOnRequest)
{
    ising::IsingModel model(4);
    model.add_quadratic(0, 1, 1.0);

    BuildOptions drop;
    drop.num_layers = 1;
    const auto without = build_qaoa_circuit(model, drop);

    BuildOptions keep = drop;
    keep.keep_zero_linear_rz = true;
    const auto with = build_qaoa_circuit(model, keep);

    EXPECT_EQ(with.count(circuit::GateType::RZ) -
                  without.count(circuit::GateType::RZ),
              4); // one placeholder per spin
}

TEST(QaoaBuilder, TermTagsIdentifyCoefficients)
{
    ising::IsingModel model(3);
    model.set_linear(1, 0.25);
    model.add_quadratic(0, 2, -1.0);
    BuildOptions opts;
    opts.num_layers = 1;
    opts.keep_zero_linear_rz = true;
    const auto c = build_qaoa_circuit(model, opts);

    bool found_linear = false, found_quadratic = false;
    for (const auto& g : c.gates()) {
        if (g.type != circuit::GateType::RZ || g.angle.is_constant())
            continue;
        if (g.angle.tag == 1) {
            EXPECT_DOUBLE_EQ(g.angle.coefficient, 0.5); // 2*h_1
            found_linear = true;
        }
        if (g.angle.tag == 3) { // N + t = 3 + 0
            EXPECT_DOUBLE_EQ(g.angle.coefficient, -2.0); // 2*J
            found_quadratic = true;
        }
    }
    EXPECT_TRUE(found_linear);
    EXPECT_TRUE(found_quadratic);
}

TEST(QaoaBuilder, UniformSuperpositionAtZeroAngles)
{
    ising::IsingModel model(3);
    model.add_quadratic(0, 1, 1.0);
    model.add_quadratic(1, 2, -1.0);
    BuildOptions opts;
    opts.num_layers = 1;
    opts.include_measurements = false;
    const auto c = build_qaoa_circuit(model, opts).bind({0.0}, {0.0});
    const auto sv = sim::run_circuit(c);
    for (std::uint64_t s = 0; s < 8; ++s)
        EXPECT_NEAR(sv.probability(s), 1.0 / 8.0, 1e-12);
    // EV at zero angles is the uniform mean = offset (= 0 here).
    EXPECT_NEAR(sv.expectation_ising(model), 0.0, 1e-12);
}

/** Parameterized sweep: instance seed for the analytic-vs-statevector law. */
class AnalyticP1Property : public ::testing::TestWithParam<int>
{
};

TEST_P(AnalyticP1Property, MatchesStatevectorOnRandomInstances)
{
    Rng rng(1000 + GetParam());
    const int n = 3 + static_cast<int>(rng.uniform_int(std::uint64_t(5)));

    ising::IsingModel model(n);
    // Random h (sometimes zero), random sparse J, random offset.
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.6))
            model.set_linear(i, rng.uniform(-1.5, 1.5));
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (rng.bernoulli(0.5))
                model.add_quadratic(i, j, rng.uniform(-1.5, 1.5));
    model.set_offset(rng.uniform(-1.0, 1.0));

    for (int angle_trial = 0; angle_trial < 3; ++angle_trial) {
        const P1Angles angles{rng.uniform(0.0, M_PI),
                              rng.uniform(0.0, M_PI)};
        const auto analytic = evaluate_p1(model, angles);
        const auto reference = statevector_reference(model, angles);

        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(analytic.z[i], reference.z[i], 1e-8)
                << "<Z_" << i << "> mismatch";
        for (std::size_t t = 0; t < analytic.zz.size(); ++t)
            EXPECT_NEAR(analytic.zz[t], reference.zz[t], 1e-8)
                << "<ZZ> term " << t << " mismatch";
        EXPECT_NEAR(analytic.energy, reference.energy, 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AnalyticP1Property,
                         ::testing::Range(0, 12));

std::uint64_t
bits_of(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

ising::IsingModel
ba3_model(int n, std::uint64_t seed)
{
    Rng rng(seed);
    auto g = graph::barabasi_albert(n, 3, rng);
    graph::assign_random_pm1_weights(g, rng);
    return ising::IsingModel::from_graph(g);
}

/** Freeze the top-@p m hotspots of @p parent; bit b of @p leaf set = -1. */
frozenqubits::SubProblem
freeze_hotspots(const frozenqubits::SubProblem& parent, int m, int leaf)
{
    Rng unused(0);
    const auto spots = frozenqubits::select_hotspots(
        parent.model, m, frozenqubits::HotspotPolicy::MaxDegree, unused);
    auto sub = parent;
    for (int b = 0; b < m; ++b)
        sub = frozenqubits::freeze_spin(sub, parent.original_of[spots[b]],
                                        (leaf >> b) & 1 ? -1 : +1);
    return sub;
}

struct LeafShape
{
    const char* name;
    ising::IsingModel model;
};

/** The leaf shapes the p=1 angle search is pinned and checked on. */
std::vector<LeafShape>
leaf_shapes()
{
    using frozenqubits::as_subproblem;
    std::vector<LeafShape> shapes;
    // n=20 BA3 freeze-4 leaf: 16 spins with nonzero integer h.
    shapes.push_back(
        {"ba3_n20_freeze4",
         freeze_hotspots(as_subproblem(ba3_model(20, 7)), 4, 5).model});
    // n=22 depth-2 leaf: freeze 2, then 2 more on the child; 18 spins.
    shapes.push_back(
        {"ba3_n22_depth2",
         freeze_hotspots(freeze_hotspots(as_subproblem(ba3_model(22, 9)), 2, 1),
                         2, 2)
             .model});
    {
        // Real-valued h and J.
        Rng rng(13);
        auto g = graph::barabasi_albert(8, 2, rng);
        graph::assign_gaussian_weights(g, rng);
        auto model = ising::IsingModel::from_graph(g);
        for (int i = 0; i < model.num_spins(); ++i)
            model.set_linear(i, rng.uniform(-1.5, 1.5));
        model.set_offset(0.75);
        shapes.push_back({"real_valued", model});
    }
    {
        // Isolated spins, one with a field, next to a coupled triangle.
        ising::IsingModel model(6);
        model.add_quadratic(0, 1, 1.0);
        model.add_quadratic(1, 2, -1.0);
        model.add_quadratic(0, 2, 1.0);
        model.set_linear(1, 1.0);
        model.set_linear(4, -2.0);
        shapes.push_back({"isolated_spins", model});
    }
    {
        // No quadratic terms at all.
        ising::IsingModel model(3);
        model.set_linear(0, 1.0);
        model.set_linear(2, -0.5);
        shapes.push_back({"no_couplings", model});
    }
    {
        // J_01 accumulates to exactly zero and stays a term.
        ising::IsingModel model(4);
        model.add_quadratic(0, 1, 1.0);
        model.add_quadratic(0, 1, -1.0);
        model.add_quadratic(1, 2, 1.0);
        model.add_quadratic(0, 2, -1.0);
        model.add_quadratic(2, 3, 1.0);
        model.set_linear(0, 1.0);
        shapes.push_back({"retained_zero_coupling", model});
    }
    return shapes;
}

const ising::IsingModel&
shape_named(const std::vector<LeafShape>& shapes, const std::string& name)
{
    for (const auto& shape : shapes)
        if (name == shape.name)
            return shape.model;
    throw std::invalid_argument("no leaf shape " + name);
}

TEST(AnalyticP1, EnergyOnlyPathAgrees)
{
    Rng rng(2);
    auto g = graph::barabasi_albert(10, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const P1Angles angles{0.4, 0.3};
    EXPECT_EQ(bits_of(evaluate_p1_energy(model, angles)),
              bits_of(evaluate_p1(model, angles).energy));
}

TEST(AnalyticP1, OptimizeIsPinned)
{
    // Golden values, bit for bit. The order of every product in the closed
    // form sets the last bits, and the last bits can move the argmin, which
    // reseeds every sampled count downstream. A reordering must fail here.
    struct Pin
    {
        const char* shape;
        int grid, refine;
        double gamma, beta, energy;
        int evaluations;
    };
    const Pin pins[] = {
        {"ba3_n20_freeze4", 32, 24, 0x1.053e3972e8a8dp-2,
         0x1.4f99226155db9p+1, -0x1.29cdcf28535e3p+3, 1120},
        {"ba3_n20_freeze4", 2, 0, 0x0p+0, 0x0p+0, 0x1.8p+1, 4},
        {"ba3_n20_freeze4", 48, 24, 0x1.0540519d2fae7p-2,
         0x1.4f99a86be79d1p+1, -0x1.29cdcf362bcfbp+3, 2400},
        {"ba3_n22_depth2", 32, 24, 0x1.19d5d11f3384ap-2,
         0x1.50dbeed558275p+1, -0x1.836a60e338617p+3, 1120},
        {"real_valued", 32, 24, 0x1.f1eafaf6b1ac6p-3, 0x1.5c36b10922144p+1,
         -0x1.2274ea5c17c35p+2, 1120},
        {"isolated_spins", 32, 24, 0x1.ad83be2d191ebp-2,
         0x1.4755458a8fb03p+1, -0x1.0be9f725678b2p+2, 1120},
        {"no_couplings", 32, 24, 0x1.bbbcf26a6488p-1, 0x1.2d97c7f3321d2p+1,
         -0x1.5e2f3077edd8cp+0, 1120},
        {"retained_zero_coupling", 32, 24, 0x1.a1d8169857f63p-2,
         0x1.5c47f865ec032p+1, -0x1.da84902ca1f6ep+0, 1120},
    };
    const auto shapes = leaf_shapes();
    for (const auto& pin : pins) {
        SCOPED_TRACE(std::string(pin.shape) + " grid " +
                     std::to_string(pin.grid));
        const auto got =
            optimize_p1(shape_named(shapes, pin.shape), pin.grid, pin.refine);
        EXPECT_EQ(bits_of(got.angles.gamma), bits_of(pin.gamma));
        EXPECT_EQ(bits_of(got.angles.beta), bits_of(pin.beta));
        EXPECT_EQ(bits_of(got.energy), bits_of(pin.energy));
        EXPECT_EQ(got.evaluations, pin.evaluations);
    }

    // Per-term expectations on the real-valued shape at two angle pairs.
    struct ExpectationPin
    {
        P1Angles angles;
        std::vector<double> z, zz;
        double energy;
    };
    const ExpectationPin expectation_pins[] = {
        {{0.37, 0.21},
         {0x1.10dd9ac8ccaep-5, -0x1.b67b278b120d5p-9, 0x1.7ba2a35375bb4p-3,
          -0x1.63e5481de1f9fp-5, -0x1.7dd2420b1b36bp-5, -0x1.1a9d1e898121ep-4,
          -0x1.120b2311be283p-4, 0x1.2a2321e02663fp-7},
         {0x1.bd95e0e739521p-8, -0x1.df7f1907e63a4p-5, -0x1.8e2417192724bp-5,
          -0x1.69c066378a156p-2, 0x1.ed4926639ad86p-3, 0x1.c5752cf51d33cp-4,
          0x1.d60c9947a7f5p-3, 0x1.50d7e5fc26718p-2, -0x1.35cf500fa0118p-4,
          -0x1.5cc39df0a09eep-2, 0x1.1e5096c019dc5p-6, -0x1.67c57848b588ep-2,
          0x1.b75137a585b6fp-5},
         0x1.f00ff90b3b281p+1},
        {{1.9, 2.6},
         {-0x1.48fccba00571ep-3, 0x1.a54ad516c0752p-12, 0x1.cc19ae19d239fp-6,
          0x1.401d5f14c12dbp-6, -0x1.74e7b8b829944p-1, 0x1.7d2a2a57a54a8p-2,
          -0x1.c7ad3dfee711cp-5, -0x1.84f825856ac64p-5},
         {0x1.6fcc7bb001e6cp-11, -0x1.3cb8aa939fc58p-8, 0x1.1f9ae7a46ffd4p-6,
          0x1.00f8abc83a1abp-5, -0x1.c24a6b207a1b8p-7, 0x1.ae4b88a347b3p-4,
          -0x1.10072131378p-19, -0x1.f12799a618d12p-3, -0x1.efa0ec116929cp-8,
          -0x1.194067e64af7cp-4, -0x1.876b6482237f9p-9, -0x1.612155b54a231p-4,
          -0x1.e2a4e19d8612dp-3},
         0x1.2c05abd3f644fp+0},
    };
    const auto& real_valued = shape_named(shapes, "real_valued");
    for (const auto& pin : expectation_pins) {
        const auto got = evaluate_p1(real_valued, pin.angles);
        ASSERT_EQ(got.z.size(), pin.z.size());
        ASSERT_EQ(got.zz.size(), pin.zz.size());
        for (std::size_t i = 0; i < pin.z.size(); ++i)
            EXPECT_EQ(bits_of(got.z[i]), bits_of(pin.z[i])) << "z " << i;
        for (std::size_t t = 0; t < pin.zz.size(); ++t)
            EXPECT_EQ(bits_of(got.zz[t]), bits_of(pin.zz[t])) << "zz " << t;
        EXPECT_EQ(bits_of(got.energy), bits_of(pin.energy));
    }
}

TEST(AnalyticP1, OptimizeEnergyIsTheEvaluatedEnergy)
{
    // One closed form: the search's energy is what evaluating its angles
    // gives, bit for bit, and every cell and probe counts once.
    for (const auto& shape : leaf_shapes()) {
        for (const auto& [grid, refine] :
             {std::pair{2, 0}, std::pair{7, 3}, std::pair{32, 24}}) {
            SCOPED_TRACE(std::string(shape.name) + " grid " +
                         std::to_string(grid));
            const auto tuned = optimize_p1(shape.model, grid, refine);
            EXPECT_EQ(tuned.evaluations, grid * grid + 4 * refine);
            EXPECT_EQ(bits_of(tuned.energy),
                      bits_of(evaluate_p1_energy(shape.model, tuned.angles)));
            EXPECT_EQ(bits_of(tuned.energy),
                      bits_of(evaluate_p1(shape.model, tuned.angles).energy));
        }
    }
}

TEST(AnalyticP1, ZeroAnglesGiveUniformEnergy)
{
    Rng rng(3);
    auto g = graph::complete(6);
    graph::assign_random_pm1_weights(g, rng);
    auto model = ising::IsingModel::from_graph(g);
    model.set_offset(1.25);
    EXPECT_NEAR(evaluate_p1_energy(model, {0.0, 0.0}), 1.25, 1e-12);
}

TEST(AnalyticP1, OptimizerBeatsRandomAngles)
{
    Rng rng(4);
    auto g = graph::barabasi_albert(14, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);

    const auto tuned = optimize_p1(model, 24, 16);
    for (int trial = 0; trial < 10; ++trial) {
        const P1Angles random_angles{rng.uniform(0.0, M_PI),
                                     rng.uniform(0.0, M_PI)};
        EXPECT_LE(tuned.energy,
                  evaluate_p1_energy(model, random_angles) + 1e-9);
    }
    // A tuned p=1 EV on a nontrivial instance must beat the uniform mean.
    EXPECT_LT(tuned.energy, -1e-3);
}

TEST(AnalyticP1, ScalesToPracticalSizes)
{
    // 500-qubit instance (the Section 6 scale) — evaluates instantly.
    Rng rng(5);
    auto g = graph::barabasi_albert(500, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const double e = evaluate_p1_energy(model, {0.35, 0.2});
    EXPECT_TRUE(std::isfinite(e));
    EXPECT_LT(std::abs(e), 499.0); // |EV| bounded by total coupling weight
}

} // namespace
