/**
 * @file
 * Tests for the Ising substrate: Hamiltonian evaluation, the Gray-code
 * exact solver against naive enumeration, simulated annealing, Max-Cut
 * translation, and spin-flip symmetry (the Section 3.7.2 theorem).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "common/bitops.h"
#include "common/error.h"
#include "graph/generators.h"
#include "ising/exact_solver.h"
#include "ising/ising_model.h"
#include "ising/maxcut.h"
#include "ising/sa_solver.h"
#include "ising/symmetry.h"

namespace {

using namespace fq;
using namespace fq::ising;

IsingModel
random_model(int n, double h_scale, Rng& rng, double edge_prob = 0.5)
{
    IsingModel m(n);
    for (int i = 0; i < n; ++i)
        m.set_linear(i, h_scale * rng.normal());
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (rng.bernoulli(edge_prob))
                m.add_quadratic(i, j, rng.normal());
    m.set_offset(rng.normal());
    return m;
}

TEST(IsingModel, EvaluateMatchesHandComputation)
{
    // C(z) = 1*z0 - 2*z1 + 3*z0z1 + 0.5
    IsingModel m(2);
    m.set_linear(0, 1.0);
    m.set_linear(1, -2.0);
    m.add_quadratic(0, 1, 3.0);
    m.set_offset(0.5);

    EXPECT_DOUBLE_EQ(m.evaluate({+1, +1}), 1 - 2 + 3 + 0.5);
    EXPECT_DOUBLE_EQ(m.evaluate({+1, -1}), 1 + 2 - 3 + 0.5);
    EXPECT_DOUBLE_EQ(m.evaluate({-1, +1}), -1 - 2 - 3 + 0.5);
    EXPECT_DOUBLE_EQ(m.evaluate({-1, -1}), -1 + 2 + 3 + 0.5);
}

TEST(IsingModel, EvaluateStateMatchesSpinVector)
{
    Rng rng(1);
    const auto m = random_model(8, 1.0, rng);
    for (std::uint64_t s = 0; s < 256; ++s) {
        const auto z = state_to_spins(s, 8);
        EXPECT_NEAR(m.evaluate(z), m.evaluate_state(s), 1e-12);
    }
}

/** The multiply-by-spin form evaluate_state had before it flipped sign
 *  bits; kept as the oracle for the fast path. */
double
evaluate_state_by_product(const IsingModel& m, std::uint64_t state)
{
    double c = m.offset();
    for (int i = 0; i < m.num_spins(); ++i)
        c += m.linear_terms()[static_cast<std::size_t>(i)] *
             spin_of_bit(state, i);
    for (const auto& term : m.quadratic_terms())
        c += term.coefficient * spin_of_bit(state, term.i) *
             spin_of_bit(state, term.j);
    return c;
}

bool
same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(IsingModel, BlockedEvaluationIsBitwiseTheProductForm)
{
    Rng rng(33);
    // +-1, Gaussian, and signed-zero coefficients (0.0 * -1 is -0.0).
    const std::function<double()> draws[] = {
        [&] { return static_cast<double>(rng.sign()); },
        [&] { return rng.normal(); },
        [&] { return rng.bernoulli(0.5) ? 0.0 : -0.0; },
    };
    for (const auto& draw : draws) {
        for (const int width : {1, 63}) {
            IsingModel m(width);
            for (int i = 0; i < width; ++i)
                m.set_linear(i, draw());
            for (int i = 0; i + 1 < width; ++i)
                m.add_quadratic(i, i + 1, draw());
            for (int k = 0; k < width; ++k) {
                const int i = static_cast<int>(rng.uniform_int(
                    static_cast<std::uint64_t>(width)));
                const int j = static_cast<int>(rng.uniform_int(
                    static_cast<std::uint64_t>(width)));
                if (i != j)
                    m.add_quadratic(i, j, draw());
            }
            m.set_offset(draw());
            for (const std::size_t count : {0u, 7u, 8u, 9u}) {
                std::vector<std::uint64_t> states(count);
                for (auto& s : states)
                    s = rng() & low_bits_mask(width);
                std::vector<double> got(count + 1, 42.0);
                m.evaluate_states(states.data(), count, got.data());
                for (std::size_t k = 0; k < count; ++k) {
                    const double want =
                        evaluate_state_by_product(m, states[k]);
                    EXPECT_TRUE(same_bits(got[k], want))
                        << "width " << width << " count " << count
                        << " state " << states[k] << ": " << got[k]
                        << " vs " << want;
                    EXPECT_TRUE(
                        same_bits(m.evaluate_state(states[k]), want));
                }
                EXPECT_EQ(got[count], 42.0) << "wrote past count";
            }
        }
    }
}

TEST(IsingModel, StateEncodingRoundTrip)
{
    const SpinVector z{+1, -1, -1, +1, -1};
    const auto s = spins_to_state(z);
    EXPECT_EQ(s, 0b10110u);
    EXPECT_EQ(state_to_spins(s, 5), z);
}

TEST(IsingModel, FlipDeltaMatchesRecomputation)
{
    Rng rng(2);
    const auto m = random_model(10, 0.7, rng);
    SpinVector z(10);
    for (auto& v : z)
        v = static_cast<std::int8_t>(rng.sign());
    for (int k = 0; k < 10; ++k) {
        SpinVector flipped = z;
        flipped[k] = static_cast<std::int8_t>(-flipped[k]);
        EXPECT_NEAR(m.flip_delta(z, k),
                    m.evaluate(flipped) - m.evaluate(z), 1e-10);
    }
}

TEST(IsingModel, QuadraticAccumulates)
{
    IsingModel m(3);
    m.add_quadratic(0, 1, 1.5);
    m.add_quadratic(1, 0, 0.5); // same pair, reversed order
    EXPECT_EQ(m.num_quadratic_terms(), 1);
    EXPECT_DOUBLE_EQ(m.quadratic(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m.quadratic(1, 0), 2.0);
    EXPECT_DOUBLE_EQ(m.quadratic(0, 2), 0.0);
}

TEST(IsingModel, PruneZeroTerms)
{
    IsingModel m(3);
    m.add_quadratic(0, 1, 1.0);
    m.add_quadratic(1, 2, 1.0);
    m.add_quadratic(1, 2, -1.0); // cancels to zero
    m.prune_zero_terms();
    EXPECT_EQ(m.num_quadratic_terms(), 1);
    EXPECT_DOUBLE_EQ(m.quadratic(0, 1), 1.0);
    EXPECT_TRUE(m.couplings_of(2).empty());
}

TEST(IsingModel, GraphRoundTrip)
{
    Rng rng(3);
    auto g = graph::barabasi_albert(12, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto m = IsingModel::from_graph(g);
    EXPECT_EQ(m.num_spins(), 12);
    EXPECT_EQ(m.num_quadratic_terms(), g.num_edges());
    const auto g2 = m.to_graph();
    EXPECT_EQ(g2.num_edges(), g.num_edges());
    for (const auto& e : g.edges())
        EXPECT_DOUBLE_EQ(g2.edge_weight(e.u, e.v), e.weight);
}

TEST(IsingModel, RejectsDiagonalTerm)
{
    IsingModel m(2);
    EXPECT_THROW(m.add_quadratic(1, 1, 1.0), Error);
}

TEST(ExactSolver, MatchesNaiveEnumeration)
{
    Rng rng(4);
    for (int trial = 0; trial < 5; ++trial) {
        const int n = 3 + static_cast<int>(rng.uniform_int(std::uint64_t(8)));
        const auto m = random_model(n, 0.8, rng);

        // Naive reference.
        double best = 1e300, worst = -1e300, sum = 0.0;
        for (std::uint64_t s = 0; s < (1ull << n); ++s) {
            const double c = m.evaluate_state(s);
            best = std::min(best, c);
            worst = std::max(worst, c);
            sum += c;
        }

        const auto sol = solve_exact(m);
        EXPECT_NEAR(sol.min_cost, best, 1e-9);
        EXPECT_NEAR(sol.max_cost, worst, 1e-9);
        EXPECT_NEAR(sol.mean_cost, sum / std::pow(2.0, n), 1e-9);
        EXPECT_NEAR(m.evaluate(sol.argmin), best, 1e-9);
    }
}

TEST(ExactSolver, AllCostsIndexedByState)
{
    Rng rng(5);
    const auto m = random_model(6, 0.5, rng);
    const auto costs = all_costs(m);
    ASSERT_EQ(costs.size(), 64u);
    for (std::uint64_t s = 0; s < 64; ++s)
        EXPECT_NEAR(costs[s], m.evaluate_state(s), 1e-10);
}

TEST(ExactSolver, CountsDegenerateMinima)
{
    // Single antiferromagnetic edge: minima are (+1,-1) and (-1,+1).
    IsingModel m(2);
    m.add_quadratic(0, 1, 1.0);
    const auto sol = solve_exact(m);
    EXPECT_DOUBLE_EQ(sol.min_cost, -1.0);
    EXPECT_EQ(sol.num_minima, 2u);
}

TEST(ExactSolver, RejectsOversizedInstance)
{
    IsingModel m(30);
    EXPECT_THROW(solve_exact(m, 26), Error);
}

TEST(SaSolver, FindsExactOptimumOnSmallInstances)
{
    Rng rng(6);
    for (int trial = 0; trial < 4; ++trial) {
        const auto m = random_model(12, 0.5, rng);
        const auto exact = solve_exact(m);
        SaConfig cfg;
        cfg.num_restarts = 6;
        cfg.sweeps_per_restart = 300;
        Rng sa_rng(100 + trial);
        const auto sol = solve_annealing(m, cfg, sa_rng);
        EXPECT_NEAR(sol.best_cost, exact.min_cost, 1e-9)
            << "SA missed the optimum on trial " << trial;
        EXPECT_NEAR(m.evaluate(sol.best_assignment), sol.best_cost, 1e-9);
    }
}

TEST(SaSolver, GreedyDescentMonotone)
{
    Rng rng(7);
    const auto m = random_model(14, 1.0, rng);
    SpinVector z(14);
    for (auto& v : z)
        v = static_cast<std::int8_t>(rng.sign());
    const double before = m.evaluate(z);
    const double after = greedy_descent(m, z);
    EXPECT_LE(after, before + 1e-12);
    // Local optimality: no single flip improves.
    for (int k = 0; k < 14; ++k)
        EXPECT_GE(m.flip_delta(z, k), -1e-9);
}

TEST(MaxCut, HamiltonianAndCutConsistency)
{
    Rng rng(8);
    auto g = graph::erdos_renyi(10, 0.4, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto m = maxcut_hamiltonian(g);
    EXPECT_TRUE(m.has_zero_linear_terms());

    SpinVector z(10);
    for (auto& v : z)
        v = static_cast<std::int8_t>(rng.sign());
    // cut(z) == (W - C(z)) / 2 for offset-0 Hamiltonians.
    EXPECT_NEAR(cut_value(g, z), cut_from_cost(g, m.evaluate(z)), 1e-10);
}

TEST(MaxCut, MinimizingCostMaximizesCut)
{
    Rng rng(9);
    auto g = graph::complete(8);
    graph::assign_random_pm1_weights(g, rng);
    const auto m = maxcut_hamiltonian(g);
    const auto sol = solve_exact(m);
    const double best_cut = cut_from_cost(g, sol.min_cost);
    // Every other assignment's cut must not exceed the decoded one.
    for (std::uint64_t s = 0; s < 256; ++s) {
        const auto z = state_to_spins(s, 8);
        EXPECT_LE(cut_value(g, z), best_cut + 1e-10);
    }
}

TEST(Symmetry, ZeroLinearImpliesGlobalFlipInvariance)
{
    Rng rng(10);
    auto g = graph::barabasi_albert(10, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto m = IsingModel::from_graph(g);
    EXPECT_TRUE(is_flip_symmetric(m));
    EXPECT_TRUE(verify_flip_symmetry_exhaustive(m));
}

TEST(Symmetry, LinearTermBreaksSymmetry)
{
    IsingModel m(3);
    m.add_quadratic(0, 1, 1.0);
    m.set_linear(2, 0.5);
    EXPECT_FALSE(is_flip_symmetric(m));
    EXPECT_FALSE(verify_flip_symmetry_exhaustive(m));
}

TEST(Symmetry, EvenNumberOfGlobalMinima)
{
    // Section 3.7.2: symmetric Hamiltonians have an even minima count.
    Rng rng(11);
    for (int trial = 0; trial < 5; ++trial) {
        auto g = graph::barabasi_albert(9, 1, rng);
        graph::assign_random_pm1_weights(g, rng);
        const auto m = IsingModel::from_graph(g);
        const auto sol = solve_exact(m);
        EXPECT_EQ(sol.num_minima % 2, 0u) << "trial " << trial;
    }
}

TEST(Symmetry, MirrorModelEvaluatesFlipped)
{
    Rng rng(12);
    IsingModel m(6);
    for (int i = 0; i < 6; ++i)
        m.set_linear(i, rng.normal());
    m.add_quadratic(0, 3, 1.0);
    m.add_quadratic(2, 4, -2.0);
    m.set_offset(0.7);

    const auto mirror = mirror_model(m);
    for (std::uint64_t s = 0; s < 64; ++s) {
        const auto z = state_to_spins(s, 6);
        EXPECT_NEAR(mirror.evaluate(z), m.evaluate(flip_all(z)), 1e-12);
    }
}

TEST(Symmetry, FlipAllInvolution)
{
    const SpinVector z{+1, -1, +1};
    EXPECT_EQ(flip_all(flip_all(z)), z);
}

} // namespace
