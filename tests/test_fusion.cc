/**
 * @file
 * Property tests for the fused QAOA fast path: the diagonal-fusion circuit
 * pass, the strided gate kernels, the per-state weight/energy tables, and
 * the engine integration. The oracle is a self-contained naive simulator
 * (the pre-fusion per-state branchy loops) kept HERE, independent of the
 * library kernels, so a shared bug cannot cancel out.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/fusion.h"
#include "common/bitops.h"
#include "common/error.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "ising/io.h"
#include "ising/ising_model.h"
#include "qaoa/multilayer.h"
#include "qaoa/qaoa_builder.h"
#include "sim/backend.h"
#include "sim/qaoa_kernel.h"
#include "sim/statevector.h"
#include "solve_test_util.h"

namespace {

using namespace fq;
using fq::engine::ExecutionEngine;
using Amp = std::complex<double>;

// ---------------------------------------------------------------- oracle --

/** Naive branchy gate application (the pre-fusion reference loops). */
class NaiveState
{
  public:
    explicit NaiveState(int n) : n_(n), amps_(std::uint64_t(1) << n)
    {
        amps_[0] = {1.0, 0.0};
    }

    void
    uniform()
    {
        const double a = std::pow(0.5, 0.5 * n_);
        for (auto& amp : amps_)
            amp = {a, 0.0};
    }

    void
    apply(const circuit::Gate& g)
    {
        using circuit::GateType;
        const double theta = g.angle.coefficient;
        const std::uint64_t bit = std::uint64_t(1) << g.q0;
        const std::uint64_t dim = amps_.size();
        switch (g.type) {
          case GateType::H: {
            const double r = 1.0 / std::sqrt(2.0);
            for (std::uint64_t s = 0; s < dim; ++s) {
                if (s & bit)
                    continue;
                const Amp a0 = amps_[s], a1 = amps_[s | bit];
                amps_[s] = r * (a0 + a1);
                amps_[s | bit] = r * (a0 - a1);
            }
            break;
          }
          case GateType::X:
            for (std::uint64_t s = 0; s < dim; ++s)
                if (!(s & bit))
                    std::swap(amps_[s], amps_[s | bit]);
            break;
          case GateType::SX: {
            const Amp p{0.5, 0.5}, m{0.5, -0.5};
            for (std::uint64_t s = 0; s < dim; ++s) {
                if (s & bit)
                    continue;
                const Amp a0 = amps_[s], a1 = amps_[s | bit];
                amps_[s] = p * a0 + m * a1;
                amps_[s | bit] = m * a0 + p * a1;
            }
            break;
          }
          case GateType::RZ: {
            const Amp p0 = std::polar(1.0, -theta / 2.0);
            const Amp p1 = std::polar(1.0, theta / 2.0);
            for (std::uint64_t s = 0; s < dim; ++s)
                amps_[s] *= (s & bit) ? p1 : p0;
            break;
          }
          case GateType::RX: {
            const double c = std::cos(theta / 2.0);
            const Amp is{0.0, -std::sin(theta / 2.0)};
            for (std::uint64_t s = 0; s < dim; ++s) {
                if (s & bit)
                    continue;
                const Amp a0 = amps_[s], a1 = amps_[s | bit];
                amps_[s] = c * a0 + is * a1;
                amps_[s | bit] = is * a0 + c * a1;
            }
            break;
          }
          case GateType::RY: {
            const double c = std::cos(theta / 2.0);
            const double sn = std::sin(theta / 2.0);
            for (std::uint64_t s = 0; s < dim; ++s) {
                if (s & bit)
                    continue;
                const Amp a0 = amps_[s], a1 = amps_[s | bit];
                amps_[s] = c * a0 - sn * a1;
                amps_[s | bit] = sn * a0 + c * a1;
            }
            break;
          }
          case GateType::CX: {
            const std::uint64_t cb = std::uint64_t(1) << g.q0;
            const std::uint64_t tb = std::uint64_t(1) << g.q1;
            for (std::uint64_t s = 0; s < dim; ++s)
                if ((s & cb) && !(s & tb))
                    std::swap(amps_[s], amps_[s | tb]);
            break;
          }
          case GateType::SWAP: {
            const std::uint64_t ab = std::uint64_t(1) << g.q0;
            const std::uint64_t bb = std::uint64_t(1) << g.q1;
            for (std::uint64_t s = 0; s < dim; ++s)
                if ((s & ab) && !(s & bb))
                    std::swap(amps_[s ^ ab ^ bb], amps_[s]);
            break;
          }
          case GateType::MEASURE:
          case GateType::BARRIER:
            break;
        }
    }

    void
    run(const circuit::Circuit& c)
    {
        for (const auto& g : c.gates())
            apply(g);
    }

    const std::vector<Amp>& amps() const { return amps_; }

  private:
    int n_;
    std::vector<Amp> amps_;
};

double
max_amp_diff(const std::vector<Amp>& a, const sim::Statevector& b)
{
    EXPECT_EQ(a.size(), b.dimension());
    double worst = 0.0;
    for (std::uint64_t s = 0; s < a.size(); ++s)
        worst = std::max(worst, std::abs(a[s] - b.amplitude(s)));
    return worst;
}

/** Random Ising model: BA skeleton, random real h and J. */
ising::IsingModel
random_model(int n, std::uint64_t seed, bool with_linear)
{
    Rng rng(seed);
    auto g = graph::barabasi_albert(n, 2, rng);
    auto model = ising::IsingModel::from_graph(g);
    for (const auto& term : model.quadratic_terms())
        model.add_quadratic(term.i, term.j,
                            rng.uniform(-1.0, 1.0) - term.coefficient);
    if (with_linear)
        for (int i = 0; i < n; ++i)
            model.set_linear(i, rng.uniform(-1.0, 1.0));
    model.set_offset(rng.uniform(-1.0, 1.0));
    return model;
}

// --------------------------------------------------------------- kernels --

TEST(StridedKernels, MatchNaiveLoopsOnRandomCircuits)
{
    // Every library gate, random order and angles, vs the branchy oracle.
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
        Rng rng(100 + trial);
        const int n = 3 + static_cast<int>(rng.uniform_int(4ull)); // 3..6
        circuit::Circuit c(n);
        for (int q = 0; q < n; ++q)
            c.h(q);
        for (int k = 0; k < 60; ++k) {
            const int q = static_cast<int>(
                rng.uniform_int(static_cast<std::uint64_t>(n)));
            const int r = (q + 1 + static_cast<int>(rng.uniform_int(
                                       static_cast<std::uint64_t>(n - 1)))) %
                          n;
            switch (rng.uniform_int(8ull)) {
              case 0: c.h(q); break;
              case 1: c.x(q); break;
              case 2: c.sx(q); break;
              case 3: c.rz(q, rng.uniform(-3.0, 3.0)); break;
              case 4: c.rx(q, rng.uniform(-3.0, 3.0)); break;
              case 5: c.ry(q, circuit::Parameter::constant(rng.uniform(-3.0, 3.0))); break;
              case 6: c.cx(q, r); break;
              default: c.swap(q, r); break;
            }
        }
        NaiveState oracle(n);
        oracle.run(c);
        const auto sv = sim::run_circuit(c);
        EXPECT_LE(max_amp_diff(oracle.amps(), sv), 1e-12)
            << "trial " << trial;
    }
}

TEST(StridedKernels, PauliKernelsMatchMatrices)
{
    // Y and Z kernels against explicit matrix action on a random state.
    Rng rng(7);
    circuit::Circuit prep(3);
    for (int q = 0; q < 3; ++q) {
        prep.h(q);
        prep.rz(q, rng.uniform(-2.0, 2.0));
        prep.ry(q, circuit::Parameter::constant(rng.uniform(-2.0, 2.0)));
    }
    for (int pauli = 1; pauli <= 3; ++pauli) {
        auto sv = sim::run_circuit(prep);
        std::vector<Amp> expect(sv.dimension());
        const std::uint64_t bit = 2; // qubit 1
        for (std::uint64_t s = 0; s < sv.dimension(); ++s) {
            const Amp a = sv.amplitude(s);
            switch (pauli) {
              case 1: expect[s ^ bit] = a; break;
              case 2:
                expect[s ^ bit] =
                    ((s & bit) ? Amp{0.0, -1.0} : Amp{0.0, 1.0}) * a;
                break;
              default: expect[s] = (s & bit) ? -a : a; break;
            }
        }
        sv.apply_pauli(1, pauli);
        double worst = 0.0;
        for (std::uint64_t s = 0; s < sv.dimension(); ++s)
            worst = std::max(worst, std::abs(expect[s] - sv.amplitude(s)));
        EXPECT_LE(worst, 1e-12) << "pauli " << pauli;
    }
}

// ---------------------------------------------------------- fusion pass  --

TEST(FusionPass, QaoaCircuitCollapsesToLayers)
{
    const auto model = random_model(8, 42, /*with_linear=*/true);
    qaoa::BuildOptions opts;
    opts.num_layers = 2;
    const auto c = qaoa::build_qaoa_circuit(model, opts);
    const auto fused = circuit::fuse_diagonals(c);

    // Per layer one Diagonal (linear RZs + all ZZ sandwiches share
    // gamma_l) and one Mixer (RX wall shares beta_l); the opening H wall
    // and the trailing barrier+measures pass through as gates.
    EXPECT_EQ(fused.num_diagonal_ops(), 2);
    EXPECT_EQ(fused.num_mixer_ops(), 2);
    const int n = model.num_spins();
    const int terms = model.num_quadratic_terms();
    // Fused per layer: n linear RZ + 3*terms sandwich gates + n RX.
    EXPECT_EQ(fused.gates_fused(), 2 * (n + 3 * terms + n));
    EXPECT_EQ(fused.source_gates, static_cast<int>(c.size()));

    // Diagonal term masks: one per spin (linear) + one per edge.
    for (const auto& op : fused.ops) {
        if (op.kind != circuit::FusedOp::Kind::Diagonal)
            continue;
        EXPECT_EQ(static_cast<int>(op.terms.size()), n + terms);
    }
}

TEST(FusionPass, BrokenSandwichIsNotFused)
{
    // CX-RZ-CX only fuses when the RZ sits on the CX target and the CXs
    // match exactly.
    circuit::Circuit c(3);
    c.cx(0, 1);
    c.rz(0, 0.5); // on the control, not the target
    c.cx(0, 1);
    c.cx(0, 1);
    c.rz(1, 0.5);
    c.cx(1, 0); // reversed second CX
    const auto fused = circuit::fuse_diagonals(c);
    // Only the plain RZs become (single-qubit) diagonal ops.
    for (const auto& op : fused.ops)
        if (op.kind == circuit::FusedOp::Kind::Diagonal)
            for (const auto& term : op.terms)
                EXPECT_EQ(1, popcount64(term.mask));

    // And semantics are preserved regardless.
    NaiveState oracle(3);
    oracle.run(c);
    sim::Statevector out;
    sim::FusedProgram(fused).run({}, {}, out);
    EXPECT_LE(max_amp_diff(oracle.amps(), out), 1e-12);
}

TEST(FusionPass, MixedParameterRunsSplit)
{
    // gamma_0 and gamma_1 RZs may not share one scale; constants join
    // constants only.
    circuit::Circuit c(2);
    c.rz(0, circuit::Parameter::gamma(0, 1.0));
    c.rz(1, circuit::Parameter::gamma(1, 1.0));
    c.rz(0, 0.25);
    c.rz(1, 0.75);
    const auto fused = circuit::fuse_diagonals(c);
    EXPECT_EQ(fused.num_diagonal_ops(), 3); // gamma0 | gamma1 | constants
}

// ------------------------------------------------------------- programs  --

TEST(FusedProgram, AmplitudeExactOnRandomQaoaCircuits)
{
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
        Rng rng(500 + trial);
        const int n = 4 + static_cast<int>(rng.uniform_int(6ull)); // 4..9
        const int p = 1 + static_cast<int>(rng.uniform_int(3ull)); // 1..3
        const auto model = random_model(n, 900 + trial, trial % 2 == 0);

        qaoa::BuildOptions opts;
        opts.num_layers = p;
        opts.keep_zero_linear_rz = trial % 3 == 0;
        const auto c = qaoa::build_qaoa_circuit(model, opts);

        std::vector<double> gammas, betas;
        for (int l = 0; l < p; ++l) {
            gammas.push_back(rng.uniform(-2.0, 2.0));
            betas.push_back(rng.uniform(-2.0, 2.0));
        }

        NaiveState oracle(n);
        oracle.run(c.bind(gammas, betas));

        // Both LUT-compressed and raw-table programs must be exact.
        for (bool luts : {true, false}) {
            const sim::FusedProgram program(c, luts);
            EXPECT_TRUE(program.starts_uniform());
            sim::Statevector out;
            program.run(gammas, betas, out);
            EXPECT_LE(max_amp_diff(oracle.amps(), out), 1e-12)
                << "trial " << trial << " luts " << luts;
        }
    }
}

TEST(FusedProgram, LayersShareOneWeightTable)
{
    const auto model = random_model(8, 77, /*with_linear=*/true);
    qaoa::BuildOptions opts;
    opts.num_layers = 3;
    const sim::FusedProgram program(qaoa::build_qaoa_circuit(model, opts));
    EXPECT_EQ(program.num_diagonal_ops(), 3);
    // All three cost layers carry identical coefficients, so they compile
    // to ONE shared table.
    EXPECT_EQ(program.num_tables(), 1u);
}

TEST(DiagonalTable, UnitWeightsCompressToLevels)
{
    // +-1 edge weights: the weight table takes at most |E|+1 distinct
    // values, so the LUT kicks in; LUT and raw table must agree exactly.
    Rng rng(11);
    auto g = graph::barabasi_albert(10, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);

    std::vector<circuit::ParityTerm> terms;
    for (const auto& term : model.quadratic_terms())
        terms.push_back({(std::uint64_t(1) << term.i) |
                             (std::uint64_t(1) << term.j),
                         term.coefficient});

    const sim::DiagonalTable lut(terms, 10, /*build_lut=*/true);
    const sim::DiagonalTable raw(terms, 10, /*build_lut=*/false);
    EXPECT_TRUE(lut.compressed());
    EXPECT_FALSE(raw.compressed());
    EXPECT_LE(lut.num_levels(),
              static_cast<std::size_t>(model.num_quadratic_terms() + 1));
    for (std::uint64_t s = 0; s < lut.dimension(); ++s)
        ASSERT_DOUBLE_EQ(lut.weight(s), raw.weight(s));

    sim::Statevector a(10), b(10);
    for (int q = 0; q < 10; ++q) {
        a.apply_h(q);
        b.apply_h(q);
    }
    lut.apply(a.data(), 0.37);
    raw.apply(b.data(), 0.37);
    EXPECT_NEAR(a.overlap(b), 1.0, 1e-12);
}

TEST(EnergyTable, MatchesModelEvaluateState)
{
    const auto model = random_model(9, 13, /*with_linear=*/true);
    const sim::EnergyTable table(model);
    for (std::uint64_t s = 0; s < (1ull << 9); ++s)
        ASSERT_NEAR(table.values()[s], model.evaluate_state(s), 1e-10);
}

TEST(EnergyTable, ExpectationMatchesStatevector)
{
    const auto model = random_model(8, 29, /*with_linear=*/true);
    qaoa::BuildOptions opts;
    opts.include_measurements = false;
    const auto c = qaoa::build_qaoa_circuit(model, opts).bind({0.4}, {0.3});
    const auto sv = sim::run_circuit(c);
    const sim::EnergyTable table(model);
    EXPECT_NEAR(table.expectation(sv), sv.expectation_ising(model), 1e-9);
}

// ------------------------------------------------------- table builder --

/** The per-term reference: base, then every non-zero term in order,
 *  summed per state — the order the pre-doubling passes used. */
std::vector<double>
naive_parity_sums(const std::vector<circuit::ParityTerm>& terms, int n,
                  double base = 0.0)
{
    std::vector<double> w(std::uint64_t(1) << n, base);
    for (std::uint64_t s = 0; s < w.size(); ++s)
        for (const auto& term : terms)
            if (term.coefficient != 0.0)
                w[s] += (popcount64(s & term.mask) & 1) ? -term.coefficient
                                                       : term.coefficient;
    return w;
}

std::vector<double>
table_weights(const sim::DiagonalTable& table)
{
    std::vector<double> w(table.dimension());
    for (std::uint64_t s = 0; s < w.size(); ++s)
        w[s] = table.weight(s);
    return w;
}

bool
bitwise_equal(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::size_t
distinct_values(std::vector<double> w)
{
    std::sort(w.begin(), w.end());
    return static_cast<std::size_t>(std::unique(w.begin(), w.end()) -
                                    w.begin());
}

enum class Grid { Integer, HalfInteger, Step20, Gaussian };

const char*
grid_name(Grid grid)
{
    switch (grid) {
      case Grid::Integer: return "integer";
      case Grid::HalfInteger: return "half-integer";
      case Grid::Step20: return "2^-20 step";
      case Grid::Gaussian: return "gaussian";
    }
    return "?";
}

double
draw_coefficient(Grid grid, Rng& rng)
{
    switch (grid) {
      case Grid::Integer:
        return static_cast<double>(rng.uniform_int(-3, 3));
      case Grid::HalfInteger:
        return 0.5 * static_cast<double>(rng.uniform_int(-5, 5));
      case Grid::Step20:
        return std::ldexp(
            static_cast<double>(rng.uniform_int(-(1 << 21), 1 << 21)), -20);
      case Grid::Gaussian:
        return rng.normal();
    }
    return 0.0;
}

/** A constant, every 1-bit mask, 2n 2-bit masks, three 3- and 4-bit masks
 *  (as the width allows), plus explicit +0 and -0 coefficients. */
std::vector<circuit::ParityTerm>
random_terms(int n, Grid grid, Rng& rng)
{
    std::vector<circuit::ParityTerm> terms;
    terms.push_back({0, draw_coefficient(grid, rng)});
    for (int i = 0; i < n; ++i)
        terms.push_back({std::uint64_t(1) << i, draw_coefficient(grid, rng)});
    for (int bits = 2; bits <= std::min(n, 4); ++bits) {
        for (int k = 0; k < (bits == 2 ? 2 * n : 3); ++k) {
            std::uint64_t mask = 0;
            while (popcount64(mask) < bits)
                mask |= std::uint64_t(1) << rng.uniform_int(0, n - 1);
            terms.push_back({mask, draw_coefficient(grid, rng)});
        }
    }
    terms.push_back({std::uint64_t(1) << (n - 1), 0.0});
    terms.push_back({(std::uint64_t(1) << n) - 1, -0.0});
    return terms;
}

TEST(TableBuilder, ExactGridsMatchPerTermSumBitwise)
{
    // Integer, half-integer and 2^-20-step coefficients pass the
    // exactness predicate, so the doubling build must reproduce the
    // per-term sum bit for bit, in both storage forms.
    Rng rng(2024);
    for (int n = 1; n <= 14; ++n) {
        for (const Grid grid :
             {Grid::Integer, Grid::HalfInteger, Grid::Step20}) {
            const auto terms = random_terms(n, grid, rng);
            ASSERT_TRUE(sim::parity_sums_exact(terms))
                << n << " " << grid_name(grid);
            const auto reference = naive_parity_sums(terms, n);
            for (const bool lut : {false, true}) {
                const sim::DiagonalTable table(terms, n, lut);
                ASSERT_TRUE(bitwise_equal(table_weights(table), reference))
                    << n << " qubits, " << grid_name(grid) << ", lut "
                    << lut;
                EXPECT_EQ(table.compressed(),
                          lut && distinct_values(reference) <=
                                     sim::DiagonalTable::kMaxLevels);
                const auto& levels = table.levels();
                for (std::size_t k = 1; k < levels.size(); ++k)
                    ASSERT_LT(levels[k - 1], levels[k]);
            }
        }
    }
}

TEST(TableBuilder, GaussianWeightsStayWithinRoundingOfPerTermSum)
{
    // Off the exactness predicate the table keeps its raw double form;
    // only the summation order differs from the per-term reference.
    Rng rng(7);
    for (int n = 1; n <= 14; ++n) {
        const auto terms = random_terms(n, Grid::Gaussian, rng);
        ASSERT_FALSE(sim::parity_sums_exact(terms));
        double magnitude = 0.0;
        for (const auto& term : terms)
            magnitude += std::fabs(term.coefficient);
        const auto reference = naive_parity_sums(terms, n);
        const sim::DiagonalTable table(terms, n, /*build_lut=*/true);
        EXPECT_FALSE(table.compressed());
        for (std::uint64_t s = 0; s < reference.size(); ++s)
            ASSERT_NEAR(table.weight(s), reference[s], 1e-12 * magnitude)
                << n << " qubits, state " << s;
    }
}

TEST(TableBuilder, EnergyTableMatchesPerTermSumBitwise)
{
    // EnergyTable sums the offset, the linear terms, then the couplings —
    // integer and half-integer models reproduce that order bit for bit.
    for (const Grid grid : {Grid::Integer, Grid::HalfInteger}) {
        Rng rng(31);
        auto g = graph::barabasi_albert(12, 3, rng);
        auto model = ising::IsingModel::from_graph(g);
        std::vector<circuit::ParityTerm> terms;
        for (int i = 0; i < model.num_spins(); ++i) {
            model.set_linear(i, draw_coefficient(grid, rng));
            terms.push_back({std::uint64_t(1) << i, model.linear(i)});
        }
        for (const auto& term : model.quadratic_terms())
            terms.push_back({(std::uint64_t(1) << term.i) |
                                 (std::uint64_t(1) << term.j),
                             term.coefficient});
        model.set_offset(-2.5);
        ASSERT_TRUE(sim::parity_sums_exact(model));
        const sim::EnergyTable table(model);
        EXPECT_TRUE(bitwise_equal(table.values(),
                                  naive_parity_sums(terms, 12, -2.5)))
            << grid_name(grid);
    }
}

TEST(TableBuilder, SignedZerosMatchPerTermSum)
{
    // All-zero coefficients leave the base untouched, -0.0 included; one
    // non-zero term turns every exact zero into +0.0.
    ising::IsingModel zeros(5);
    zeros.set_linear(1, -0.0);
    zeros.add_quadratic(0, 3, 0.0);
    zeros.set_offset(-0.0);
    const sim::EnergyTable zero_table(zeros);
    for (const double e : zero_table.values())
        ASSERT_TRUE(e == 0.0 && std::signbit(e));

    ising::IsingModel cancelling(5);
    cancelling.set_linear(2, 1.0);
    cancelling.add_quadratic(0, 1, -1.0);
    cancelling.set_offset(-0.0);
    const std::vector<circuit::ParityTerm> terms = {
        {0b00001, 0.0}, {0b00010, 0.0}, {0b00100, 1.0}, {0b01000, 0.0},
        {0b10000, 0.0}, {0b00011, -1.0}};
    EXPECT_TRUE(bitwise_equal(sim::EnergyTable(cancelling).values(),
                              naive_parity_sums(terms, 5, -0.0)));

    const std::vector<circuit::ParityTerm> zero_terms = {
        {0b01, -0.0}, {0b11, 0.0}, {0, -0.0}};
    for (const bool lut : {false, true})
        EXPECT_TRUE(bitwise_equal(
            table_weights(sim::DiagonalTable(zero_terms, 2, lut)),
            std::vector<double>(4, 0.0)));
}

TEST(TableBuilder, ExactnessPredicateEdges)
{
    using Terms = std::vector<circuit::ParityTerm>;
    const double tiny = std::ldexp(1.0, -30);
    // Grid step: 2^-30 is the finest admitted.
    EXPECT_TRUE(sim::parity_sums_exact(Terms{{1, tiny}, {2, 3 * tiny}}));
    EXPECT_FALSE(sim::parity_sums_exact(Terms{{1, tiny / 2}}));
    // Magnitude: sum|c| * 2^q may reach 2^51, not pass it.
    const double big = std::ldexp(1.0, 50);
    EXPECT_TRUE(sim::parity_sums_exact(Terms{{1, big}, {2, -big}}));
    EXPECT_FALSE(sim::parity_sums_exact(Terms{{1, big}, {2, -big}, {4, 1}}));
    EXPECT_TRUE(sim::parity_sums_exact(
        Terms{{1, std::ldexp(1.0, 21) - 2 * tiny}, {2, tiny}}));
    EXPECT_FALSE(sim::parity_sums_exact(
        Terms{{1, std::ldexp(1.0, 21)}, {2, tiny}}));
    // The base counts toward the magnitude.
    EXPECT_TRUE(sim::parity_sums_exact(Terms{{1, big}}, big));
    EXPECT_FALSE(sim::parity_sums_exact(Terms{{1, big}}, big + 1));
    EXPECT_FALSE(sim::parity_sums_exact(Terms{{1, 1.0}}, 0.1));
    // Non-finite values are never exact.
    EXPECT_FALSE(sim::parity_sums_exact(Terms{{1, std::nan("")}}));
    EXPECT_FALSE(sim::parity_sums_exact(
        Terms{{1, std::numeric_limits<double>::infinity()}}));
    // Model overload: +-1 couplings pass, Gaussian ones do not.
    EXPECT_TRUE(sim::parity_sums_exact(test::ba_model(12, 3, 5)));
    Rng rng(5);
    auto g = graph::barabasi_albert(12, 3, rng);
    graph::assign_gaussian_weights(g, rng);
    EXPECT_FALSE(
        sim::parity_sums_exact(ising::IsingModel::from_graph(g)));

    // The edge cases that pass still build bit-identical tables.
    for (const Terms& terms :
         {Terms{{1, big / 2}, {2, -big / 2}, {3, big / 2}, {0, -big / 2}},
          Terms{{1, std::ldexp(1.0, 21) - 2 * tiny}, {2, tiny}, {3, tiny}},
          Terms{{0b111, 3 * tiny}, {0b101, -tiny}, {0b010, 5 * tiny}}}) {
        ASSERT_TRUE(sim::parity_sums_exact(terms));
        for (const bool lut : {false, true})
            EXPECT_TRUE(bitwise_equal(
                table_weights(sim::DiagonalTable(terms, 3, lut)),
                naive_parity_sums(terms, 3)));
    }
}

TEST(TableBuilder, LevelFormFollowsDistinctValueCount)
{
    // A grid too wide to index directly (2^20 beside 2^-20) still
    // compresses to its few levels.
    const std::vector<circuit::ParityTerm> wide = {
        {0b01, std::ldexp(1.0, 20)}, {0b10, std::ldexp(1.0, -20)},
        {0b11, 1.0}};
    const sim::DiagonalTable sparse(wide, 4, /*build_lut=*/true);
    EXPECT_TRUE(sparse.compressed());
    EXPECT_EQ(sparse.num_levels(), 4u);
    EXPECT_TRUE(bitwise_equal(table_weights(sparse),
                              naive_parity_sums(wide, 4)));

    // Weights 2^i take all 2^14 values: more than kMaxLevels, raw table.
    std::vector<circuit::ParityTerm> binary;
    for (int i = 0; i < 14; ++i)
        binary.push_back({std::uint64_t(1) << i, std::ldexp(1.0, i)});
    const sim::DiagonalTable dense(binary, 14, /*build_lut=*/true);
    EXPECT_FALSE(dense.compressed());
    EXPECT_TRUE(bitwise_equal(table_weights(dense),
                              naive_parity_sums(binary, 14)));
}

TEST(TableBuilder, RejectsMasksPastTheRegisterAndNonFiniteTerms)
{
    using Terms = std::vector<circuit::ParityTerm>;
    for (const bool lut : {false, true}) {
        EXPECT_THROW(sim::DiagonalTable(Terms{{0b1000, 1.0}}, 3, lut),
                     fq::Error);
        EXPECT_THROW(sim::DiagonalTable(Terms{{0b11, std::nan("")}}, 3, lut),
                     fq::Error);
        EXPECT_THROW(
            sim::DiagonalTable(
                Terms{{0b1, -std::numeric_limits<double>::infinity()}}, 3,
                lut),
            fq::Error);
    }
    ising::IsingModel nan_model(4);
    nan_model.set_linear(2, std::nan(""));
    EXPECT_THROW(sim::EnergyTable{nan_model}, fq::Error);

    // Three finite couplings whose magnitudes overflow when summed: the
    // file parses, every table build refuses it.
    const auto overflow = ising::parse_model(
        "ising 3\nJ 0 1 1e308\nJ 1 2 1e308\nJ 0 2 -1e308\n");
    EXPECT_FALSE(std::isfinite(overflow.coefficient_magnitude_sum()));
    EXPECT_THROW(sim::EnergyTable{overflow}, fq::Error);
    Terms terms;
    for (const auto& term : overflow.quadratic_terms())
        terms.push_back({(std::uint64_t(1) << term.i) |
                             (std::uint64_t(1) << term.j),
                         term.coefficient});
    EXPECT_THROW(sim::DiagonalTable(terms, 3, true), fq::Error);
    EXPECT_THROW(sim::FusedProgram(qaoa::build_qaoa_circuit(overflow, {})),
                 fq::Error);
}

// ---------------------------------------------------- evaluator + engine --

TEST(QaoaEvaluator, MatchesOneShotEvaluation)
{
    const auto model = random_model(8, 61, /*with_linear=*/false);
    qaoa::QaoaEvaluator evaluator(model, 2);
    for (std::uint64_t k = 0; k < 4; ++k) {
        Rng rng(700 + k);
        const std::vector<double> gammas{rng.uniform(-1.5, 1.5),
                                         rng.uniform(-1.5, 1.5)};
        const std::vector<double> betas{rng.uniform(-1.5, 1.5),
                                        rng.uniform(-1.5, 1.5)};
        const double fast = evaluator.energy(gammas, betas);
        const double slow =
            qaoa::evaluate_multilayer(model, gammas, betas).energy;
        EXPECT_NEAR(fast, slow, 1e-9);
    }
    EXPECT_EQ(evaluator.evaluations(), 4);
}

TEST(ExecutionEngine, FusedSolveBitIdenticalAcrossThreads)
{
    // The determinism guarantee must hold with the fast path on: the
    // fused program is compiled once in the shared cache and replayed per
    // task, so any thread count samples identical histograms.
    Rng rng_model(17);
    auto g = graph::barabasi_albert(11, 1, rng_model);
    graph::assign_random_pm1_weights(g, rng_model);
    const auto model = ising::IsingModel::from_graph(g);

    device::Device dev;
    dev.topology = device::make_grid(3, 4);
    dev.name = "grid-3x4-fusion";
    dev.calibration =
        device::Calibration::uniform(dev.topology, 1e-3, 5e-3, 500.0);

    frozenqubits::DriverConfig config;
    config.num_freeze = 2;

    ExecutionEngine serial(1);
    ExecutionEngine parallel(4);
    const auto a = serial.solve(model, dev, config, 1024, 91);
    const auto b = parallel.solve(model, dev, config, 1024, 91);

    EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
    EXPECT_EQ(a.best_assignment, b.best_assignment);
    ASSERT_EQ(a.distributions.size(), b.distributions.size());
    for (std::size_t s = 0; s < a.distributions.size(); ++s)
        EXPECT_EQ(a.distributions[s].histogram(),
                  b.distributions[s].histogram());
}

TEST(ExecutionEngine, FusedLeavesMatchGateByGateOracle)
{
    // Every leaf of a plan: the fused program the engine runs, on the
    // leaf's plan-time backend, against the gate-by-gate simulation of
    // the leaf's own circuit at the same angles.
    Rng rng_model(23);
    auto g = graph::barabasi_albert(12, 1, rng_model);
    graph::assign_random_pm1_weights(g, rng_model);
    const auto model = ising::IsingModel::from_graph(g);
    const auto dev = device::make_device("ibm-montreal");

    // 10-spin leaves run vectorized, 8-spin leaves scalar.
    for (int num_freeze : {2, 4}) {
        frozenqubits::DriverConfig config;
        config.num_freeze = num_freeze;
        engine::TemplateCache cache;
        Rng rng(config.seed);
        const auto tree =
            engine::build_solve_tree(model, dev, config, cache, rng);
        ASSERT_FALSE(tree.leaves.empty());
        for (const auto& leaf : tree.leaves) {
            const auto& sub =
                tree.nodes[static_cast<std::size_t>(leaf.node)].sub;
            const auto tuned =
                qaoa::optimize_p1(sub.model, config.p1_grid_resolution);
            const std::vector<double> gammas = {tuned.angles.gamma};
            const std::vector<double> betas = {tuned.angles.beta};

            sim::Statevector fused;
            cache.get_or_fuse(sub.model, leaf.build)
                ->run(gammas, betas, fused,
                      sim::BackendRegistry::instance().get(leaf.backend));
            sim::Statevector naive;
            sim::run_circuit(qaoa::build_qaoa_circuit(sub.model, leaf.build)
                                 .bind(gammas, betas),
                             naive);

            ASSERT_EQ(fused.dimension(), naive.dimension());
            for (std::uint64_t s = 0; s < fused.dimension(); ++s)
                ASSERT_LE(std::abs(fused.data()[s] - naive.data()[s]),
                          1e-12)
                    << "m=" << num_freeze << " leaf " << leaf.leaf_id
                    << " state " << s;
        }
    }
}

TEST(ExecutionEngine, RepeatedSolveRebindsFromResidentFamily)
{
    Rng rng_model(31);
    auto g = graph::barabasi_albert(10, 1, rng_model);
    graph::assign_random_pm1_weights(g, rng_model);
    const auto model = ising::IsingModel::from_graph(g);
    const auto dev = device::make_device("ibm-montreal");

    frozenqubits::DriverConfig config;
    config.num_freeze = 2;

    ExecutionEngine eng(2);
    const auto a = eng.solve(model, dev, config, 512, 3);
    const auto first = eng.template_cache().stats();
    // Every executed leaf built its own program.
    const auto leaves = static_cast<std::uint64_t>(
        eng.last_diagnostics().tasks_executed);
    EXPECT_GT(first.family_structural_compiles, 0u);
    EXPECT_EQ(first.family_binds, leaves);

    // The repeat pays no structural compile: the family stays resident,
    // and each leaf rebuilds its (dropped) program from its model.
    const auto b = eng.solve(model, dev, config, 512, 3);
    const auto second = eng.template_cache().stats();
    EXPECT_EQ(second.family_structural_compiles,
              first.family_structural_compiles);
    EXPECT_EQ(second.family_binds, first.family_binds + leaves);
    fq::test::expect_solves_identical(a, b);
}

// ------------------------------------------------ program from the model --

TEST(FusedProgram, FromModelMatchesCircuitFusion)
{
    // from_model skips the circuit build and the fusion scan; the fused
    // circuit stays the oracle. Its table sums the model's terms in the
    // builder's gate order, so even inexact (Gaussian) weights match bit
    // for bit, and amplitudes and sampled counts follow on every backend.
    // Zero linear terms must not matter either way: the table build skips
    // zero coefficients whether or not the builder emitted their RZs.
    struct Case
    {
        std::string name;
        ising::IsingModel model;
    };
    std::vector<Case> cases;
    {
        Rng rng(501);
        auto g = graph::barabasi_albert(12, 2, rng);
        graph::assign_random_pm1_weights(g, rng);
        auto ba = ising::IsingModel::from_graph(g);
        for (int i = 0; i < ba.num_spins(); ++i)
            ba.set_linear(i, rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0);
        cases.push_back({"ba-pm1", std::move(ba)});
    }
    {
        Rng rng(502);
        auto g = graph::complete(9);
        graph::assign_gaussian_weights(g, rng);
        auto sk = ising::IsingModel::from_graph(g);
        for (int i = 0; i < sk.num_spins(); ++i)
            sk.set_linear(i, rng.uniform(-1.0, 1.0));
        ASSERT_FALSE(sim::parity_sums_exact(sk));
        cases.push_back({"sk-gaussian", std::move(sk)});
    }
    {
        auto some_zero = random_model(10, 503, /*with_linear=*/true);
        for (int i = 0; i < some_zero.num_spins(); i += 3)
            some_zero.set_linear(i, 0.0);
        cases.push_back({"some-zero-h", std::move(some_zero)});
    }
    {
        ising::IsingModel single(1);
        single.set_linear(0, 0.75);
        cases.push_back({"width-1", std::move(single)});
    }
    {
        Rng rng(504);
        auto g = graph::barabasi_albert(20, 1, rng);
        graph::assign_random_pm1_weights(g, rng);
        cases.push_back({"width-20", ising::IsingModel::from_graph(g)});
    }

    const auto& registry = sim::BackendRegistry::instance();
    for (const auto& test_case : cases) {
        const int n = test_case.model.num_spins();
        const std::vector<double> flips(static_cast<std::size_t>(n), 0.03);
        for (const bool keep_zero : {false, true}) {
            for (int p : {1, 2, 3}) {
                SCOPED_TRACE(test_case.name + " p=" + std::to_string(p) +
                             (keep_zero ? " keep-zero-rz" : ""));
                qaoa::BuildOptions build;
                build.num_layers = p;
                build.keep_zero_linear_rz = keep_zero;
                const sim::FusedProgram oracle(
                    qaoa::build_qaoa_circuit(test_case.model, build));
                const auto program =
                    sim::FusedProgram::from_model(test_case.model, p);

                ASSERT_EQ(program.num_qubits(), oracle.num_qubits());
                EXPECT_TRUE(program.starts_uniform());
                EXPECT_TRUE(oracle.starts_uniform());
                EXPECT_EQ(program.num_diagonal_ops(),
                          oracle.num_diagonal_ops());
                EXPECT_EQ(program.num_mixer_ops(), oracle.num_mixer_ops());
                ASSERT_EQ(program.num_tables(), oracle.num_tables());
                EXPECT_EQ(program.table_bytes(), oracle.table_bytes());
                for (std::size_t k = 0; k < program.num_tables(); ++k) {
                    EXPECT_EQ(program.table(k).compressed(),
                              oracle.table(k).compressed());
                    EXPECT_TRUE(bitwise_equal(table_weights(program.table(k)),
                                              table_weights(oracle.table(k))));
                }

                Rng angles(static_cast<std::uint64_t>(600 + p));
                std::vector<double> gammas, betas;
                for (int l = 0; l < p; ++l) {
                    gammas.push_back(angles.uniform(-1.5, 1.5));
                    betas.push_back(angles.uniform(-1.5, 1.5));
                }
                for (const sim::Backend* backend :
                     {&registry.scalar(), &registry.vectorized()}) {
                    SCOPED_TRACE(backend->name());
                    sim::Statevector got, want;
                    program.run(gammas, betas, got, *backend);
                    oracle.run(gammas, betas, want, *backend);
                    ASSERT_EQ(got.dimension(), want.dimension());
                    EXPECT_TRUE(std::equal(got.data(),
                                           got.data() + got.dimension(),
                                           want.data()));
                    Rng got_rng(77), want_rng(77);
                    EXPECT_EQ(
                        sim::sample_noisy_counts(got, 0.8, flips, 512,
                                                 got_rng)
                            .histogram(),
                        sim::sample_noisy_counts(want, 0.8, flips, 512,
                                                 want_rng)
                            .histogram());
                }
            }
        }
    }
}

TEST(EnergyTable, MatchesEvaluateStateBitwiseOnExactModels)
{
    // Integer couplings, half-integer fields and offset: every sum is
    // exact, so the doubling build equals the per-state evaluation bit
    // for bit whatever its summation order.
    Rng rng(881);
    auto g = graph::barabasi_albert(10, 2, rng);
    auto model = ising::IsingModel::from_graph(g);
    for (const auto& term : model.quadratic_terms())
        model.add_quadratic(
            term.i, term.j,
            draw_coefficient(Grid::Integer, rng) - term.coefficient);
    for (int i = 0; i < model.num_spins(); ++i)
        model.set_linear(i, draw_coefficient(Grid::HalfInteger, rng));
    model.set_offset(-1.5);
    ASSERT_TRUE(sim::parity_sums_exact(model));
    const sim::EnergyTable table(model);
    std::vector<double> expected(table.values().size());
    for (std::uint64_t s = 0; s < expected.size(); ++s)
        expected[s] = model.evaluate_state(s);
    EXPECT_TRUE(bitwise_equal(table.values(), expected));
}

} // namespace
