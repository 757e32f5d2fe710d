/**
 * @file
 * Tests for the simulation substrate: statevector gate semantics, sampling,
 * counts operations, the EPS and attenuation noise models (including the
 * trajectory-simulator cross-validation), and the ARG/AR metrics.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "common/bitops.h"
#include "common/error.h"
#include "device/catalog.h"
#include "graph/generators.h"
#include "ising/ising_model.h"
#include "qaoa/analytic_p1.h"
#include "qaoa/qaoa_builder.h"
#include "sim/counts.h"
#include "sim/noise_model.h"
#include "sim/statevector.h"
#include "sim/trajectory.h"

namespace {

using namespace fq;
using namespace fq::sim;

TEST(Statevector, InitialState)
{
    Statevector sv(3);
    EXPECT_NEAR(sv.probability(0), 1.0, 1e-12);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, HadamardCreatesSuperposition)
{
    Statevector sv(1);
    sv.apply_h(0);
    EXPECT_NEAR(sv.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(1), 0.5, 1e-12);
    sv.apply_h(0); // H^2 = I
    EXPECT_NEAR(sv.probability(0), 1.0, 1e-12);
}

TEST(Statevector, CnotTruthTable)
{
    // |10> (control q0 = 1) -> |11>.
    Statevector sv(2);
    sv.apply_x(0);
    sv.apply_cx(0, 1);
    EXPECT_NEAR(sv.probability(0b11), 1.0, 1e-12);

    // |01> (control q0 = 0) unchanged.
    Statevector sv2(2);
    sv2.apply_x(1);
    sv2.apply_cx(0, 1);
    EXPECT_NEAR(sv2.probability(0b10), 1.0, 1e-12);
}

TEST(Statevector, SwapGate)
{
    Statevector sv(2);
    sv.apply_x(0);
    sv.apply_swap(0, 1);
    EXPECT_NEAR(sv.probability(0b10), 1.0, 1e-12);
}

TEST(Statevector, SxSquaredIsX)
{
    Statevector a(1), b(1);
    a.apply_sx(0);
    a.apply_sx(0);
    b.apply_x(0);
    EXPECT_NEAR(a.overlap(b), 1.0, 1e-12);
}

TEST(Statevector, RzzEqualsCxRzCx)
{
    Rng rng(1);
    for (int trial = 0; trial < 4; ++trial) {
        const double theta = rng.uniform(-2.0, 2.0);
        Statevector a(3), b(3);
        // Random-ish product state first.
        for (auto* sv : {&a, &b}) {
            sv->apply_h(0);
            sv->apply_rx(1, 0.7);
            sv->apply_ry(2, -0.4);
        }
        a.apply_rzz(0, 2, theta);
        b.apply_cx(0, 2);
        b.apply_rz(2, theta);
        b.apply_cx(0, 2);
        EXPECT_NEAR(a.overlap(b), 1.0, 1e-10);
    }
}

TEST(Statevector, PauliYMatrix)
{
    // Y|0> = i|1>.
    Statevector sv(1);
    sv.apply_pauli(0, 2);
    EXPECT_NEAR(sv.amplitude(1).imag(), 1.0, 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 0.0, 1e-12);
}

TEST(Statevector, NormPreservedByRandomCircuit)
{
    Rng rng(2);
    Statevector sv(4);
    for (int k = 0; k < 50; ++k) {
        const int q = static_cast<int>(rng.uniform_int(std::uint64_t(4)));
        const int r = (q + 1) % 4;
        switch (rng.uniform_int(std::uint64_t(4))) {
          case 0: sv.apply_h(q); break;
          case 1: sv.apply_rx(q, rng.uniform(-1.0, 1.0)); break;
          case 2: sv.apply_rz(q, rng.uniform(-1.0, 1.0)); break;
          default: sv.apply_cx(q, r); break;
        }
    }
    EXPECT_NEAR(sv.norm(), 1.0, 1e-10);
}

TEST(Statevector, ExpectationIsingOnBasisState)
{
    ising::IsingModel m(2);
    m.add_quadratic(0, 1, 1.0);
    m.set_linear(0, 0.5);
    Statevector sv(2);
    sv.apply_x(0); // |01> basis: z0 = -1, z1 = +1
    EXPECT_NEAR(sv.expectation_ising(m), -1.0 - 0.5, 1e-12);
}

TEST(Statevector, SamplingFollowsBornRule)
{
    Statevector sv(2);
    sv.apply_h(0); // uniform over {00, 01}
    Rng rng(3);
    const auto samples = sv.sample(10000, rng);
    int ones = 0;
    for (auto s : samples) {
        ASSERT_TRUE(s == 0 || s == 1);
        if (s == 1)
            ++ones;
    }
    EXPECT_NEAR(ones / 10000.0, 0.5, 0.03);
}

TEST(Statevector, SamplingNeverEscapesTheDistribution)
{
    // Trailing zero-probability states: every draw must land on the lone
    // populated state, never on (or past) the zero tail — the lower_bound
    // clamp contract.
    Statevector sv(3);
    sv.apply_x(1); // deterministic |010> = state 2; states 3..7 have p=0
    Rng rng(41);
    for (std::uint64_t s : sv.sample(20000, rng))
        ASSERT_EQ(s, 2u);
}

TEST(Statevector, CachedCdfInvalidatedByMutation)
{
    // sample() caches the CDF; any state mutation must rebuild it.
    Statevector sv(1);
    Rng rng(43);
    for (std::uint64_t s : sv.sample(50, rng))
        ASSERT_EQ(s, 0u); // |0>
    sv.apply_x(0);
    for (std::uint64_t s : sv.sample(50, rng))
        ASSERT_EQ(s, 1u); // |1> — stale CDF would still yield 0
    sv.reset(1);
    for (std::uint64_t s : sv.sample(50, rng))
        ASSERT_EQ(s, 0u);
    // External writers through data() invalidate too.
    sv.data()[0] = {0.0, 0.0};
    sv.data()[1] = {1.0, 0.0};
    for (std::uint64_t s : sv.sample(50, rng))
        ASSERT_EQ(s, 1u);
}

TEST(Statevector, ExternalWritesInvalidateAWarmCdfCache)
{
    // The fused QAOA program writes amplitudes straight through data()
    // after reset_uniform(); a WARM sampling CDF from a previous leaf must
    // never leak into the next one. This is the exact
    // reuse-scratch-across-leaves pattern of the engine's workers.
    Statevector sv;
    sv.reset_uniform(3);
    Rng rng(7);
    (void)sv.sample(200, rng); // warm the CDF on the uniform state

    // Next "leaf": concentrate all weight on state 5 via external writes.
    auto* amps = sv.data();
    for (std::uint64_t s = 0; s < sv.dimension(); ++s)
        amps[s] = {0.0, 0.0};
    amps[5] = {1.0, 0.0};
    for (std::uint64_t s : sv.sample(200, rng))
        ASSERT_EQ(s, 5u); // a stale CDF would still draw uniformly

    // reset_uniform() itself must also invalidate.
    sv.reset_uniform(2);
    int seen[4] = {0, 0, 0, 0};
    for (std::uint64_t s : sv.sample(2000, rng)) {
        ASSERT_LT(s, 4u);
        ++seen[s];
    }
    for (int count : seen)
        EXPECT_GT(count, 0); // uniform again, not stuck on state 5
}

TEST(Statevector, RepeatedSamplingReusesCdfDeterministically)
{
    // Two equally-seeded generators on the same state draw identical
    // sequences whether the CDF was cold or warm.
    Statevector a(4), b(4);
    for (int q = 0; q < 4; ++q) {
        a.apply_h(q);
        b.apply_h(q);
    }
    Rng rng_warmup(1);
    b.sample(100, rng_warmup); // warm b's cache
    Rng rng_a(2), rng_b(2);
    EXPECT_EQ(a.sample(500, rng_a), b.sample(500, rng_b));
}

TEST(Counts, ExpectationAndBest)
{
    ising::IsingModel m(2);
    m.add_quadratic(0, 1, 1.0); // C(00)=C(11)=1, C(01)=C(10)=-1
    Counts c(2);
    c.add(0b00, 25);
    c.add(0b01, 75);
    EXPECT_NEAR(c.expectation(m), 0.25 * 1.0 + 0.75 * -1.0, 1e-12);
    const auto best = c.best(m);
    EXPECT_DOUBLE_EQ(best.cost, -1.0);
    EXPECT_EQ(best.state, 0b01u);
    EXPECT_EQ(best.multiplicity, 75u);
}

TEST(Counts, FlipAllBitsMapsMirrorExpectations)
{
    // Under h != 0 the mirror model's EV equals the flipped distribution's
    // EV — the identity the Section 3.7.2 inference relies on.
    Rng rng(4);
    ising::IsingModel m(3);
    m.set_linear(0, 0.7);
    m.add_quadratic(0, 2, -1.0);
    ising::IsingModel mirror(3);
    mirror.set_linear(0, -0.7);
    mirror.add_quadratic(0, 2, -1.0);

    Counts c(3);
    for (int k = 0; k < 50; ++k)
        c.add(rng() & 0b111);
    EXPECT_NEAR(c.flip_all_bits().expectation(mirror), c.expectation(m),
                1e-12);
    EXPECT_EQ(c.flip_all_bits().total_shots(), c.total_shots());
}

TEST(Counts, FlipAllBitsAtTheRegisterWidthBoundary)
{
    // 63 qubits is the widest register Counts supports; the flip mask must
    // cover every bit without the (1 << width) overflow the narrow widths
    // never exercise.
    Counts c(63);
    const std::uint64_t all = (~std::uint64_t{0}) >> 1; // 2^63 - 1
    const std::uint64_t high = std::uint64_t{1} << 62;
    c.add(0, 3);
    c.add(high, 2);
    c.add(all, 1);

    const auto flipped = c.flip_all_bits();
    EXPECT_EQ(flipped.total_shots(), 6u);
    EXPECT_EQ(flipped.count(all), 3u);
    EXPECT_EQ(flipped.count(all ^ high), 2u);
    EXPECT_EQ(flipped.count(0), 1u);
    // Involution: flipping twice restores the distribution.
    EXPECT_EQ(flipped.flip_all_bits().histogram(), c.histogram());

    // Beyond the boundary the constructor refuses (a 64-qubit histogram
    // could not distinguish "state" from "no state" in 64 bits of key).
    EXPECT_THROW(Counts(64), fq::Error);
    EXPECT_THROW(Counts(0), fq::Error);
}

TEST(Counts, AddKeepsEntriesSortedAndRefusesZeroCounts)
{
    Counts c(4);
    c.add(9, 2);
    c.add(3);
    c.add(12);
    c.add(3, 4);
    EXPECT_EQ(c.histogram(), (HistogramEntries{{3, 5}, {9, 2}, {12, 1}}));
    EXPECT_EQ(c.total_shots(), 8u);
    EXPECT_EQ(c.count(9), 2u);
    EXPECT_EQ(c.count(4), 0u);
    EXPECT_EQ(Counts::from_samples(4, {12, 3, 9, 3, 3, 9, 3, 3}).histogram(),
              c.histogram());
    // A zero-count entry is no observation; a restore would refuse it.
    EXPECT_THROW(c.add(5, 0), fq::Error);
    EXPECT_THROW(c.add(16), fq::Error);
    EXPECT_THROW(Counts::from_samples(4, {1, 16}), fq::Error);
    EXPECT_EQ(c.total_shots(), 8u);
}

TEST(Counts, MergeAndTvd)
{
    Counts a(2), b(2);
    a.add(0, 10);
    b.add(1, 10);
    EXPECT_NEAR(a.total_variation_distance(b), 1.0, 1e-12);
    a.merge(b);
    EXPECT_EQ(a.total_shots(), 20u);
    EXPECT_NEAR(a.probability(0), 0.5, 1e-12);
}

TEST(Counts, ReadoutErrorsFlipBits)
{
    Counts clean(4);
    clean.add(0b0000, 2000);
    Rng rng(5);
    const auto noisy =
        apply_readout_errors(clean, {0.5, 0.0, 0.0, 0.0}, rng);
    // Qubit 0 flips half the time; others never.
    std::uint64_t flipped = 0;
    for (const auto& [state, count] : noisy.histogram()) {
        ASSERT_TRUE(state == 0b0000 || state == 0b0001);
        if (state == 1)
            flipped = count;
    }
    EXPECT_NEAR(flipped / 2000.0, 0.5, 0.05);
}

// ------------------------------------------------------ sampler pin --
// One FNV-1a digest per register width over everything the sampled path
// produces: the entries of sample_noisy_counts across survival and
// readout-flip rates, the entries of from_samples, flip_all_bits, merge
// and apply_readout_errors, and the bits of expectation, best and
// total_variation_distance. A storage or sampler change that moves one
// RNG draw, one entry or one summation order fails here.

class CountsDigest
{
  public:
    void add(std::uint64_t value)
    {
        for (int k = 0; k < 8; ++k) {
            hash_ ^= (value >> (8 * k)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        add(bits);
    }

    void add(const Counts& counts)
    {
        add(static_cast<std::uint64_t>(counts.num_qubits()));
        add(counts.total_shots());
        add(static_cast<std::uint64_t>(counts.num_distinct()));
        for (const auto& [state, count] : counts.histogram()) {
            add(state);
            add(count);
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** A non-uniform entangled state: every width samples with repeats. */
Statevector
pin_state(int width)
{
    Statevector sv(width);
    for (int q = 0; q < width; ++q) {
        sv.apply_h(q);
        sv.apply_ry(q, 0.3 + 0.1 * q);
    }
    for (int q = 0; q + 1 < width; ++q)
        sv.apply_rzz(q, q + 1, 0.7 + 0.05 * q);
    for (int q = 0; q < width; ++q)
        sv.apply_rx(q, 0.4);
    return sv;
}

ising::IsingModel
pin_ising(int width, Rng& rng)
{
    ising::IsingModel model(width);
    for (int i = 0; i < width; ++i)
        model.set_linear(i, rng.uniform(-1.0, 1.0));
    for (int i = 0; i + 1 < width; ++i)
        model.add_quadratic(i, i + 1, rng.uniform(-1.0, 1.0));
    return model;
}

std::uint64_t
sampler_digest(int width)
{
    CountsDigest d;
    const auto sv = pin_state(width);
    Rng model_rng(900 + static_cast<std::uint64_t>(width));
    const auto model = pin_ising(width, model_rng);
    std::uint64_t seed = 17 * static_cast<std::uint64_t>(width);
    for (const double survival : {0.0, 0.6, 1.0}) {
        for (const double flip : {0.0, 0.02}) {
            Rng rng(++seed);
            const auto noisy = sample_noisy_counts(
                sv, survival, std::vector<double>(width, flip), 4096, rng);
            d.add(noisy);

            const auto flipped = noisy.flip_all_bits();
            d.add(flipped);
            auto merged = noisy;
            merged.merge(flipped);
            d.add(merged);
            const auto readout = apply_readout_errors(
                noisy, std::vector<double>(width, 0.05), rng);
            d.add(readout);
            // Raw shots in draw order, with uniform strays appended.
            auto samples = sv.sample(300, rng);
            for (int k = 0; k < 40; ++k)
                samples.push_back(rng() & ((std::uint64_t{1} << width) - 1));
            const auto raw = Counts::from_samples(width, samples);
            d.add(raw);

            d.add(noisy.expectation(model));
            const auto best = noisy.best(model);
            d.add(best.cost);
            d.add(best.state);
            d.add(best.multiplicity);
            d.add(noisy.total_variation_distance(readout));
            d.add(readout.total_variation_distance(raw));
        }
    }
    return d.value();
}

TEST(Counts, SamplerAndTransformsArePinned)
{
    const std::pair<int, std::uint64_t> pins[] = {
        {1, 0x22a6718986051d7fULL},  {5, 0xbb9f10a165ce219cULL},
        {12, 0x03edef840599900aULL}, {16, 0x490b63591305d9d5ULL},
        {18, 0xca9e6ba48c98c7aaULL},
    };
    for (const auto& [width, pinned] : pins) {
        const auto digest = sampler_digest(width);
        EXPECT_EQ(digest, pinned)
            << "width " << width << ": 0x" << std::hex << digest;
    }
}

// ------------------------------------------------- fast-path oracles --
// The sampler's guided CDF search, the radix histogram build and the
// threshold readout flips each replace a simpler form kept here; they must
// give the same states, in the same order, from the same draws.

/** sample() as a plain lower_bound over the whole CDF. */
std::vector<std::uint64_t>
sample_by_global_search(const Statevector& sv, int shots, Rng& rng)
{
    std::vector<double> cdf(sv.dimension());
    double acc = 0.0;
    for (std::uint64_t s = 0; s < sv.dimension(); ++s) {
        acc += std::norm(sv.data()[s]);
        cdf[s] = acc;
    }
    const double total = cdf.back();
    std::vector<std::uint64_t> out;
    for (int k = 0; k < shots; ++k) {
        const double u = rng.uniform() * total;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        out.push_back(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(it - cdf.begin()), cdf.size() - 1));
    }
    return out;
}

/** A state whose mass sits on a few states between long zero runs, so
 *  guide buckets start and end inside runs of equal CDF values; the
 *  squared norm is @p total. */
Statevector
clustered_state(int width, double total)
{
    Statevector sv(width);
    auto* amps = sv.data();
    const std::uint64_t dim = sv.dimension();
    amps[0] = {0.0, 0.0};
    const std::uint64_t heavy[] = {0, dim / 3, dim / 3 + 1, dim / 2,
                                   dim - 5, dim - 1};
    const double mass[] = {0.3, 0.01, 0.0001, 0.45, 0.2399, 0.0};
    for (std::size_t k = 0; k < std::size(heavy); ++k)
        if (heavy[k] < dim) // dim - 5 wraps at the narrowest widths
            amps[heavy[k]] += std::sqrt(mass[k] * total);
    // A sprinkle of tiny amplitudes on odd states of the first quarter.
    for (std::uint64_t s = 1; s < dim / 4; s += 2)
        amps[s] += 1e-9 * std::sqrt(total);
    return sv;
}

TEST(Statevector, GuidedSamplingMatchesAGlobalSearch)
{
    std::vector<std::pair<std::string, Statevector>> cases;
    for (const double total : {1.0, 0.37, 2.9}) {
        for (const int width : {1, 5, 12, 14}) {
            cases.emplace_back("clustered " + std::to_string(width) + " x" +
                                   std::to_string(total),
                               clustered_state(width, total));
            Statevector uniform;
            // Width 12 puts every CDF value exactly on a bucket bound.
            uniform.reset_uniform(width);
            for (std::uint64_t s = 0; s < uniform.dimension(); ++s)
                uniform.data()[s] *= std::sqrt(total);
            cases.emplace_back("uniform " + std::to_string(width) + " x" +
                                   std::to_string(total),
                               uniform);
        }
    }
    cases.emplace_back("pinned 12", pin_state(12));
    Statevector one_sided(1);
    cases.emplace_back("width 1 on |0>", one_sided);
    Statevector zero(3);
    zero.data()[0] = {0.0, 0.0};
    cases.emplace_back("all zero", zero);
    Statevector with_nan(4);
    with_nan.data()[9] = {std::nan(""), 0.0};
    cases.emplace_back("nan amplitude", with_nan);
    Statevector with_inf(4);
    with_inf.data()[5] = {std::numeric_limits<double>::infinity(), 0.0};
    cases.emplace_back("inf amplitude", with_inf);

    // At total 1 a draw lands exactly on a bucket bound about once in
    // 4096, so 50,000 shots reach that edge case many times.
    for (const auto& [name, sv] : cases) {
        for (const int shots : {0, 1, 50000}) {
            Rng a(shots + 3), b(shots + 3);
            const auto got = sv.sample(shots, a);
            EXPECT_EQ(got, sample_by_global_search(sv, shots, b))
                << name << ", " << shots << " shots";
            EXPECT_EQ(a(), b()) << name << ": draw count differs";
        }
    }
}

/** from_samples as std::sort plus a run-length merge. */
HistogramEntries
entries_by_sort(std::vector<std::uint64_t> samples)
{
    std::sort(samples.begin(), samples.end());
    HistogramEntries out;
    for (const std::uint64_t s : samples) {
        if (!out.empty() && out.back().first == s)
            ++out.back().second;
        else
            out.emplace_back(s, 1);
    }
    return out;
}

TEST(Counts, RadixHistogramBuildMatchesASort)
{
    Rng rng(8);
    for (const int width : {1, 8, 9, 16, 63}) {
        const std::uint64_t mask = low_bits_mask(width);
        std::vector<std::vector<std::uint64_t>> inputs;
        for (const std::size_t n : {1u, 2u, 300u, 4096u}) {
            std::vector<std::uint64_t> spread(n), narrow(n);
            // Narrow: few distinct states that share every high digit.
            const std::uint64_t high = (rng() & mask) & ~std::uint64_t{0xf};
            for (std::size_t k = 0; k < n; ++k) {
                spread[k] = rng() & mask;
                narrow[k] = high | (rng() & 0xf & mask);
            }
            inputs.push_back(spread);
            inputs.push_back(narrow);
        }
        inputs.push_back({mask, 0, mask, 0});
        for (const auto& samples : inputs) {
            const auto counts = Counts::from_samples(width, samples);
            EXPECT_EQ(counts.histogram(), entries_by_sort(samples))
                << "width " << width << ", " << samples.size() << " samples";
            EXPECT_EQ(counts.total_shots(), samples.size());
        }
        EXPECT_THROW(
            Counts::from_samples(width, {0, std::uint64_t{1} << width, 1}),
            Error)
            << "width " << width;
    }
    EXPECT_EQ(Counts::from_samples(5, {}).num_distinct(), 0u);
}

TEST(Counts, ThresholdReadoutFlipsMatchPerQubitBernoulli)
{
    Rng pick(4);
    for (const int width : {1, 7, 20}) {
        std::vector<double> flip(static_cast<std::size_t>(width));
        for (auto& p : flip)
            p = pick.uniform();
        flip[0] = width == 1 ? 0.3 : 0.0;
        if (width > 2) {
            flip[1] = 1.0;
            flip[2] = std::nan("");
        }
        std::vector<std::uint64_t> samples(500);
        for (auto& s : samples)
            s = pick() & low_bits_mask(width);
        auto want = samples;
        Rng a(21), b(21);
        flip_readout_bits(samples, flip, a);
        for (std::uint64_t& s : want)
            for (int q = 0; q < width; ++q)
                if (b.bernoulli(flip[static_cast<std::size_t>(q)]))
                    s ^= std::uint64_t{1} << q;
        EXPECT_EQ(samples, want) << "width " << width;
        EXPECT_EQ(a(), b());
    }
}

TEST(NoiseModel, AttenuationBoundsAndMonotonicity)
{
    const auto dev = device::make_device("ibm-montreal");
    circuit::Circuit small(27), large(27);
    for (int k = 0; k < 4; ++k)
        small.cx(0, 1);
    for (int k = 0; k < 40; ++k)
        large.cx(0, 1);

    const auto a_small = compute_attenuation(small, dev.calibration);
    const auto a_large = compute_attenuation(large, dev.calibration);
    for (int q : {0, 1}) {
        EXPECT_GT(a_small.z_survival(q), 0.0);
        EXPECT_LE(a_small.z_survival(q), 1.0);
        // More gates on the same wire -> strictly less survival.
        EXPECT_LT(a_large.z_survival(q), a_small.z_survival(q));
    }
    // Untouched qubits only suffer decoherence+readout, not gate error.
    EXPECT_GT(a_large.gate_survival[5], 0.999999);
    EXPECT_FALSE(a_large.active[5]);
    EXPECT_TRUE(a_large.active[0]);
}

TEST(NoiseModel, EpsDecreasesWithCircuitSize)
{
    const auto dev = device::make_device("ibm-montreal");
    circuit::Circuit c(27);
    double previous = 1.0;
    for (int round = 0; round < 5; ++round) {
        for (int k = 0; k < 10; ++k)
            c.cx(1, 2);
        const double eps =
            expected_probability_of_success(c, dev.calibration);
        EXPECT_LT(eps, previous);
        EXPECT_GT(eps, 0.0);
        previous = eps;
    }
}

TEST(NoiseModel, RzIsErrorFree)
{
    const auto dev = device::make_device("ibm-montreal");
    circuit::Circuit c(27);
    for (int k = 0; k < 100; ++k)
        c.rz(0, 0.1);
    const auto att = compute_attenuation(c, dev.calibration);
    EXPECT_DOUBLE_EQ(att.gate_survival[0], 1.0);
}

TEST(NoiseModel, NoisyExpectationAttenuatesTowardOffset)
{
    Rng rng(6);
    auto g = graph::barabasi_albert(8, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    auto model = ising::IsingModel::from_graph(g);
    model.set_offset(2.0);

    const auto dev = device::make_device("ibm-montreal");
    const auto logical = qaoa::build_qaoa_circuit(model);
    const auto tuned = qaoa::optimize_p1(model, 24);
    const auto ideal = qaoa::evaluate_p1(model, tuned.angles);

    // Identity placement on a fake all-good circuit: zero gates -> only
    // readout attenuation applies.
    circuit::Circuit empty(27);
    const auto att = compute_attenuation(empty, dev.calibration);
    std::vector<int> placement(8);
    for (int i = 0; i < 8; ++i)
        placement[i] = i;
    const double ev =
        noisy_expectation(model, ideal.z, ideal.zz, att, placement);

    // Noisy EV sits between the ideal EV and the offset (fully mixed).
    EXPECT_GT(ev, tuned.energy);
    EXPECT_LT(ev, model.offset() + 1e-9);
    (void)logical;
}

TEST(NoiseModel, SampledCountsInterpolateIdealAndUniform)
{
    // survival=1 reproduces the ideal distribution; survival=0 is uniform.
    Statevector sv(3);
    sv.apply_x(0); // deterministic |001>
    Rng rng(7);
    const std::vector<double> no_flip(3, 0.0);

    const auto ideal = sample_noisy_counts(sv, 1.0, no_flip, 500, rng);
    EXPECT_EQ(ideal.num_distinct(), 1u);
    EXPECT_NEAR(ideal.probability(1), 1.0, 1e-12);

    const auto mixed = sample_noisy_counts(sv, 0.0, no_flip, 4000, rng);
    EXPECT_GT(mixed.num_distinct(), 6u);
    EXPECT_NEAR(mixed.probability(1), 1.0 / 8.0, 0.05);
}

TEST(NoiseModel, TrajectorySimAgreesWithAttenuationModel)
{
    // 6-qubit ring QAOA on a linear device with uniform errors: the
    // closed-form attenuated EV and the Monte-Carlo EV must land within
    // sampling error of each other.
    Rng rng(8);
    auto g = graph::path(6);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);

    device::Device dev;
    dev.topology = device::make_linear(6);
    dev.name = "linear-6";
    dev.calibration =
        device::Calibration::uniform(dev.topology, 0.02, 0.02, 300.0);

    const auto tuned = qaoa::optimize_p1(model, 24);
    qaoa::BuildOptions opts;
    const auto logical = qaoa::build_qaoa_circuit(model, opts);
    const auto bound =
        logical.bind({tuned.angles.gamma}, {tuned.angles.beta});

    std::vector<int> identity{0, 1, 2, 3, 4, 5};

    const auto att = compute_attenuation(bound, dev.calibration);
    const auto ideal = qaoa::evaluate_p1(model, tuned.angles);
    const double analytic_ev =
        noisy_expectation(model, ideal.z, ideal.zz, att, identity);

    TrajectoryConfig config;
    config.num_trajectories = 400;
    config.shots_per_trajectory = 16;
    Rng traj_rng(9);
    const auto mc = simulate_trajectories(bound, dev.calibration, model,
                                          identity, config, traj_rng);

    // Both must attenuate the ideal EV; agreement within the Monte-Carlo
    // band (models differ in error placement, so the band is generous).
    EXPECT_LT(analytic_ev, 0.0);
    EXPECT_LT(mc.expectation, 0.0);
    EXPECT_GT(analytic_ev, tuned.energy);
    EXPECT_GT(mc.expectation, tuned.energy);
    EXPECT_NEAR(mc.expectation, analytic_ev,
                0.35 * std::abs(tuned.energy));
    EXPECT_GT(mc.error_events, 0);
}

TEST(Metrics, ApproximationRatioGap)
{
    EXPECT_DOUBLE_EQ(approximation_ratio_gap(-10.0, -10.0), 0.0);
    EXPECT_DOUBLE_EQ(approximation_ratio_gap(-10.0, -5.0), 50.0);
    EXPECT_DOUBLE_EQ(approximation_ratio_gap(-10.0, 0.0), 100.0);
    EXPECT_DOUBLE_EQ(approximation_ratio_gap(0.0, 5.0), 0.0); // guarded
}

TEST(Metrics, ApproximationRatio)
{
    EXPECT_DOUBLE_EQ(approximation_ratio(-5.0, -10.0), 0.5);
    EXPECT_THROW(approximation_ratio(-5.0, 10.0), Error);
}

} // namespace
