/**
 * @file
 * Unit tests for the common substrate: RNG determinism and statistics,
 * math helpers, table formatting, and bit operations.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/table.h"

namespace {

using namespace fq;

// The shared CRC-32 (checkpoint files AND net framing) must stay the
// IEEE 802.3 polynomial forever: both on-disk snapshots and the wire
// protocol depend on it. Known answers pin the exact variant.
TEST(Crc32, KnownAnswers)
{
    const auto crc = [](const std::string& s) {
        return common::crc32(
            reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
    };
    // The canonical CRC-32/ISO-HDLC check value.
    EXPECT_EQ(crc("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc(""), 0x00000000u);
    EXPECT_EQ(crc("a"), 0xE8B7BE43u);
    EXPECT_EQ(crc("abc"), 0x352441C2u);
}

TEST(Crc32, SensitiveToEveryByte)
{
    std::string payload(64, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 7 + 1);
    const auto base = common::crc32(
        reinterpret_cast<const std::uint8_t*>(payload.data()),
        payload.size());
    for (std::size_t i = 0; i < payload.size(); ++i) {
        std::string corrupted = payload;
        corrupted[i] ^= 0x20;
        EXPECT_NE(base,
                  common::crc32(reinterpret_cast<const std::uint8_t*>(
                                    corrupted.data()),
                                corrupted.size()))
            << "flip at byte " << i << " went undetected";
    }
}

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(123), b(124);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(std::uint64_t(7));
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues hit
}

TEST(Rng, UniformIntInclusiveRange)
{
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const auto v = rng.uniform_int(std::int64_t(-3), std::int64_t(3));
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, SignIsBalanced)
{
    Rng rng(17);
    int plus = 0;
    for (int i = 0; i < 10000; ++i)
        if (rng.sign() > 0)
            ++plus;
    EXPECT_NEAR(plus / 10000.0, 0.5, 0.03);
}

TEST(Rng, SampleWithoutReplacementIsDistinct)
{
    Rng rng(19);
    const auto idx = rng.sample_without_replacement(20, 8);
    EXPECT_EQ(idx.size(), 8u);
    std::set<std::size_t> s(idx.begin(), idx.end());
    EXPECT_EQ(s.size(), 8u);
    for (auto i : s)
        EXPECT_LT(i, 20u);
}

TEST(Rng, ForkProducesDistinctStream)
{
    Rng a(21);
    Rng b = a.fork(1);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, BernoulliThresholdDrawsMatchBernoulli)
{
    // Same seed, same draws: bernoulli_below(bernoulli_threshold(p)) must
    // agree with bernoulli(p) on every draw, at the clamps and near the
    // 2^-53 grid where the ceiling matters.
    const double tiny = std::numeric_limits<double>::denorm_min();
    std::vector<double> ps = {0.0,  -0.0, -0.5, std::nan(""), 1.0, 1.5,
                              tiny, 0x1.0p-53, 0.5, 0.02, 0.6,
                              std::nextafter(1.0, 0.0),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
    Rng pick(77);
    for (int k = 0; k < 32; ++k)
        ps.push_back(pick.uniform());
    EXPECT_EQ(bernoulli_threshold(0.0), 0u);
    EXPECT_EQ(bernoulli_threshold(std::nan("")), 0u);
    EXPECT_EQ(bernoulli_threshold(1.0), std::uint64_t{1} << 53);
    EXPECT_EQ(bernoulli_threshold(tiny), 1u);
    for (const double p : ps) {
        Rng a(5), b(5);
        const std::uint64_t threshold = bernoulli_threshold(p);
        for (int k = 0; k < 2000; ++k)
            ASSERT_EQ(a.bernoulli(p), b.bernoulli_below(threshold))
                << "p " << p << " draw " << k;
    }
    // The grid itself: with x >> 11 == t the draw is exactly t * 2^-53,
    // so p = t * 2^-53 is false and the next double up is true.
    for (const std::uint64_t t : {std::uint64_t{1}, std::uint64_t{12345},
                                  (std::uint64_t{1} << 52) + 3}) {
        const double on_grid = static_cast<double>(t) * 0x1.0p-53;
        EXPECT_EQ(bernoulli_threshold(on_grid), t);
        EXPECT_EQ(bernoulli_threshold(std::nextafter(on_grid, 1.0)), t + 1);
    }
}

TEST(Rng, HashSeedStable)
{
    EXPECT_EQ(hash_seed("ibm-montreal"), hash_seed("ibm-montreal"));
    EXPECT_NE(hash_seed("ibm-montreal"), hash_seed("ibm-toronto"));
}

TEST(MathUtils, MeanAndStddev)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(MathUtils, GeometricMean)
{
    EXPECT_NEAR(gmean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(gmean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    // Floor keeps non-positive entries from producing NaN.
    EXPECT_GT(gmean({0.0, 1.0}), 0.0);
}

TEST(MathUtils, Linspace)
{
    const auto v = linspace(0.0, 1.0, 5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v.front(), 0.0);
    EXPECT_DOUBLE_EQ(v.back(), 1.0);
    EXPECT_DOUBLE_EQ(v[2], 0.5);
    EXPECT_EQ(linspace(3.0, 9.0, 1).size(), 1u);
}

TEST(MathUtils, SafeRatioAndClamp)
{
    EXPECT_DOUBLE_EQ(safe_ratio(4.0, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(safe_ratio(4.0, 0.0, -1.0), -1.0);
    EXPECT_DOUBLE_EQ(clamp01(1.5), 1.0);
    EXPECT_DOUBLE_EQ(clamp01(-0.5), 0.0);
}

TEST(MathUtils, MinMax)
{
    EXPECT_DOUBLE_EQ(min_value({3.0, 1.0, 2.0}), 1.0);
    EXPECT_DOUBLE_EQ(max_value({3.0, 1.0, 2.0}), 3.0);
    EXPECT_THROW(min_value({}), Error);
}

TEST(Table, AlignedOutputAndCsv)
{
    Table t("demo");
    t.set_header({"n", "value"});
    t.add_row({Table::num(4), Table::num(3.14159, 2)});
    t.add_row({Table::num(8), Table::factor(2.5)});

    std::ostringstream text;
    t.print(text);
    EXPECT_NE(text.str().find("== demo =="), std::string::npos);
    EXPECT_NE(text.str().find("3.14"), std::string::npos);
    EXPECT_NE(text.str().find("2.50x"), std::string::npos);

    std::ostringstream csv;
    t.to_csv(csv);
    EXPECT_NE(csv.str().find("n,value"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RowWidthValidated)
{
    Table t("bad");
    t.set_header({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Bitops, SpinEncoding)
{
    // bit 0 -> spin +1; bit 1 -> spin -1.
    EXPECT_EQ(spin_of_bit(0b010, 0), +1);
    EXPECT_EQ(spin_of_bit(0b010, 1), -1);
    EXPECT_EQ(with_spin(0, 3, -1), 0b1000u);
    EXPECT_EQ(with_spin(0b1000, 3, +1), 0u);
    EXPECT_EQ(bit_of_spin(-1), 1u);
    EXPECT_EQ(bit_of_spin(+1), 0u);
}

TEST(Bitops, GrayCodeAdjacencyProperty)
{
    for (std::uint64_t n = 1; n < 4096; ++n) {
        const auto delta = gray_code(n) ^ gray_code(n - 1);
        EXPECT_EQ(popcount64(delta), 1);
        EXPECT_EQ(delta, std::uint64_t(1) << gray_flip_bit(n));
    }
}

TEST(Bitops, LowBitsMaskCoversTheRegisterWidthBoundary)
{
    EXPECT_EQ(low_bits_mask(0), 0u);
    EXPECT_EQ(low_bits_mask(1), 0b1u);
    EXPECT_EQ(low_bits_mask(5), 0b11111u);
    EXPECT_EQ(low_bits_mask(63), ~std::uint64_t{0} >> 1);
    // The boundary the naive (1 << n) - 1 idiom gets wrong: shifting a
    // 64-bit value by 64 is undefined, while a 64-spin mirror flip needs
    // the all-ones mask.
    EXPECT_EQ(low_bits_mask(64), ~std::uint64_t{0});
    EXPECT_EQ(low_bits_mask(100), ~std::uint64_t{0});
}

TEST(Error, RequireThrowsWithContext)
{
    try {
        FQ_REQUIRE(false, "special-context");
        FAIL() << "should have thrown";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("special-context"),
                  std::string::npos);
    }
}

} // namespace
