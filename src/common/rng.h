/**
 * @file
 * Deterministic random-number generation.
 *
 * All stochastic components of the library (graph generators, calibration
 * synthesis, samplers, trajectory noise) take an explicit Rng so every
 * experiment is reproducible from a single seed. The generator is
 * xoshiro256++ seeded through splitmix64, which gives high-quality streams
 * from arbitrary 64-bit seeds and is trivially portable (unlike
 * std::mt19937_64 + std::uniform_*_distribution, whose outputs differ across
 * standard libraries).
 */
#ifndef FQ_COMMON_RNG_H
#define FQ_COMMON_RNG_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace fq {

/** splitmix64 step; used for seeding and for hashing strings to seeds. */
std::uint64_t splitmix64(std::uint64_t& state);

/** Stable 64-bit hash of a string (FNV-1a folded through splitmix64). */
std::uint64_t hash_seed(const std::string& text);

/** Combine two seeds into a new stream seed. */
std::uint64_t combine_seeds(std::uint64_t a, std::uint64_t b);

/**
 * Seed of the independent RNG stream owned by sub-problem @p index.
 *
 * Execution-order free: the stream depends only on (seed, index), never on
 * how many draws other sub-problems made, so a thread-pooled batch run
 * produces bit-identical samples to a serial one (the ExecutionEngine's
 * determinism guarantee).
 */
std::uint64_t subproblem_stream_seed(std::uint64_t seed,
                                     std::uint64_t subproblem_index);

/**
 * The integer form of a Bernoulli(@p p) draw. uniform() is
 * (x >> 11) * 2^-53, so uniform() < p holds exactly when
 * (x >> 11) < ceil(p * 2^53): p <= 0 and NaN give 0 (never true), p >= 1
 * gives 2^53 (always true).
 */
std::uint64_t bernoulli_threshold(double p);

/**
 * xoshiro256++ pseudo-random generator with convenience samplers.
 *
 * Satisfies UniformRandomBitGenerator, so it can also feed <random>
 * distributions where exact cross-platform stability is not required.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Derive an independent child stream (for per-device/per-run streams). */
    Rng fork(std::uint64_t salt);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64 random bits (one xoshiro256++ step). */
    result_type
    operator()()
    {
        const std::uint64_t result =
            rotl(state_[0] + state_[3], 23) + state_[0];
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1): 53 random mantissa bits. */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t uniform_int(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box–Muller (cached second value). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /**
     * The same draw as bernoulli(p) for @p threshold =
     * bernoulli_threshold(p): one step, compared without a call or a
     * conversion to double.
     */
    bool
    bernoulli_below(std::uint64_t threshold)
    {
        return ((*this)() >> 11) < threshold;
    }

    /** Random sign: -1 or +1 with equal probability. */
    int sign();

    /** Fisher–Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniform_int(static_cast<std::uint64_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Pick k distinct indices from [0, n) (k <= n). */
    std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                        std::size_t k);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

} // namespace fq

#endif // FQ_COMMON_RNG_H
