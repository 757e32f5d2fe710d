#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace fq {

std::uint64_t
splitmix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
hash_seed(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    std::uint64_t s = h;
    return splitmix64(s);
}

std::uint64_t
combine_seeds(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
    return splitmix64(s);
}

std::uint64_t
subproblem_stream_seed(std::uint64_t seed, std::uint64_t subproblem_index)
{
    // Two splitmix rounds decorrelate the (small-integer) index from the
    // base seed; combine_seeds alone mixes only one round.
    std::uint64_t s = combine_seeds(seed, subproblem_index);
    return splitmix64(s);
}

std::uint64_t
bernoulli_threshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return std::uint64_t{1} << 53;
    // p * 2^53 is exact (a power-of-two scale) and below 2^53, so its
    // ceiling is an exact integer.
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

Rng::Rng(std::uint64_t seed)
{
    // Seed the four xoshiro words from splitmix64 per the reference
    // implementation's recommendation; avoids the all-zero state.
    std::uint64_t s = seed;
    for (auto& w : state_)
        w = splitmix64(s);
}

Rng
Rng::fork(std::uint64_t salt)
{
    return Rng(combine_seeds((*this)(), salt));
}

double
Rng::uniform(double lo, double hi)
{
    FQ_REQUIRE(lo <= hi, "empty uniform range");
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniform_int(std::uint64_t n)
{
    FQ_REQUIRE(n > 0, "uniform_int(0) is undefined");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = max() - max() % n;
    std::uint64_t x;
    do {
        x = (*this)();
    } while (x >= limit);
    return x % n;
}

std::int64_t
Rng::uniform_int(std::int64_t lo, std::int64_t hi)
{
    FQ_REQUIRE(lo <= hi, "empty uniform_int range");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_int(span));
}

double
Rng::normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

int
Rng::sign()
{
    return ((*this)() & 1) ? 1 : -1;
}

std::vector<std::size_t>
Rng::sample_without_replacement(std::size_t n, std::size_t k)
{
    FQ_REQUIRE(k <= n, "cannot sample more elements than available");
    // Floyd's algorithm would avoid materialising [0, n), but the library
    // only samples from small index sets, so the simple shuffle is clearer.
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = i;
    shuffle(idx);
    idx.resize(k);
    return idx;
}

} // namespace fq
