#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

/** 1-based nearest rank ceil(p * n), clamped to [1, n]. */
std::size_t
nearest_rank(std::size_t n, double p)
{
    // The epsilon keeps p * n that is integral in exact arithmetic (0.9 *
    // 100) from rounding up to the next rank.
    const auto rank =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const std::size_t rank = nearest_rank(values.size(), p);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

std::size_t
samples_beyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool
percentile_supported(std::size_t n, double p, std::size_t min_beyond)
{
    return n > 0 && samples_beyond(n, p) >= min_beyond;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
due_time_s(std::size_t k, double rate_rps)
{
    return static_cast<double>(k) / rate_rps;
}

std::vector<double>
open_loop_latencies_ms(const std::vector<OpenLoopSample>& samples)
{
    std::vector<double> out;
    out.reserve(samples.size());
    for (const auto& s : samples)
        if (s.ok)
            out.push_back(s.latency_ms());
    return out;
}

double
slo_attainment(const std::vector<OpenLoopSample>& samples, double limit_ms)
{
    if (samples.empty())
        return 0.0;
    std::size_t met = 0;
    for (const auto& s : samples)
        if (s.ok && s.latency_ms() <= limit_ms)
            ++met;
    return static_cast<double>(met) / static_cast<double>(samples.size());
}

} // namespace perfbench
