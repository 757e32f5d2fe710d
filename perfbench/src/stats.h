/**
 * @file
 * Summary statistics of the benchmark: the percentile rule, its
 * sample-count guard, and open-loop lateness accounting.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile: the smallest sample such that at least
 * ceil(p * N) samples are at or below it (p in (0, 1]). 0 for no samples.
 */
double percentile(std::vector<double> values, double p);

/** Samples strictly beyond the nearest-rank @p p percentile of @p n. */
std::size_t samples_beyond(std::size_t n, double p);

/**
 * Sample-count guard: a percentile is reportable only when at least
 * @p min_beyond samples lie beyond it (p90 needs >= 100 samples).
 */
bool percentile_supported(std::size_t n, double p,
                          std::size_t min_beyond = 10);

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/**
 * One open-loop request, timed from when it was DUE (its slot in the
 * fixed-rate schedule), not from when the generator got round to sending
 * it — a stalled generator must not hide the wait it imposed. Times in
 * seconds from the phase start.
 */
struct OpenLoopSample
{
    double due_s = 0.0;
    double sent_s = 0.0;
    double done_s = 0.0;
    bool ok = false; ///< completed and passed its output checks

    double latency_ms() const { return 1000.0 * (done_s - due_s); }
    double lag_ms() const { return 1000.0 * (sent_s - due_s); }
};

/** Fixed-rate schedule: request k is due at k / rate seconds. */
double due_time_s(std::size_t k, double rate_rps);

/** Latencies (ms, from due time) of the samples that completed ok. */
std::vector<double> open_loop_latencies_ms(
    const std::vector<OpenLoopSample>& samples);

/** Share of ALL samples that completed ok within @p limit_ms of their
 *  due time; failed or refused requests count as misses. */
double slo_attainment(const std::vector<OpenLoopSample>& samples,
                      double limit_ms);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
