/**
 * @file
 * In-memory span recorder for the traced benchmark run. Spans are taken
 * from the benchmark's own files around public engine calls (solve and
 * submit boundaries, the LeafExecutor seam, WaveHooks, the per-leaf stage
 * functions), kept in memory, and written out as trace-event JSON when
 * the run ends. Self time is a span's duration minus the part of it that
 * its children cover.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nesting level of a span; a span's parent sits one level up. */
enum class Level : int { Request = 0, Wave = 1, Slot = 2, Stage = 3 };

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = none
    std::uint64_t request = 0; ///< request id; 0 = shared by several
    int leaf = -1;             ///< leaf id for slot and stage spans
    Level level = Level::Request;
    const char* name = "";     ///< static string
    std::int64_t start_ns = 0; ///< since the tracer's epoch
    std::int64_t end_ns = 0;
    int thread = 0;

    std::int64_t duration_ns() const { return end_ns - start_ns; }
    double duration_ms() const
    {
        return 1e-6 * static_cast<double>(duration_ns());
    }
};

class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    std::int64_t to_ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count();
    }
    std::int64_t now_ns() const { return to_ns(Clock::now()); }

    /** A fresh span id (thread-safe). */
    std::uint64_t next_id() { return next_id_.fetch_add(1); }

    /** Record @p span (an id is assigned when it has none); thread-safe. */
    std::uint64_t add(Span span);
    /** Record many spans under one lock. */
    void add_all(std::vector<Span> spans);

    std::vector<Span> spans() const;

    /** Small dense index of the calling thread (trace-event tid). */
    static int thread_index();

  private:
    Clock::time_point epoch_;
    std::atomic<std::uint64_t> next_id_{1};
    mutable std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
};

/** Total length covered by half-open [start, end) intervals. */
std::int64_t union_length_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

/**
 * Give every parentless span below Level::Request the span one level up
 * that has the same request (or a shared one), the same leaf when both
 * name one, and contains its interval. Spans with no such candidate stay
 * roots.
 */
void link_parents(std::vector<Span>& spans);

/** Self time of each span (same order as @p spans): its duration minus
 *  the union of its children's intervals clipped to it. */
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/** Write Chrome trace-event JSON (each span's id, parent, request, leaf
 *  and self time in its args); false when the file cannot be written. */
bool write_trace_events(const std::vector<Span>& spans,
                        const std::string& path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
