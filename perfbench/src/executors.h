/**
 * @file
 * The two tracing executors the traced benchmark run installs behind
 * ExecutionEngine::set_leaf_executor. Neither changes what a leaf
 * produces; both only record spans.
 *
 *   TimingExecutor — a decorator around any LeafExecutor (the engine's
 *       local one, the StagedExecutor below, or a net::WorkerPool). It
 *       records one span per execute_wave call and, by chaining the
 *       caller's WaveHooks, one span per slot: `admit` marks the slot's
 *       start on the thread that runs it (for a remote slot, the dispatch
 *       on the driving thread) and `folded` its end.
 *   StagedExecutor — a local executor that runs each slot as the public
 *       stage calls simulate_scheduled_leaf is made of (angle search,
 *       fused-program lookup/bind, kernel, noisy sampling, fold), with one
 *       span per stage. Leaves that do not take the fused template path
 *       run as one simulate_scheduled_leaf span.
 */
#ifndef PERFBENCH_EXECUTORS_H
#define PERFBENCH_EXECUTORS_H

#include <atomic>
#include <mutex>
#include <vector>

#include "engine/engine.h"
#include "engine/wave_loop.h"
#include "trace.h"

namespace perfbench {

class TimingExecutor final : public fq::engine::LeafExecutor
{
  public:
    /** @p wave_name / @p slot_name: static span names, so a decorator
     *  around a WorkerPool's local arm can be told apart from the one
     *  around the pool. */
    TimingExecutor(fq::engine::LeafExecutor& inner, Tracer& tracer,
                   const char* wave_name, const char* slot_name);

    int execute_wave(const std::vector<fq::engine::WaveSlot>& wave,
                     const fq::engine::WaveHooks& hooks = {}) override;
    fq::engine::LeafExecutorStats request_stats(
        const fq::engine::WaveRequest* request) override
    {
        return inner_.request_stats(request);
    }
    void finish_request(const fq::engine::WaveRequest* request) override
    {
        inner_.finish_request(request);
    }

  private:
    fq::engine::LeafExecutor& inner_;
    Tracer& tracer_;
    const char* wave_name_;
    const char* slot_name_;
};

/** True when simulate_scheduled_leaf takes the fused template path for
 *  @p leaf — the path the StagedExecutor splits into stages. */
bool leaf_is_staged(const fq::engine::SolveLeaf& leaf);

/**
 * One leaf through the public stage calls, bit-identical to
 * simulate_scheduled_leaf for a staged leaf (leaf_is_staged). Records one
 * span per stage into @p tracer when non-null and adds the leaf's
 * computed kernel traffic to @p kernel_bytes when non-null.
 */
fq::sim::Counts simulate_leaf_staged(
    fq::engine::TemplateCache& cache, const fq::engine::SolveTree& tree,
    int leaf_id, const fq::device::Device& dev,
    const fq::frozenqubits::DriverConfig& config, int shots,
    fq::engine::BatchExecutor::Scratch& scratch, bool* fused_hit,
    fq::engine::TemplateTier* fuse_tier, Tracer* tracer,
    std::uint64_t request_id, double* kernel_bytes);

class StagedExecutor final : public fq::engine::LeafExecutor
{
  public:
    /** @p cache: the engine's own template cache, so lookups, binds and
     *  compiles land where the engine's path would put them. */
    StagedExecutor(fq::engine::TemplateCache& cache, int threads,
                   Tracer& tracer);

    int execute_wave(const std::vector<fq::engine::WaveSlot>& wave,
                     const fq::engine::WaveHooks& hooks = {}) override;

    long long staged_leaves() const { return staged_.load(); }
    long long fallback_leaves() const { return fallback_.load(); }
    /** Computed kernel bytes of every staged leaf so far. */
    std::vector<double> kernel_bytes() const;

  private:
    fq::engine::TemplateCache& cache_;
    fq::engine::BatchExecutor executor_;
    Tracer& tracer_;
    std::atomic<long long> staged_{0};
    std::atomic<long long> fallback_{0};
    mutable std::mutex bytes_mutex_; ///< guards kernel_bytes_
    std::vector<double> kernel_bytes_;
};

} // namespace perfbench

#endif // PERFBENCH_EXECUTORS_H
