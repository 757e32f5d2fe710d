/**
 * @file
 * ExecutionEngine: the plan / execute / reduce orchestration layer.
 *
 * FrozenQubits' core cost is running 2^{m-1} independent sub-problem
 * circuits per instance (Sections 3.5/3.7). The engine splits that work
 * into three strictly separated stages:
 *
 *   Planner        (plan.h)           — serial; freeze assignments, mirror
 *                                       links, shared compiled template,
 *                                       per-task RNG stream seeds;
 *   BatchExecutor  (batch_executor.h) — parallel; fixed thread pool,
 *                                       per-worker Statevector scratch,
 *                                       results keyed by task index;
 *   Reducer        (reducer.h)        — serial; folds per-task results
 *                                       into Report / SampledSolve.
 *
 * Determinism guarantee: the plan fixes every order-dependent decision
 * before any task runs, tasks own disjoint result slots and private RNG
 * streams derived from (seed, sub-problem index), and reduction runs in
 * plan order — so any thread count produces bit-identical results.
 *
 * solve() and resume() take the request path of the multi-tenant
 * SolveService (wave_loop.h): one seed-keyed planning sequence
 * (plan_request), the wave-synchronous epoch loop and one counters record
 * (RequestCounters). Adaptive budget re-ranking
 * (DriverConfig::rerank_interval) rewrites the schedule's un-dispatched
 * tail between epochs as a pure function of the fold count, preserving
 * the guarantee above.
 *
 * The legacy driver API (run_pipeline / evaluate_instance /
 * solve_with_sampling) is a thin facade over this class; hold an engine
 * directly to reuse its thread pool and template cache across calls
 * (benchmark sweeps, servers). One engine instance must be driven from one
 * thread at a time; parallelism lives inside.
 */
#ifndef FQ_ENGINE_ENGINE_H
#define FQ_ENGINE_ENGINE_H

#include <cstdint>
#include <vector>

#include "engine/batch_executor.h"
#include "engine/checkpoint.h"
#include "engine/plan.h"
#include "engine/reducer.h"
#include "engine/scheduler.h"
#include "engine/solve_tree.h"
#include "engine/template_cache.h"
#include "engine/wave_loop.h"
#include "frozenqubits/driver.h"

namespace fq::engine {

class SolveService;

/**
 * Simulate one scheduled leaf of @p tree: tune its angles, read noise
 * quantities from the leaf's shared template (a leaf wider than the device
 * has none and throws), run its fused program on the leaf's plan-time
 * backend into @p scratch and sample noisy counts on the leaf's private
 * plan-derived RNG stream. @p dev is not consulted: the leaf's template
 * was compiled for it at plan time.
 *
 * The ONE leaf-execution definition, shared by ExecutionEngine::solve and
 * the SolveService's cross-request waves: a pure function of
 * (cache contents, tree, leaf, config, shots), so WHERE a leaf runs —
 * which worker, which wave, alongside whose leaves — can never change its
 * counts. @p fused_hit and @p fuse_tier are placeholders kept for source
 * compatibility with perfbench: when non-null they are set to false and
 * TemplateTier::Compile.
 */
sim::Counts simulate_scheduled_leaf(TemplateCache& cache,
                                    const SolveTree& tree, int leaf_id,
                                    const device::Device& dev,
                                    const frozenqubits::DriverConfig& config,
                                    int shots,
                                    BatchExecutor::Scratch& scratch,
                                    bool* fused_hit = nullptr,
                                    TemplateTier* fuse_tier = nullptr);

class ExecutionEngine
{
  public:
    /** Per-invocation observability (overwritten by each run/solve).
     *  The RequestCounters part is filled by solve()/resume() only. */
    struct Diagnostics : RequestCounters
    {
        int num_subproblems = 0;     ///< 2^m
        int tasks_executed = 0;      ///< 2^{m-1} with pruning
        int mirrors_inferred = 0;    ///< sub-spaces served by bit flipping
        /** Circuits served by the shared template (an RZ-angle edit away,
         *  Section 3.7.1) instead of their own transpiler run. */
        int template_edits = 0;
        bool template_cache_hit = false;
        std::vector<int> executed_subproblems; ///< solved indices
        std::vector<int> pruned_subproblems;   ///< mirror (never-run) indices
        double wall_ms = 0.0;
        int threads = 1;

        // --------------------------------------- SolveTree solves only --
        int tree_depth = 0;           ///< deepest node level (flat = 1)
        int tree_nodes = 0;           ///< total tree nodes
        int leaves_total = 0;         ///< executable leaves planned
        int leaves_beyond_budget = 0; ///< ranked leaves cut by max_circuits
        int leaves_pruned = 0;        ///< dropped by bound domination
        bool scheduler_scored = false;///< SA-ranked (vs plan order)
        /** Scheduled-leaf kernel backends (plan-time choice; see
         *  SolveLeaf::backend). A leaf too wide to simulate counts
         *  under neither. */
        int leaves_scalar_backend = 0;
        int leaves_simd_backend = 0;

        // --------------------------------- wave-synchronous epochs only --
        int epochs = 0;               ///< waves the solve rode (1 = flat batch)
        /** Plan-time scheduled order (same index space as
         *  executed_subproblems), captured before any re-rank rewrote the
         *  tail — the plan side of a plan-vs-adaptive trace. Only filled
         *  when re-ranking is active. */
        std::vector<int> planned_subproblems;
    };

    /** @p num_threads: 0 = auto (hardware concurrency). */
    explicit ExecutionEngine(int num_threads = 0);

    int num_threads() const { return executor_.num_threads(); }

    /** Full baseline-vs-FrozenQubits comparison (run_pipeline semantics). */
    frozenqubits::Report run(const ising::IsingModel& model,
                             const device::Device& dev,
                             const frozenqubits::DriverConfig& config);

    /** One circuit-arm evaluation (evaluate_instance semantics). */
    frozenqubits::CircuitStats evaluate(const ising::IsingModel& model,
                                        const device::Device& dev,
                                        const frozenqubits::DriverConfig&
                                            config);

    /**
     * Sampled end-to-end solve (solve_with_sampling semantics), executed
     * over the hierarchical SolveTree: recursive freezing
     * (config.max_depth), hybrid bisection (config.partition_width),
     * best-first budgeted leaf scheduling (config.max_circuits) and
     * streaming reduction. A default config (flat, unlimited) reproduces
     * the flat engine bit for bit. The plan is derived from `Rng(seed)`
     * and the seed is recorded in the request, so a snapshot or a remote
     * worker can replan the identical tree.
     *
     * Durability: when @p sink is set and config.checkpoint_interval > 0,
     * the wave loop pauses every interval folded leaves and hands @p sink
     * a SolveCheckpoint (engine/checkpoint.h); a false return suspends the
     * solve, which then completes with its anytime incumbent flagged
     * degraded while the last snapshot resumes the full solve elsewhere.
     * Checkpoint barriers never change results.
     *
     * Deadline admission: when config.deadline_cost_units > 0 the
     * schedule is trimmed to the leaves that fit at plan time (typed
     * DeadlineError when not even one does) and re-trimmed after each
     * adaptive re-rank; a trimmed result is flagged degraded.
     */
    frozenqubits::SampledSolve solve(const ising::IsingModel& model,
                                     const device::Device& dev,
                                     const frozenqubits::DriverConfig&
                                         config,
                                     int shots, std::uint64_t seed,
                                     const CheckpointSink& sink = {});

    /**
     * Resume a durable solve from @p snapshot: replan from the snapshot's
     * seed, fingerprint-check identity (CheckpointError on any mismatch —
     * see restore_checkpoint), re-fold the recorded outcomes and continue
     * mid-schedule. The combined checkpoint-then-resume result is
     * bit-identical to the uninterrupted solve, at any thread count.
     * @p sink re-arms checkpointing for the resumed run.
     */
    frozenqubits::SampledSolve resume(const ising::IsingModel& model,
                                      const device::Device& dev,
                                      const frozenqubits::DriverConfig&
                                          config,
                                      int shots,
                                      const SolveCheckpoint& snapshot,
                                      const CheckpointSink& sink = {});

    const TemplateCache& template_cache() const { return cache_; }
    const Diagnostics& last_diagnostics() const { return diagnostics_; }

    /**
     * The executor seam (engine/wave_loop.h): every wave this engine (or
     * a SolveService over it) dispatches goes through leaf_executor().
     * Default: the engine's own LocalLeafExecutor. Attach a
     * net::WorkerPool (or any other backend) with set_leaf_executor —
     * the pool must outlive the engine's solves; nullptr restores the
     * local default. Where leaves execute never changes results
     * (simulate_scheduled_leaf is pure), so swapping backends is always
     * safe mid-lifetime, between solves.
     */
    void set_leaf_executor(LeafExecutor* executor)
    {
        leaf_executor_override_ = executor;
    }
    LeafExecutor& leaf_executor()
    {
        return leaf_executor_override_ ? *leaf_executor_override_
                                       : local_leaf_executor_;
    }
    /** The engine's own local backend — the WorkerPool's fallback arm. */
    LocalLeafExecutor& local_leaf_executor() { return local_leaf_executor_; }

    /**
     * Drop all cached templates (counters are kept). For callers that need
     * cold-compile semantics on a long-lived engine — e.g. timing loops
     * that must keep transpilation in the measurement.
     */
    void clear_template_cache() { cache_.clear(); }

  private:
    /** The SolveService multiplexes requests over this engine's executor
     *  and cache; it is the one sanctioned external driver. */
    friend class SolveService;

    frozenqubits::CircuitStats run_task(
        const ExecutionPlan& plan, const SubProblemTask& task,
        const frozenqubits::DriverConfig& config);

    /** Shared body of solve() and resume(): plan (replan and restore
     *  @p restore_from for a resume), run the wave loop with an optional
     *  checkpoint sink, reduce. */
    frozenqubits::SampledSolve solve_impl(
        const ising::IsingModel& model, const device::Device& dev,
        const frozenqubits::DriverConfig& config, int shots,
        std::uint64_t seed, const SolveCheckpoint* restore_from,
        const CheckpointSink& sink);

    void start_diagnostics(const ExecutionPlan& plan);
    /** Overwrite diagnostics_ from @p plan's current schedule and the
     *  executor's @p remote accounting. */
    void publish_diagnostics(const PlannedRequest& plan,
                             const LeafExecutorStats& remote);

    TemplateCache cache_;
    BatchExecutor executor_;
    LocalLeafExecutor local_leaf_executor_{cache_, executor_};
    LeafExecutor* leaf_executor_override_ = nullptr;
    Diagnostics diagnostics_;
};

} // namespace fq::engine

#endif // FQ_ENGINE_ENGINE_H
