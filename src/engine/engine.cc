#include "engine/engine.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "engine/wave_loop.h"
#include "frozenqubits/template_editor.h"
#include "qaoa/qaoa_builder.h"
#include "sim/noise_model.h"

namespace fq::engine {

namespace {

using Clock = std::chrono::steady_clock;

double
ms_since(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/**
 * Fill a CircuitStats from a cached template + per-term expectations. The
 * template's attenuation and EPS hold for every RZ-angle edit of its
 * circuit (angles touch neither quantity).
 */
frozenqubits::CircuitStats
stats_from_template(const ising::IsingModel& model,
                    const CompiledTemplate& tpl,
                    const qaoa::P1OptimizationResult& tuned)
{
    const auto& compiled = tpl.compiled;
    frozenqubits::CircuitStats s;
    s.num_qubits = model.num_spins();
    s.pre_routing_cx = compiled.pre_routing_cx;
    s.post_routing_cx = compiled.metrics.cx_gates;
    s.swaps = compiled.swaps_inserted;
    s.depth = compiled.metrics.depth;
    s.duration_ns = compiled.metrics.duration_ns;
    s.compile_time_ms = compiled.compile_time_ms;
    s.angles = tuned.angles;
    s.ev_ideal = tuned.energy;
    s.eps = tpl.eps;

    const auto ideal = qaoa::evaluate_p1(model, tuned.angles);
    s.ev_noisy = sim::noisy_expectation(model, ideal.z, ideal.zz,
                                        tpl.attenuation, compiled.final_layout);
    return s;
}

/** The sub-problem whose structure the shared template was compiled from. */
const frozenqubits::SubProblem&
template_owner(const ExecutionPlan& plan)
{
    return plan.subproblems[static_cast<std::size_t>(
        plan.tasks.front().solve)];
}

} // namespace

ExecutionEngine::ExecutionEngine(int num_threads) : executor_(num_threads)
{
}

frozenqubits::CircuitStats
ExecutionEngine::evaluate(const ising::IsingModel& model,
                          const device::Device& dev,
                          const frozenqubits::DriverConfig& config)
{
    const auto tuned = qaoa::optimize_p1(model, config.p1_grid_resolution);
    qaoa::BuildOptions build;
    build.num_layers = 1;
    const auto binding =
        cache_.get_or_bind(model, dev, config.compile, build);
    auto stats =
        stats_from_template(model, *binding.family->structural, tuned);
    if (binding.tier != TemplateTier::Compile)
        stats.compile_time_ms = 0.0; // served from cache, nothing compiled
    return stats;
}

frozenqubits::CircuitStats
ExecutionEngine::run_task(const ExecutionPlan& plan,
                          const SubProblemTask& task,
                          const frozenqubits::DriverConfig& config)
{
    const auto& sub =
        plan.subproblems[static_cast<std::size_t>(task.solve)];
    const auto tuned =
        qaoa::optimize_p1(sub.model, config.p1_grid_resolution);

    FQ_REQUIRE(plan.compiled_template &&
                   frozenqubits::templates_compatible(
                       template_owner(plan).model, sub.model),
               "circuit wider than target device");
    // Structure, routing, attenuation, and EPS are the template's for every
    // sibling; the sibling's executable differs only by an RZ-angle edit
    // (Section 3.7.1), which no reported stat reads — so the stats come
    // straight from the shared entry, with compile time charged only to the
    // task (and run) that actually compiled it.
    auto stats = stats_from_template(sub.model, *plan.compiled_template, tuned);
    if (task.plan_index != 0 || plan.template_cache_hit)
        stats.compile_time_ms = 0.0; // edit / cache hit, not a compile
    return stats;
}

void
ExecutionEngine::start_diagnostics(const ExecutionPlan& plan)
{
    diagnostics_ = Diagnostics{};
    diagnostics_.num_subproblems = plan.num_subproblems();
    diagnostics_.tasks_executed = plan.num_executed();
    diagnostics_.template_cache_hit = plan.template_cache_hit;
    diagnostics_.threads = executor_.num_threads();
    for (const auto& task : plan.tasks) {
        diagnostics_.executed_subproblems.push_back(task.solve);
        for (int mirror : task.mirrors)
            diagnostics_.pruned_subproblems.push_back(mirror);
    }
    diagnostics_.mirrors_inferred =
        static_cast<int>(diagnostics_.pruned_subproblems.size());
    if (plan.compiled_template)
        diagnostics_.template_edits = plan.num_executed() - 1;
}

frozenqubits::Report
ExecutionEngine::run(const ising::IsingModel& model,
                     const device::Device& dev,
                     const frozenqubits::DriverConfig& config)
{
    const auto start = Clock::now();
    Rng rng(config.seed);
    const auto plan = make_plan(model, dev, config, cache_, rng);
    start_diagnostics(plan);

    // Task 0 is the baseline arm; tasks 1..k are the planned sub-problems.
    const int count = 1 + plan.num_executed();
    // Report the EFFECTIVE width: a batch never spans more workers than it
    // has tasks, and single-task batches run inline.
    diagnostics_.threads = std::min(executor_.num_threads(), count);
    auto stats = executor_.map<frozenqubits::CircuitStats>(
        count, [&](int index, BatchExecutor::Scratch&) {
            if (index == 0)
                return evaluate(model, dev, config);
            return run_task(
                plan, plan.tasks[static_cast<std::size_t>(index - 1)],
                config);
        });

    const auto baseline = stats.front();
    stats.erase(stats.begin());
    auto report = reduce_report(plan, baseline, std::move(stats));
    diagnostics_.wall_ms = ms_since(start);
    return report;
}

sim::Counts
simulate_scheduled_leaf(TemplateCache& cache, const SolveTree& tree,
                        int leaf_id, const device::Device& /*dev*/,
                        const frozenqubits::DriverConfig& config, int shots,
                        BatchExecutor::Scratch& scratch, bool* fused_hit,
                        TemplateTier* fuse_tier)
{
    if (fused_hit)
        *fused_hit = false;
    if (fuse_tier)
        *fuse_tier = TemplateTier::Compile;
    const auto& leaf = tree.leaves[static_cast<std::size_t>(leaf_id)];
    const auto& sub = tree.nodes[static_cast<std::size_t>(leaf.node)].sub;
    FQ_REQUIRE(sub.model.num_spins() <= sim::kMaxSimQubits,
               "leaf too wide for the statevector — raise max_depth, "
               "num_freeze or enable partition_width");

    // The leaf's own build options: the exact ones its template and fused
    // program were compiled under.
    const qaoa::BuildOptions& build = leaf.build;
    // Sparsify-lineage leaves tune on their plan-time proxy (Red-QAOA:
    // the optimizer loop pays for the pruned model); everything below —
    // circuit, noise quantities, sampling — stays on the full model.
    const auto tuned = qaoa::optimize_p1(
        leaf.proxy ? *leaf.proxy : sub.model, config.p1_grid_resolution);

    // Survival and readout-flip probabilities come precomputed from the
    // leaf's shared template (siblings differ only in RZ angles, which
    // touch neither). Planning leaves it unset only for a leaf wider than
    // the device.
    FQ_REQUIRE(leaf.tpl && leaf.tpl_compatible,
               "circuit wider than target device");

    // Ideal state on the LOGICAL register, in this worker's reusable
    // scratch buffer: the leaf's diagonal weight table, built straight
    // from its model's terms, replayed at its angles — one pass per cost
    // layer instead of |E|+|V| gates. The program is this leaf's alone
    // and dies with it.
    const auto program = cache.get_or_fuse(sub.model, build);
    // The kernel backend was chosen at plan time (leaf.backend, a pure
    // function of the leaf width) — execution only looks it up, so
    // scheduling order can never change a leaf's kernels.
    program->run({tuned.angles.gamma}, {tuned.angles.beta},
                 scratch.statevector,
                 sim::BackendRegistry::instance().get(leaf.backend));

    // Private stream: determined at plan time by the leaf's root path, so
    // any thread count samples identically.
    Rng leaf_rng(leaf.rng_seed);
    return sim::sample_noisy_counts(
        scratch.statevector, leaf.tpl->attenuation.global_state_survival(),
        leaf.tpl->readout_flip, shots, leaf_rng);
}

void
ExecutionEngine::publish_diagnostics(const PlannedRequest& plan,
                                     const LeafExecutorStats& remote)
{
    const SolveTree& tree = plan.tree;
    const LeafSchedule& schedule = plan.schedule;
    diagnostics_ = Diagnostics{};
    fill_request_counters(plan.wave, remote, diagnostics_);
    diagnostics_.num_subproblems = tree.num_leaf_nodes();
    diagnostics_.tasks_executed =
        static_cast<int>(schedule.executed.size());
    // Cache-served only when EVERY freeze level's template resolution was
    // a hit (a partition root has no plan of its own; deeper freeze nodes
    // each resolve their own level's template).
    bool any_template = false, all_hits = true;
    for (const auto& node : tree.nodes) {
        diagnostics_.tree_depth = std::max(diagnostics_.tree_depth, node.depth);
        if (node.kind != NodeKind::Freeze || !node.plan.compiled_template)
            continue;
        any_template = true;
        all_hits = all_hits && node.plan.template_cache_hit;
    }
    diagnostics_.template_cache_hit = any_template && all_hits;
    diagnostics_.threads =
        std::min(executor_.num_threads(),
                 static_cast<int>(schedule.executed.size()));
    for (int leaf_id : schedule.executed) {
        const auto& leaf =
            tree.leaves[static_cast<std::size_t>(leaf_id)];
        diagnostics_.executed_subproblems.push_back(leaf_id);
        if (leaf.fuse) {
            if (leaf.backend == sim::BackendKind::VectorizedFused)
                ++diagnostics_.leaves_simd_backend;
            else
                ++diagnostics_.leaves_scalar_backend;
        }
        // Only an EXECUTED leaf's mirrors are actually inferred — a
        // budget-skipped leaf infers nothing.
        for (int mirror_node : leaf.mirror_nodes)
            diagnostics_.pruned_subproblems.push_back(
                tree.flat() ? tree.nodes[static_cast<std::size_t>(
                                             mirror_node)]
                                  .local_solve
                            : mirror_node);
    }
    diagnostics_.mirrors_inferred =
        static_cast<int>(diagnostics_.pruned_subproblems.size());
    diagnostics_.tree_nodes = static_cast<int>(tree.nodes.size());
    diagnostics_.leaves_total = tree.num_executable_leaves();
    diagnostics_.leaves_beyond_budget =
        static_cast<int>(schedule.beyond_budget.size());
    diagnostics_.leaves_pruned =
        static_cast<int>(schedule.pruned.size());
    diagnostics_.scheduler_scored = schedule.scored;
    diagnostics_.epochs = plan.wave.epochs;
    diagnostics_.planned_subproblems = plan.planned_order;
}

frozenqubits::SampledSolve
ExecutionEngine::solve(const ising::IsingModel& model,
                       const device::Device& dev,
                       const frozenqubits::DriverConfig& config, int shots,
                       std::uint64_t seed, const CheckpointSink& sink)
{
    return solve_impl(model, dev, config, shots, seed,
                      /*restore_from=*/nullptr, sink);
}

frozenqubits::SampledSolve
ExecutionEngine::resume(const ising::IsingModel& model,
                        const device::Device& dev,
                        const frozenqubits::DriverConfig& config, int shots,
                        const SolveCheckpoint& snapshot,
                        const CheckpointSink& sink)
{
    // Replan from the SNAPSHOT's seed — restore_checkpoint fingerprint-
    // checks that (model, config, device, shots) produce the plan the
    // snapshot's cursor indexes into.
    return solve_impl(model, dev, config, shots, snapshot.seed, &snapshot,
                      sink);
}

frozenqubits::SampledSolve
ExecutionEngine::solve_impl(const ising::IsingModel& model,
                            const device::Device& dev,
                            const frozenqubits::DriverConfig& config,
                            int shots, std::uint64_t seed,
                            const SolveCheckpoint* restore_from,
                            const CheckpointSink& sink)
{
    const auto start = Clock::now();
    // Plan: the SolveService's sequence, with leaf scoring spread over
    // this engine's executor.
    PlannedRequest plan;
    plan_request(plan, model, dev, config, shots, seed, restore_from,
                 cache_, &executor_);
    // Plan-time diagnostics publish BEFORE execution, so a solve that
    // throws mid-wave still leaves ITS OWN plan state in
    // last_diagnostics(), not a stale predecessor's.
    publish_diagnostics(plan, {});

    CheckpointHook hook;
    if (sink)
        hook = [&sink](WaveRequest& r) {
            return sink(capture_checkpoint(r));
        };
    // Execute through wave-synchronous epochs and the executor seam (the
    // local BatchExecutor by default, a net::WorkerPool when one is
    // attached); the streaming reducer folds each leaf as it lands. With
    // re-ranking and checkpoints off this is one wave spanning the whole
    // schedule. finish_request must run even on a throw — a remote
    // backend keys its sessions on the WaveRequest's address.
    LeafExecutor& leaf_exec = leaf_executor();
    try {
        run_wave_loop(leaf_exec, plan.wave, hook);
    } catch (...) {
        leaf_exec.finish_request(&plan.wave);
        throw;
    }
    const LeafExecutorStats remote = leaf_exec.request_stats(&plan.wave);
    leaf_exec.finish_request(&plan.wave);

    // Re-publish against the FINAL schedule: re-ranks and suspensions
    // rewrite it after planning.
    publish_diagnostics(plan, remote);
    auto solved = plan.reducer->finish();
    diagnostics_.wall_ms = ms_since(start);
    return solved;
}

} // namespace fq::engine
