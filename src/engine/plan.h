/**
 * @file
 * Planner: turns (IsingModel, Device, DriverConfig) into an explicit
 * ExecutionPlan — the full set of independent sub-problem tasks with their
 * freeze assignments, mirror-pruning links, pre-compiled shared template
 * and per-task RNG stream seeds. Planning is strictly serial and cheap
 * (hotspot selection + 2^m freezes + at most one transpiler run); all the
 * heavy per-task work (angle tuning, template editing, simulation) happens
 * afterwards in the BatchExecutor, which may run tasks in any order on any
 * thread because the plan already fixed everything order-dependent.
 *
 * This is the FLAT (single freeze level) planner. Hierarchical solves
 * plan through the open reduction vocabulary instead — build_solve_tree
 * drives the NodeExpander registry (engine/expander.h), whose Freeze
 * expander calls make_plan per node — so new node kinds (Partition,
 * Sparsify, ...) compose around this module without changing it.
 */
#ifndef FQ_ENGINE_PLAN_H
#define FQ_ENGINE_PLAN_H

#include <memory>
#include <vector>

#include "engine/template_cache.h"
#include "frozenqubits/driver.h"
#include "frozenqubits/freeze.h"
#include "sim/noise_model.h"

namespace fq::engine {

/** One executable unit: solve one sub-problem, cover its mirrors for free. */
struct SubProblemTask
{
    /** Position in Report::executed (plan order). */
    int plan_index = 0;
    /** Index into ExecutionPlan::subproblems of the sub-problem to run. */
    int solve = 0;
    /** Sub-problem indices recovered from this one by bit flipping. */
    std::vector<int> mirrors;
    /** Seed of this task's private RNG stream (order-independent). */
    std::uint64_t rng_seed = 0;
};

/** Everything the executor needs, fixed up front. */
struct ExecutionPlan
{
    std::vector<int> hotspots;
    std::vector<frozenqubits::SubProblem> subproblems;
    std::vector<SubProblemTask> tasks;

    /**
     * Base seed every task stream was derived from
     * (subproblem_stream_seed(stream_seed, solve)). The SolveTree derives
     * child-node streams from the same base so recursive plans stay
     * order-independent.
     */
    std::uint64_t stream_seed = 0;

    /**
     * Shared compiled template with its precomputed noise quantities (null
     * only for a plan with no tasks): the family entry's structure-only
     * compile of the structure shared by every sibling: siblings differ only in
     * RZ angles, which touch neither routing nor attenuation nor EPS nor
     * placement, so one entry serves all 2^{m-1} tasks.
     */
    std::shared_ptr<const CompiledTemplate> compiled_template;
    /** Whether the template came from the cache without compiling. */
    bool template_cache_hit = false;

    /** Build options every per-task circuit construction must use. */
    qaoa::BuildOptions build;

    int num_subproblems() const
    {
        return static_cast<int>(subproblems.size());
    }
    int num_executed() const { return static_cast<int>(tasks.size()); }
};

/**
 * The ONE definition of the build options every engine-compiled circuit
 * uses (plan templates, fused programs, leaf simulation). Sites must share
 * it: a template compiled under different options than the simulation
 * would silently describe a different circuit.
 */
qaoa::BuildOptions default_build_options();

/**
 * Build the plan. @p rng drives hotspot selection (only consulted by the
 * Random policy) exactly as the legacy driver did, then one draw seeds the
 * base from which every task's private stream is derived via
 * subproblem_stream_seed(base, solve_index). The shared template is
 * resolved through @p cache's family tier.
 */
ExecutionPlan make_plan(const ising::IsingModel& model,
                        const device::Device& dev,
                        const frozenqubits::DriverConfig& config,
                        TemplateCache& cache, Rng& rng);

} // namespace fq::engine

#endif // FQ_ENGINE_PLAN_H
