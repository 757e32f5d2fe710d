#include "engine/reducer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/bitops.h"
#include "common/error.h"
#include "ising/sa_solver.h"
#include "sim/noise_model.h"

namespace fq::engine {

frozenqubits::Report
reduce_report(const ExecutionPlan& plan,
              const frozenqubits::CircuitStats& baseline,
              std::vector<frozenqubits::CircuitStats> per_task)
{
    FQ_REQUIRE(per_task.size() == plan.tasks.size(),
               "per-task stats do not match the plan");

    frozenqubits::Report report;
    report.baseline = baseline;
    report.arg_baseline = sim::approximation_ratio_gap(
        baseline.ev_ideal, baseline.ev_noisy);

    report.hotspots = plan.hotspots;
    report.num_subproblems = plan.num_subproblems();
    report.num_executed = plan.num_executed();

    double best_ideal = std::numeric_limits<double>::infinity();
    double best_noisy = std::numeric_limits<double>::infinity();
    for (const auto& stats : per_task) {
        best_ideal = std::min(best_ideal, stats.ev_ideal);
        best_noisy = std::min(best_noisy, stats.ev_noisy);
        // Mirror sub-problems share the executed circuit's spectrum
        // (H_mirror(z) = H(-z)), so their EVs equal the solved one and need
        // no separate accounting.
    }
    report.executed = std::move(per_task);

    // An empty task list (or all-skipped execution) would leave both EVs at
    // +infinity and silently report a bogus approximation-ratio gap — fail
    // loudly instead of producing an unsolved report that looks solved.
    FQ_REQUIRE(std::isfinite(best_ideal) && std::isfinite(best_noisy),
               "no executed sub-problem produced a finite EV — the report "
               "has nothing to reduce");

    report.ev_ideal_fq = best_ideal;
    report.ev_noisy_fq = best_noisy;
    report.arg_fq = sim::approximation_ratio_gap(best_ideal, best_noisy);
    return report;
}

// ---------------------------------------------------------------------------
// StreamingReducer

StreamingReducer::StreamingReducer(const ising::IsingModel& original,
                                   const SolveTree& tree,
                                   const LeafSchedule& schedule)
    : original_(original), tree_(tree), schedule_(schedule),
      outcomes_(tree.leaves.size())
{
    if (schedule_.has_presolve) {
        base_ = schedule_.presolve_assignment;
        incumbent_.valid = true;
        incumbent_.cost = schedule_.presolve_cost;
        incumbent_.assignment = schedule_.presolve_assignment;
        incumbent_.leaf = -1;
    } else {
        base_.assign(static_cast<std::size_t>(original.num_spins()), 1);
    }
}

StreamingReducer::LeafOutcome
StreamingReducer::decode(int leaf_id, sim::Counts counts) const
{
    const auto& leaf = tree_.leaves[static_cast<std::size_t>(leaf_id)];
    const auto& sub =
        tree_.nodes[static_cast<std::size_t>(leaf.node)].sub;

    LeafOutcome out;
    out.done = true;
    if (counts.num_distinct() == 0) {
        out.counts = std::move(counts);
        return out;
    }

    // Argmin over the histogram by SUB-MODEL cost: for freeze lineages the
    // offset bookkeeping makes this exactly the original-model cost of the
    // lifted outcome, at O(sub terms) per state instead of O(N + |J|).
    const std::uint64_t best_state = counts.best(sub.model).state;
    out.counts = std::move(counts);

    out.best_assignment =
        lift_leaf_state(tree_, leaf, best_state, base_);
    if (leaf.needs_repair)
        ising::greedy_descent(original_, out.best_assignment);
    out.best_cost = original_.evaluate(out.best_assignment);

    // Mirror candidates: the bit-flipped best outcome lifted through each
    // mirror node's frozen values (Section 3.7.2 at decode level). For
    // pure-freeze lineages on a symmetric model this ties the canonical
    // cost; for partition fragments the flip composes with the unflipped
    // rest of the base and can genuinely improve the repair.
    if (!leaf.mirror_nodes.empty()) {
        const std::uint64_t flipped =
            (~best_state) & low_bits_mask(sub.model.num_spins());
        for (int mirror_node : leaf.mirror_nodes) {
            SolveLeaf mirror_view = leaf;
            mirror_view.node = mirror_node;
            auto candidate =
                lift_leaf_state(tree_, mirror_view, flipped, base_);
            if (leaf.needs_repair)
                ising::greedy_descent(original_, candidate);
            const double cost = original_.evaluate(candidate);
            if (cost < out.best_cost) {
                out.best_cost = cost;
                out.best_assignment = std::move(candidate);
            }
        }
    }
    return out;
}

void
StreamingReducer::fold(int leaf_id, sim::Counts counts)
{
    auto outcome = decode(leaf_id, std::move(counts));

    std::lock_guard<std::mutex> lock(mutex_);
    if (outcome.done && incumbent_.accepts(outcome.best_cost, leaf_id)) {
        incumbent_.valid = true;
        incumbent_.cost = outcome.best_cost;
        incumbent_.assignment = outcome.best_assignment;
        incumbent_.leaf = leaf_id;
    }
    outcomes_[static_cast<std::size_t>(leaf_id)] = std::move(outcome);
}

StreamingReducer::Incumbent
StreamingReducer::incumbent() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return incumbent_;
}

EpochIncumbent
StreamingReducer::epoch_snapshot(std::size_t folded) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    FQ_REQUIRE(folded <= schedule_.executed.size(),
               "epoch snapshot beyond the schedule");

    // Replay the live merge rule over the schedule prefix only: folds are
    // order-independent and keyed by leaf id, so this is identical whether
    // the prefix folded serially, across threads, or interleaved with
    // later leaves the snapshot must not see.
    Incumbent running;
    if (schedule_.has_presolve) {
        running.valid = true;
        running.cost = schedule_.presolve_cost;
        running.assignment = schedule_.presolve_assignment;
        running.leaf = -1;
    }
    for (std::size_t k = 0; k < folded; ++k) {
        const int leaf_id = schedule_.executed[k];
        const auto& outcome =
            outcomes_[static_cast<std::size_t>(leaf_id)];
        FQ_REQUIRE(outcome.done,
                   "epoch snapshot over a leaf that has not folded");
        if (running.accepts(outcome.best_cost, leaf_id)) {
            running.valid = true;
            running.cost = outcome.best_cost;
            running.assignment = outcome.best_assignment;
            running.leaf = leaf_id;
        }
    }

    EpochIncumbent snap;
    snap.valid = running.valid;
    snap.cost = running.cost;
    snap.assignment = running.assignment;
    snap.leaf = running.leaf;
    return snap;
}

std::vector<std::pair<int, sim::Counts>>
StreamingReducer::export_folded(std::size_t folded) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    FQ_REQUIRE(folded <= schedule_.executed.size(),
               "checkpoint export beyond the schedule");
    FQ_REQUIRE(!finished_, "checkpoint export after finish()");
    std::vector<std::pair<int, sim::Counts>> out;
    out.reserve(folded);
    for (std::size_t k = 0; k < folded; ++k) {
        const int leaf_id = schedule_.executed[k];
        const auto& outcome = outcomes_[static_cast<std::size_t>(leaf_id)];
        FQ_REQUIRE(outcome.done,
                   "checkpoint export over a leaf that has not folded");
        out.emplace_back(leaf_id, outcome.counts);
    }
    return out;
}

frozenqubits::SampledSolve
StreamingReducer::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    FQ_REQUIRE(!finished_, "finish() called twice");
    finished_ = true;

    // Quantum-only best: scan in leaf order — deterministic regardless of
    // arrival order.
    int best_leaf = -1;
    for (std::size_t id = 0; id < outcomes_.size(); ++id) {
        const auto& outcome = outcomes_[id];
        if (!outcome.done ||
            outcome.best_cost == std::numeric_limits<double>::infinity())
            continue;
        if (best_leaf < 0 ||
            outcome.best_cost <
                outcomes_[static_cast<std::size_t>(best_leaf)].best_cost)
            best_leaf = static_cast<int>(id);
    }
    FQ_REQUIRE(best_leaf >= 0, "no decodable outcome (no leaf executed)");
    const auto& best = outcomes_[static_cast<std::size_t>(best_leaf)];

    frozenqubits::SampledSolve out;
    out.best_assignment = best.best_assignment;
    out.best_cost = best.best_cost;
    out.from_subproblem = best_leaf;
    // finish() runs once, so each histogram moves out instead of copying.
    for (int leaf_id : schedule_.executed) {
        auto& outcome = outcomes_[static_cast<std::size_t>(leaf_id)];
        if (outcome.done)
            out.distributions.push_back(std::move(outcome.counts));
    }
    out.best_quantum_cost = out.best_cost;
    out.best_quantum_leaf = out.from_subproblem;
    // The reported best is the overall incumbent — what the anytime trace
    // converges to. A presolve that strictly beats every quantum decode
    // wins (from_subproblem -1); ties keep the quantum answer, matching
    // Incumbent::accepts.
    if (schedule_.has_presolve &&
        schedule_.presolve_cost < out.best_cost) {
        out.best_cost = schedule_.presolve_cost;
        out.best_assignment = schedule_.presolve_assignment;
        out.from_subproblem = -1;
    }

    out.leaves_total = tree_.num_executable_leaves();
    // Rank-order anytime trajectory, replayed deterministically.
    Incumbent running;
    if (schedule_.has_presolve) {
        running.valid = true;
        running.cost = schedule_.presolve_cost;
        running.leaf = -1;
        out.anytime.push_back({0, running.cost, -1});
    }
    int circuits = 0;
    for (int leaf_id : schedule_.executed) {
        const auto& outcome =
            outcomes_[static_cast<std::size_t>(leaf_id)];
        if (!outcome.done)
            continue;
        ++circuits;
        if (running.accepts(outcome.best_cost, leaf_id)) {
            running.valid = true;
            running.cost = outcome.best_cost;
            running.leaf = leaf_id;
        }
        out.anytime.push_back({circuits, running.cost, running.leaf});
    }
    out.leaves_executed = circuits;
    // Durability flags: a deadline trim or a checkpoint-sink suspension
    // shortened the schedule, so the answer above is the valid anytime
    // incumbent over what DID fold — degraded, not wrong.
    out.deadline_trimmed = schedule_.deadline_trimmed;
    out.degraded = schedule_.deadline_trimmed > 0 || schedule_.suspended;
    return out;
}

} // namespace fq::engine
