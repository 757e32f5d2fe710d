/**
 * @file
 * Reducer: fold per-task results back into the driver's public report
 * types. reduce_report builds the analytic Report serially in plan order;
 * the StreamingReducer decodes every sampled tree leaf AS IT LANDS into an
 * incumbent best (Section 3.6), so a budgeted solve can report anytime
 * quality. The streaming incumbent is a minimum with a deterministic
 * (cost, leaf-id) tie-break, so arrival order — and thus thread count —
 * can never change the outcome.
 */
#ifndef FQ_ENGINE_REDUCER_H
#define FQ_ENGINE_REDUCER_H

#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/plan.h"
#include "engine/scheduler.h"
#include "engine/solve_tree.h"
#include "frozenqubits/driver.h"
#include "sim/counts.h"

namespace fq::engine {

/**
 * Build the baseline-vs-FrozenQubits Report from the executed plan:
 * per-task CircuitStats in plan order plus the baseline arm's stats.
 */
frozenqubits::Report reduce_report(
    const ExecutionPlan& plan, const frozenqubits::CircuitStats& baseline,
    std::vector<frozenqubits::CircuitStats> per_task);

/**
 * Streaming tree reduction. The scheduler calls fold() from worker threads
 * as each leaf's sampled distribution lands; finish() assembles the final
 * SampledSolve plus the rank-order anytime trace once every scheduled leaf
 * completed.
 *
 * Decoding per leaf: freeze-lineage outcomes cost exactly their sub-model
 * energy (the offset bookkeeping of Table 2), so the leaf's best candidate
 * is the histogram's min-cost state lifted to the original space.
 * Partition-lineage outcomes only cover the fragment's spins; the decode
 * fills the rest from the classical presolve assignment and greedy-repairs
 * on the original model (the D&C stitch, Section 1). Mirror sub-spaces
 * (Section 3.7.2) are covered by lifting the bit-flipped best state
 * through each mirror node, so every tree shape — a flat single freeze
 * included — finishes through the same decode.
 */
class StreamingReducer
{
  public:
    StreamingReducer(const ising::IsingModel& original,
                     const SolveTree& tree, const LeafSchedule& schedule);

    /** Fold one executed leaf's distribution (thread-safe). */
    void fold(int leaf_id, sim::Counts counts);

    /** Snapshot of the current best decode (thread-safe; anytime). */
    struct Incumbent
    {
        bool valid = false;
        double cost = std::numeric_limits<double>::infinity();
        ising::SpinVector assignment;
        int leaf = -1; ///< -1 = classical presolve

        /**
         * The ONE deterministic merge rule (live fold and anytime replay
         * must share it): strictly better cost wins; at equal cost a
         * quantum decode beats the presolve and the lowest leaf id beats
         * later leaves. Arrival order can never change the result.
         */
        bool accepts(double candidate_cost, int candidate_leaf) const
        {
            if (candidate_cost ==
                std::numeric_limits<double>::infinity())
                return false;
            if (!valid)
                return true;
            return candidate_cost < cost ||
                   (candidate_cost == cost &&
                    (leaf == -1 || candidate_leaf < leaf));
        }
    };
    Incumbent incumbent() const;

    /**
     * Deterministic epoch snapshot for adaptive re-ranking: the incumbent
     * over exactly the FIRST @p folded leaves of the schedule (rank order),
     * replayed with the live merge rule from the presolve baseline. Later
     * leaves that may also have folded are ignored, so the snapshot is a
     * pure function of the request's fold count — never of wave
     * composition or tenant interleaving. All @p folded leaves must have
     * folded (the wave barrier guarantees it); FQ_REQUIREd otherwise.
     */
    EpochIncumbent epoch_snapshot(std::size_t folded) const;

    /**
     * Raw sampled histograms of the FIRST @p folded scheduled leaves, as
     * (leaf id, counts) pairs in rank order — the checkpoint payload of a
     * durable solve (engine/checkpoint.h). Decoding is deterministic, so
     * re-fold()ing these into a freshly planned reducer reproduces
     * outcomes, incumbent and anytime trace bit for bit. All @p folded
     * leaves must have folded (the wave barrier guarantees it);
     * FQ_REQUIREd otherwise. Thread-safe.
     */
    std::vector<std::pair<int, sim::Counts>>
    export_folded(std::size_t folded) const;

    /** Final result; call once after every scheduled leaf folded. The
     *  folded histograms move into SampledSolve::distributions, so a
     *  second call (or an export_folded after it) is FQ_REQUIREd against. */
    frozenqubits::SampledSolve finish();

  private:
    struct LeafOutcome
    {
        bool done = false;
        sim::Counts counts;
        double best_cost = std::numeric_limits<double>::infinity();
        ising::SpinVector best_assignment;
    };

    LeafOutcome decode(int leaf_id, sim::Counts counts) const;

    const ising::IsingModel& original_;
    const SolveTree& tree_;
    const LeafSchedule& schedule_;
    ising::SpinVector base_;

    mutable std::mutex mutex_;
    std::vector<LeafOutcome> outcomes_; ///< by leaf id
    Incumbent incumbent_;
    bool finished_ = false;
};

} // namespace fq::engine

#endif // FQ_ENGINE_REDUCER_H
