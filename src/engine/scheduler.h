/**
 * @file
 * Leaf scheduler: turns a SolveTree's executable leaves into a ranked,
 * budget-cut execution schedule.
 *
 * Ranking is purely classical and fixed at plan time: each leaf gets a
 * cheap simulated-annealing presolve bound on its own sub-model (whose
 * offset already carries the frozen-value contribution of its root path),
 * leaves are sorted best-bound-first with ties broken by leaf id, and the
 * schedule is cut at FreezeBudget-style `max_circuits`. Because every
 * decision happens before any circuit runs, partial execution inherits the
 * engine's determinism guarantee: `threads=N` executes exactly the same
 * leaves as serial, bit for bit.
 *
 * Optionally (`prune_dominated`) leaves whose optimistic cost bound cannot
 * beat the global presolve incumbent are dropped before the budget is
 * applied — the tree prunes siblings that are already dominated.
 */
#ifndef FQ_ENGINE_SCHEDULER_H
#define FQ_ENGINE_SCHEDULER_H

#include <vector>

#include "common/error.h"
#include "engine/batch_executor.h"
#include "engine/solve_tree.h"

namespace fq::engine {

/**
 * Typed deadline rejection. Thrown at plan time when
 * DriverConfig::deadline_cost_units cannot cover even one scheduled leaf,
 * and by SolveService::submit when the projected completion (serial
 * backlog ahead of the request plus its own schedule, in 2^width wave-slot
 * cost units) exceeds the request's deadline. Distinct from AdmissionError
 * (queue depth) so callers can shed on load versus shrink the request.
 */
class DeadlineError : public fq::Error
{
  public:
    explicit DeadlineError(const std::string& what) : fq::Error(what) {}
};

/** Classical plan-time rating of one leaf. */
struct LeafScore
{
    /** SA presolve best cost on the leaf model (includes the frozen-value
     *  offset), lifted by the cut-weight penalty of any Partition ancestor
     *  so hybrid arms rank honestly against freeze arms — the scheduling
     *  priority, lower first. */
    double score = 0.0;
    /** Optimistic lower bound on any cost in the leaf's sub-space:
     *  offset - sum|h| - sum|J|. Meaningless (and unused) for
     *  partition-lineage leaves, whose decode is repaired. */
    double bound = 0.0;
};

struct LeafSchedule
{
    /** Leaf ids to execute, best-first (rank order). Never empty. The
     *  prefix already folded by the wave loop is immutable; re-ranking may
     *  rewrite only the not-yet-dispatched tail. */
    std::vector<int> executed;
    /** Ranked leaf ids beyond the circuit budget (skipped). Re-ranking may
     *  promote entries back into `executed` when pruning frees budget. */
    std::vector<int> beyond_budget;
    /** Leaf ids dropped by bound domination — at plan time
     *  (prune_dominated) or by an epoch re-rank against the incumbent. */
    std::vector<int> pruned;

    /** Per-leaf scores (by leaf id); empty when scoring was skipped. */
    std::vector<LeafScore> scores;
    bool scored = false;
    /** Plan-time rank position by leaf id (-1 when unscored): the frozen
     *  tie-breaker every later re-rank falls back to, so adaptive order is
     *  a pure function of (plan, fold results) and never of float-compare
     *  luck between equal adaptive scores. */
    std::vector<int> plan_rank;

    // ------------------------------------------- re-ranking telemetry --
    int reranks = 0;          ///< epoch re-ranks applied
    int rerank_pruned = 0;    ///< stale dominated leaves dropped mid-run
    int rerank_promoted = 0;  ///< beyond-budget leaves pulled into executed
    int rerank_demoted = 0;   ///< scheduled leaves pushed beyond the budget

    // ----------------------------------------------------- durability --
    /** Demotion events by the deadline trim (apply_deadline_trim): leaves
     *  pushed beyond_budget because the remaining deadline_cost_units
     *  could no longer cover them. > 0 flags the result degraded. */
    int deadline_trimmed = 0;
    /** A checkpoint sink stopped this solve early (the un-dispatched tail
     *  was demoted); the result is the anytime incumbent, flagged
     *  degraded, while the captured snapshot resumes elsewhere. */
    bool suspended = false;

    /** Global classical presolve on the original model (computed whenever
     *  scoring runs or any leaf needs decode repair). */
    bool has_presolve = false;
    double presolve_cost = 0.0;
    ising::SpinVector presolve_assignment;

    long long max_circuits = 0; ///< 0 = unlimited
};

/**
 * Build the schedule for @p tree under @p config. Scoring (per-leaf SA
 * presolve) runs when a budget or domination pruning is active, or when
 * @p force_scoring is set (fqtool plan); otherwise the schedule is simply
 * plan order — the flat engine's legacy behaviour. Deterministic: every
 * seed derives from the leaves' plan-time RNG streams, and ranking /
 * cutting are serial. Per-leaf scoring is a pure function of the leaf, so
 * it may run on @p executor when one is supplied (indexed result slots;
 * the determinism guarantee holds for any thread count) — null scores
 * serially.
 */
LeafSchedule make_schedule(const ising::IsingModel& original,
                           const SolveTree& tree,
                           const frozenqubits::DriverConfig& config,
                           bool force_scoring = false,
                           BatchExecutor* executor = nullptr);

/**
 * Reduction pessimism added to a leaf's SA score: the sum of
 * score_penalty (engine/solve_tree.h) over the leaf's root path. A
 * leaf's SA presolve cannot see information its ancestors' reductions
 * discarded, so its raw score flatters those arms; each kind charges
 * its own share — Partition: half the |J| lost to the cut (signs are
 * repaired classically at decode), Sparsify: a quarter of the |J|
 * pruned from the optimizer proxy (sampling keeps the full model, only
 * the angles can drift), Freeze: zero (its offsets already carry every
 * coupling). Zero for pure-freeze lineages.
 */
double lineage_score_penalty(const SolveTree& tree, int leaf_id);

/**
 * Deterministic incumbent snapshot handed to a re-rank: the best decode
 * over exactly the first `folded` scheduled leaves (plus the classical
 * presolve). Produced by StreamingReducer::epoch_snapshot.
 */
struct EpochIncumbent
{
    bool valid = false;
    double cost = 0.0;
    ising::SpinVector assignment;
    int leaf = -1; ///< -1 = classical presolve
};

/** What one epoch re-rank did to the schedule. */
struct RerankOutcome
{
    int pruned = 0;   ///< tail leaves newly dominated by the incumbent
    int promoted = 0; ///< beyond-budget leaves re-admitted to executed
    int demoted = 0;  ///< previously scheduled leaves cut from executed
    bool applied = false;
};

/**
 * Adaptive budget re-ranking (the Scheduler's epoch API): re-score the
 * not-yet-dispatched tail of @p schedule — entries of `executed` past
 * @p folded plus everything in `beyond_budget` — against @p incumbent,
 * prune leaves whose optimistic bound can no longer beat it, re-sort the
 * survivors and re-cut the remaining `max_circuits - folded` budget.
 *
 * The adaptive score is the plan-time SA score lifted by the incumbent's
 * frozen-arm energies: min(plan score, original-model cost of the incumbent
 * assignment projected through the leaf's frozen arm). Ties break by
 * plan-time rank, so the result is a pure function of
 * (plan, scores, incumbent) — never of wave composition, tenant
 * interleaving or thread count. Requires a scored schedule and
 * 1 <= folded <= executed.size(); entries before `folded` are never
 * touched.
 */
RerankOutcome rerank_schedule(LeafSchedule& schedule,
                              const ising::IsingModel& original,
                              const SolveTree& tree, std::size_t folded,
                              const EpochIncumbent& incumbent);

/**
 * Deadline trim: demote every scheduled leaf past @p folded that no longer
 * fits in @p deadline_units of 2^width wave-slot cost (leaf_slot_cost),
 * charging the already-folded prefix first. Walks the tail in rank order,
 * keeping each leaf whose cost still fits the remaining budget — so
 * cheaper late leaves may survive an expensive mid-schedule one. Demoted
 * leaves land in beyond_budget (a later re-rank may reconsider them if the
 * trim re-runs and they fit again) and count into
 * LeafSchedule::deadline_trimmed.
 *
 * Deterministic by construction: a pure function of (schedule, tree,
 * deadline, folded) — never of wall-clock time, wave composition or
 * thread count — so a deadline-trimmed solve is bit-identical between a
 * solo ExecutionEngine::solve and any SolveService interleaving. Runs at
 * plan time (folded = 0) and again after each applied re-rank, whose
 * promotions may overfill the budget.
 *
 * Throws DeadlineError when folded == 0 and not even one leaf fits — a
 * request whose deadline cannot cover any quantum work is rejected
 * outright instead of degenerating to a presolve-only answer.
 * Returns the number of leaves demoted by this call.
 */
int apply_deadline_trim(LeafSchedule& schedule, const SolveTree& tree,
                        long long deadline_units, std::size_t folded);

} // namespace fq::engine

#endif // FQ_ENGINE_SCHEDULER_H
