#include "engine/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"
#include "engine/wave_loop.h"
#include "ising/sa_solver.h"

namespace fq::engine {

namespace {

/** Presolve effort knobs: cheap by construction — the whole point of the
 *  classical score is to cost orders of magnitude less than one circuit. */
constexpr int kLeafRestarts = 2;
constexpr int kLeafSweeps = 160;
constexpr int kGlobalRestarts = 4;
constexpr int kGlobalSweeps = 400;

double
optimistic_bound(const ising::IsingModel& model)
{
    double magnitude = 0.0;
    for (double h : model.linear_terms())
        magnitude += std::abs(h);
    for (const auto& term : model.quadratic_terms())
        magnitude += std::abs(term.coefficient);
    return model.offset() - magnitude;
}

/**
 * A leaf can produce a decode that strictly beats @p incumbent_cost only
 * when its optimistic bound lies at or below it (equal-cost decodes can
 * still win the incumbent tie-break against the presolve). Repair-lineage
 * leaves carry a -inf bound and are never considered dominated.
 */
bool
dominated(const LeafScore& score, double incumbent_cost)
{
    return score.bound > incumbent_cost;
}

} // namespace

double
lineage_score_penalty(const SolveTree& tree, int leaf_id)
{
    const auto& leaf = tree.leaves[static_cast<std::size_t>(leaf_id)];
    double penalty = 0.0;
    for (int ni = leaf.node; ni >= 0;
         ni = tree.nodes[static_cast<std::size_t>(ni)].parent)
        penalty += score_penalty(tree.nodes[static_cast<std::size_t>(ni)]);
    return penalty;
}

LeafSchedule
make_schedule(const ising::IsingModel& original, const SolveTree& tree,
              const frozenqubits::DriverConfig& config, bool force_scoring,
              BatchExecutor* executor)
{
    FQ_REQUIRE(!tree.leaves.empty(), "solve tree has no executable leaves");

    LeafSchedule schedule;
    schedule.max_circuits = config.max_circuits;

    bool needs_repair = false;
    for (const auto& leaf : tree.leaves)
        needs_repair = needs_repair || leaf.needs_repair;

    // Adaptive re-ranking needs scores (and the presolve incumbent they
    // anchor) even when no budget is set, so rerank_interval forces them.
    schedule.scored = force_scoring || config.max_circuits > 0 ||
                      config.prune_dominated || config.rerank_interval > 0;
    // Non-flat trees always get the global presolve: it anchors the
    // anytime trace and (for partition lineages) the decode repair base.
    // Flat unbudgeted solves skip it: they need neither scores nor a
    // repair base.
    const bool needs_presolve =
        schedule.scored || needs_repair || !tree.flat();

    if (needs_presolve) {
        // Global incumbent: one stronger SA run on the original model.
        // Seeds derive from the root's plan-time stream, so the schedule is
        // a pure function of (model, config) — never of execution order.
        ising::SaConfig sa;
        sa.num_restarts = kGlobalRestarts;
        sa.sweeps_per_restart = kGlobalSweeps;
        Rng rng(combine_seeds(tree.nodes.front().stream_seed,
                              hash_seed("fq-tree-presolve")));
        const auto solved = ising::solve_annealing(original, sa, rng);
        schedule.has_presolve = true;
        schedule.presolve_cost = solved.best_cost;
        schedule.presolve_assignment = solved.best_assignment;
    }

    std::vector<int> candidates;
    candidates.reserve(tree.leaves.size());
    for (const auto& leaf : tree.leaves)
        candidates.push_back(leaf.leaf_id);

    if (schedule.scored) {
        // Each leaf's score is a pure function of (leaf model, leaf seed)
        // with its own result slot, so scoring parallelizes on the engine's
        // executor without touching the determinism guarantee; large deep
        // trees would otherwise pay a long serial SA prologue.
        const auto score_leaf = [&](int leaf_id) {
            const auto& leaf =
                tree.leaves[static_cast<std::size_t>(leaf_id)];
            const auto& model =
                tree.nodes[static_cast<std::size_t>(leaf.node)].sub.model;
            ising::SaConfig sa;
            sa.num_restarts = kLeafRestarts;
            sa.sweeps_per_restart = kLeafSweeps;
            Rng rng(combine_seeds(leaf.rng_seed,
                                  hash_seed("fq-leaf-presolve")));
            LeafScore entry;
            // Reduction-aware scoring: a leaf's SA presolve never sees
            // what its ancestors' reductions discarded, so its raw score
            // flatters those arms; charge each ancestor's declared
            // pessimism back.
            entry.score = ising::solve_annealing(model, sa, rng).best_cost +
                          lineage_score_penalty(tree, leaf_id);
            entry.bound = leaf.needs_repair
                              ? -std::numeric_limits<double>::infinity()
                              : optimistic_bound(model);
            return entry;
        };
        if (executor) {
            schedule.scores = executor->map<LeafScore>(
                static_cast<int>(tree.leaves.size()),
                [&](int leaf_id, BatchExecutor::Scratch&) {
                    return score_leaf(leaf_id);
                });
        } else {
            schedule.scores.resize(tree.leaves.size());
            for (const auto& leaf : tree.leaves)
                schedule.scores[static_cast<std::size_t>(leaf.leaf_id)] =
                    score_leaf(leaf.leaf_id);
        }

        if (config.prune_dominated) {
            // A leaf whose optimistic bound already exceeds the classical
            // incumbent cannot produce a better decode: drop it before the
            // budget so the circuits go to live candidates.
            std::vector<int> kept;
            for (int id : candidates) {
                if (schedule.scores[static_cast<std::size_t>(id)].bound >
                    schedule.presolve_cost)
                    schedule.pruned.push_back(id);
                else
                    kept.push_back(id);
            }
            candidates = std::move(kept);
        }

        std::stable_sort(
            candidates.begin(), candidates.end(), [&](int a, int b) {
                const double sa =
                    schedule.scores[static_cast<std::size_t>(a)].score;
                const double sb =
                    schedule.scores[static_cast<std::size_t>(b)].score;
                if (sa != sb)
                    return sa < sb;
                return a < b; // deterministic tie-break: plan index
            });
    }

    if (candidates.empty()) {
        // Domination pruning removed everything (SA already optimal): keep
        // the best-scored leaf so the solve still produces a sampled
        // distribution and a decodable answer.
        FQ_REQUIRE(!schedule.pruned.empty(), "no leaves to schedule");
        auto best = std::min_element(
            schedule.pruned.begin(), schedule.pruned.end(),
            [&](int a, int b) {
                return schedule.scores[static_cast<std::size_t>(a)].score <
                       schedule.scores[static_cast<std::size_t>(b)].score;
            });
        candidates.push_back(*best);
        schedule.pruned.erase(best);
    }

    for (int id : candidates) {
        if (config.max_circuits > 0 &&
            static_cast<long long>(schedule.executed.size()) >=
                config.max_circuits)
            schedule.beyond_budget.push_back(id);
        else
            schedule.executed.push_back(id);
    }

    if (schedule.scored) {
        // Freeze the plan-time ranking as the re-rank tie-breaker: ranked
        // candidates first (executed then beyond-budget — already in score
        // order), plan-time-pruned leaves after.
        schedule.plan_rank.assign(tree.leaves.size(), -1);
        int rank = 0;
        for (int id : schedule.executed)
            schedule.plan_rank[static_cast<std::size_t>(id)] = rank++;
        for (int id : schedule.beyond_budget)
            schedule.plan_rank[static_cast<std::size_t>(id)] = rank++;
        for (int id : schedule.pruned)
            schedule.plan_rank[static_cast<std::size_t>(id)] = rank++;
    }
    return schedule;
}

RerankOutcome
rerank_schedule(LeafSchedule& schedule, const ising::IsingModel& original,
                const SolveTree& tree, std::size_t folded,
                const EpochIncumbent& incumbent)
{
    RerankOutcome out;
    FQ_REQUIRE(schedule.scored && !schedule.scores.empty(),
               "adaptive re-ranking needs a scored schedule");
    FQ_REQUIRE(folded >= 1 && folded <= schedule.executed.size(),
               "re-rank fold count outside the schedule");
    if (!incumbent.valid)
        return out;

    // Candidates: the not-yet-dispatched tail plus every leaf the plan-time
    // budget cut — pruning below may free slots they can reclaim.
    std::vector<int> tail(schedule.executed.begin() +
                              static_cast<std::ptrdiff_t>(folded),
                          schedule.executed.end());
    std::vector<int> candidates = tail;
    candidates.insert(candidates.end(), schedule.beyond_budget.begin(),
                      schedule.beyond_budget.end());
    if (candidates.empty())
        return out;

    // Stale domination pruning: the incumbent has tightened since plan
    // time; tail leaves whose optimistic bound can no longer beat it would
    // burn circuits for nothing. Dominated beyond-budget leaves are
    // retired too (never re-considered), but only TAIL prunes count as
    // circuits saved — beyond-budget leaves were not going to run anyway.
    std::vector<int> live;
    live.reserve(candidates.size());
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        const int id = candidates[k];
        if (dominated(schedule.scores[static_cast<std::size_t>(id)],
                      incumbent.cost)) {
            schedule.pruned.push_back(id);
            if (k < tail.size())
                ++out.pruned;
        } else {
            live.push_back(id);
        }
    }

    // Adaptive score: lift the incumbent through each candidate's frozen
    // arm (its surviving spins take the incumbent's values, its root path
    // overwrites the frozen ones) and evaluate on the ORIGINAL model — the
    // concrete cost this leaf's cell achieves by mimicking the folded
    // evidence. A leaf whose arm agrees with the incumbent projects to the
    // incumbent cost itself and ranks first; min() keeps the plan-time SA
    // score as the exploration floor for arms the incumbent says little
    // about.
    std::vector<double> adaptive(tree.leaves.size(), 0.0);
    for (int id : live) {
        const auto& leaf = tree.leaves[static_cast<std::size_t>(id)];
        const auto& sub =
            tree.nodes[static_cast<std::size_t>(leaf.node)].sub;
        double score =
            schedule.scores[static_cast<std::size_t>(id)].score;
        if (sub.model.num_spins() < 64) {
            ising::SpinVector restricted(
                static_cast<std::size_t>(sub.model.num_spins()));
            for (std::size_t i = 0; i < restricted.size(); ++i)
                restricted[i] =
                    incumbent.assignment[static_cast<std::size_t>(
                        sub.original_of[i])];
            const auto projected = lift_leaf_state(
                tree, leaf, ising::spins_to_state(restricted),
                incumbent.assignment);
            score = std::min(score, original.evaluate(projected));
        }
        adaptive[static_cast<std::size_t>(id)] = score;
    }
    std::stable_sort(live.begin(), live.end(), [&](int a, int b) {
        const double sa = adaptive[static_cast<std::size_t>(a)];
        const double sb = adaptive[static_cast<std::size_t>(b)];
        if (sa != sb)
            return sa < sb;
        // Plan-time-derived tie-break (already encodes score-then-leaf-id).
        return schedule.plan_rank[static_cast<std::size_t>(a)] <
               schedule.plan_rank[static_cast<std::size_t>(b)];
    });

    // Re-cut the remaining budget over the survivors. Pruned leaves refund
    // their slots, so previously beyond-budget leaves may be promoted.
    std::vector<int> was_beyond = std::move(schedule.beyond_budget);
    schedule.executed.resize(folded);
    schedule.beyond_budget.clear();
    const long long remaining =
        schedule.max_circuits > 0
            ? schedule.max_circuits - static_cast<long long>(folded)
            : static_cast<long long>(live.size());
    for (int id : live) {
        if (static_cast<long long>(schedule.executed.size() - folded) <
            remaining)
            schedule.executed.push_back(id);
        else
            schedule.beyond_budget.push_back(id);
    }

    const auto contains = [](const std::vector<int>& ids, int id) {
        return std::find(ids.begin(), ids.end(), id) != ids.end();
    };
    for (std::size_t k = folded; k < schedule.executed.size(); ++k)
        if (contains(was_beyond, schedule.executed[k]))
            ++out.promoted;
    for (int id : schedule.beyond_budget)
        if (contains(tail, id))
            ++out.demoted;
    out.applied = true;
    ++schedule.reranks;
    schedule.rerank_pruned += out.pruned;
    schedule.rerank_promoted += out.promoted;
    schedule.rerank_demoted += out.demoted;
    return out;
}

int
apply_deadline_trim(LeafSchedule& schedule, const SolveTree& tree,
                    long long deadline_units, std::size_t folded)
{
    if (deadline_units <= 0)
        return 0;
    FQ_REQUIRE(folded <= schedule.executed.size(),
               "deadline trim fold count outside the schedule");

    // The folded prefix is spent budget: its leaves ran (or are restored
    // from a checkpoint as run) and their cost is gone either way.
    long long consumed = 0;
    for (std::size_t k = 0; k < folded; ++k)
        consumed += leaf_slot_cost(tree, schedule.executed[k]);

    // Greedy rank-order keep-if-fits over the tail: an over-budget wide
    // leaf does not wall off cheaper leaves ranked behind it.
    std::vector<int> kept;
    std::vector<int> demoted;
    long long cheapest = 0;
    for (std::size_t k = folded; k < schedule.executed.size(); ++k) {
        const int leaf_id = schedule.executed[k];
        const long long cost = leaf_slot_cost(tree, leaf_id);
        cheapest = cheapest == 0 ? cost : std::min(cheapest, cost);
        if (consumed + cost <= deadline_units) {
            consumed += cost;
            kept.push_back(leaf_id);
        } else {
            demoted.push_back(leaf_id);
        }
    }
    if (demoted.empty())
        return 0;
    if (folded == 0 && kept.empty())
        throw DeadlineError(
            "deadline of " + std::to_string(deadline_units) +
            " cost units cannot cover any scheduled leaf (cheapest costs " +
            std::to_string(cheapest) + ")");

    schedule.executed.resize(folded);
    schedule.executed.insert(schedule.executed.end(), kept.begin(),
                             kept.end());
    schedule.beyond_budget.insert(schedule.beyond_budget.end(),
                                  demoted.begin(), demoted.end());
    schedule.deadline_trimmed += static_cast<int>(demoted.size());
    return static_cast<int>(demoted.size());
}

} // namespace fq::engine
