#include "engine/wave_loop.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "engine/checkpoint.h"
#include "engine/engine.h"

namespace fq::engine {

namespace {

/** Cost-exponent cap: beyond this width the cost model saturates; leaves
 *  that wide cannot simulate anyway (kMaxSimQubits), so relative packing
 *  between them no longer matters. */
constexpr int kMaxCostExponent = 40;

} // namespace

long long
leaf_slot_cost(const SolveTree& tree, int leaf_id)
{
    return 1LL << std::min(tree.leaf_width(leaf_id), kMaxCostExponent);
}

void
plan_request(PlannedRequest& out, const ising::IsingModel& model,
             const device::Device& dev,
             const frozenqubits::DriverConfig& config, int shots,
             std::uint64_t seed, const SolveCheckpoint* snapshot,
             TemplateCache& cache, BatchExecutor* scoring)
{
    FQ_REQUIRE(shots >= 1, "need at least one shot");
    // Both stages are serial and fix every order-dependent decision
    // (leaf RNG streams, ranking, budget cut) before a single circuit
    // runs; an adaptive re-rank may later rewrite the schedule's
    // un-dispatched tail, but only as a pure function of this request's
    // own fold count.
    Rng rng(seed);
    out.tree = build_solve_tree(model, dev, config, cache, rng);
    out.schedule = make_schedule(model, out.tree, config,
                                 /*force_scoring=*/false, scoring);
    // A resume takes the snapshot's already trimmed-and-re-ranked
    // schedule wholesale instead.
    if (!snapshot)
        apply_deadline_trim(out.schedule, out.tree,
                            config.deadline_cost_units, /*folded=*/0);
    if (config.rerank_interval > 0)
        out.planned_order = out.schedule.executed;

    out.reducer.emplace(model, out.tree, out.schedule);
    WaveRequest& wave = out.wave;
    wave.model = &model;
    wave.tree = &out.tree;
    wave.schedule = &out.schedule;
    wave.reducer = &*out.reducer;
    wave.dev = &dev;
    wave.config = &config;
    wave.shots = shots;
    wave.seed = seed;
    if (snapshot) {
        restore_checkpoint(*snapshot, wave);
        wave.resumed_from = static_cast<int>(snapshot->cursor);
    }
}

void
fill_request_counters(const WaveRequest& request,
                      const LeafExecutorStats& remote, RequestCounters& out)
{
    const SolveTree& tree = *request.tree;
    const LeafSchedule& schedule = *request.schedule;
    out = RequestCounters{};
    for (int leaf_id : schedule.executed) {
        switch (tree.leaves[static_cast<std::size_t>(leaf_id)].tier) {
        case TemplateTier::Bind: ++out.leaves_tier_bind; break;
        case TemplateTier::Compile: ++out.leaves_tier_compile; break;
        }
        const auto arm = node_kind_index(leaf_arm_kind(tree, leaf_id));
        ++out.kind_leaves_executed[arm];
        out.kind_budget_units[arm] += leaf_slot_cost(tree, leaf_id);
    }
    // Per-arm pruned = domination-pruned + budget-cut: the leaves each
    // reduction arm planned but will never run.
    for (const auto* cut : {&schedule.beyond_budget, &schedule.pruned})
        for (int leaf_id : *cut)
            ++out.kind_leaves_pruned[node_kind_index(
                leaf_arm_kind(tree, leaf_id))];
    out.reranks = schedule.reranks;
    out.rerank_pruned = schedule.rerank_pruned;
    out.rerank_promoted = schedule.rerank_promoted;
    out.rerank_demoted = schedule.rerank_demoted;
    out.checkpoints = request.checkpoints;
    out.resumed_from = request.resumed_from;
    out.deadline_trimmed = schedule.deadline_trimmed;
    out.leaves_remote = remote.leaves_remote;
    out.leaves_local =
        static_cast<long long>(schedule.executed.size()) -
        remote.leaves_remote;
    out.leaves_redispatched = remote.leaves_redispatched;
    out.remote_bytes_sent = remote.bytes_sent;
    out.remote_bytes_received = remote.bytes_received;
    out.worker_dispatches = remote.worker_dispatches;
}

std::vector<WaveSlot>
assemble_wave(const std::vector<WaveRequest*>& tenants, int wave_size,
              std::size_t rotate, std::vector<int>* taken_out)
{
    std::vector<WaveSlot> wave;
    if (taken_out)
        taken_out->assign(tenants.size(), 0);
    if (tenants.empty())
        return wave;
    const std::size_t n = tenants.size();

    // Cost budget: wave_size slots priced at the cheapest pending leaf, so
    // equal-width tenants pack exactly wave_size leaves per wave and wider
    // leaves charge proportionally more of the wave.
    long long min_cost = 0;
    for (const auto* r : tenants) {
        if (r->dispatched >= r->dispatch_limit())
            continue;
        const long long cost = leaf_slot_cost(
            *r->tree, r->schedule->executed[r->dispatched]);
        min_cost = min_cost == 0 ? cost : std::min(min_cost, cost);
    }
    if (min_cost == 0)
        return wave; // nothing pending anywhere
    const long long budget =
        static_cast<long long>(wave_size) * min_cost;

    // Fair round-robin with a rotating start, one leaf per tenant per
    // pass: under contention every tenant advances at the same rate, and
    // the rotation keeps the leftover capacity of a non-full pass from
    // always favouring the first tenant (so no tenant starves across
    // waves, even when the budget closes a wave early). The wave is
    // bounded both by wave_size SLOTS (the legacy latency/memory cap)
    // and by the cost budget; a wave's first leaf is always admitted
    // (progress guarantee), so an over-budget wide leaf rides a wave of
    // its own instead of wedging the queue.
    std::vector<int> taken(n, 0);
    const std::size_t start = rotate % n;
    long long spent = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t slot = (start + k) % n;
            WaveRequest& r = *tenants[slot];
            if (r.dispatched >= r.dispatch_limit())
                continue;
            // Per-request wave-share SELF-cap: a bulk tenant bounds how
            // many of its OWN leaves ride one wave, leaving the rest of
            // the capacity to co-tenants.
            if (r.config->wave_share > 0 &&
                taken[slot] >= r.config->wave_share)
                continue;
            if (!wave.empty() &&
                (static_cast<int>(wave.size()) >= wave_size ||
                 spent >= budget))
                continue; // slot cap / cost budget (first leaf exempt)
            const int leaf_id = r.schedule->executed[r.dispatched];
            wave.push_back({&r, leaf_id});
            spent += leaf_slot_cost(*r.tree, leaf_id);
            ++r.dispatched;
            ++taken[slot];
            progress = true;
        }
    }
    for (std::size_t slot = 0; slot < n; ++slot)
        if (taken[slot] > 0)
            ++tenants[slot]->epochs;
    if (taken_out)
        *taken_out = std::move(taken);
    return wave;
}

int
execute_wave(TemplateCache& cache, BatchExecutor& executor,
             const std::vector<WaveSlot>& wave, const WaveHooks& hooks)
{
    std::atomic<int> executed{0};
    std::vector<BatchExecutor::QueuedTask> queue;
    queue.reserve(wave.size());
    for (const auto& slot : wave) {
        queue.push_back([&cache, &hooks, &executed,
                         slot](BatchExecutor::Scratch& scratch) {
            if (hooks.admit && !hooks.admit(slot))
                return;
            executed.fetch_add(1, std::memory_order_relaxed);
            try {
                WaveRequest& r = *slot.request;
                TemplateTier fuse_tier = TemplateTier::Compile;
                auto counts = simulate_scheduled_leaf(
                    cache, *r.tree, slot.leaf_id, *r.dev, *r.config,
                    r.shots, scratch, nullptr, &fuse_tier);
                r.reducer->fold(slot.leaf_id, std::move(counts));
                if (hooks.folded)
                    hooks.folded(slot, false, fuse_tier);
            } catch (...) {
                if (!hooks.failed)
                    throw;
                hooks.failed(slot, std::current_exception());
            }
        });
    }
    executor.run_queue(queue);
    return executed.load(std::memory_order_acquire);
}

RerankOutcome
post_barrier_rerank(WaveRequest& request)
{
    RerankOutcome out;
    // Due only when the fold count landed exactly on the boundary — the
    // dispatch_limit cap guarantees it never overshoots — and the schedule
    // still has an un-dispatched tail (or budget-cut leaves) to re-rank.
    if (request.next_rerank == 0 ||
        request.dispatched != request.next_rerank || request.done())
        return out;
    const auto snapshot =
        request.reducer->epoch_snapshot(request.dispatched);
    out = rerank_schedule(*request.schedule, *request.model, *request.tree,
                          request.dispatched, snapshot);
    // Re-apply the deadline trim after the re-rank: promotions may have
    // refilled the tail past what the remaining deadline covers. Trimming
    // ONLY at plan time and re-rank boundaries keeps the trim a pure
    // function of the fold count — checkpoint barriers (whose placement
    // must not change results) never trigger one.
    apply_deadline_trim(*request.schedule, *request.tree,
                        request.config->deadline_cost_units,
                        request.dispatched);
    request.next_rerank +=
        static_cast<std::size_t>(request.config->rerank_interval);
    return out;
}

void
suspend_request(WaveRequest& request)
{
    auto& schedule = *request.schedule;
    FQ_ASSERT(request.dispatched <= schedule.executed.size(),
              "suspend with cursor past the schedule");
    for (std::size_t k = request.dispatched; k < schedule.executed.size();
         ++k)
        schedule.beyond_budget.push_back(schedule.executed[k]);
    schedule.executed.resize(request.dispatched);
    schedule.suspended = true;
}

bool
post_barrier_checkpoint(WaveRequest& request, const CheckpointHook& hook)
{
    if (request.next_checkpoint == 0 ||
        request.dispatched != request.next_checkpoint || request.done())
        return true;
    bool keep_going = true;
    if (hook) {
        ++request.checkpoints;
        keep_going = hook(request);
    }
    request.next_checkpoint +=
        static_cast<std::size_t>(request.config->checkpoint_interval);
    if (!keep_going)
        suspend_request(request);
    return keep_going;
}

void
run_wave_loop(LeafExecutor& executor, WaveRequest& request,
              const CheckpointHook& checkpoint)
{
    // A fresh request arms its boundaries here; one restored from a
    // checkpoint arrives with dispatched > 0 and its snapshot's re-rank
    // boundary already set — re-arming would rewind it below the cursor.
    if (request.dispatched == 0)
        arm_rerank(request);
    if (checkpoint)
        arm_checkpoint(request);
    while (!request.done()) {
        // One epoch: everything up to the next boundary (re-rank or
        // checkpoint) rides one wave — the whole schedule when both are
        // off: the pre-epoch single batch.
        const std::size_t limit = request.dispatch_limit();
        FQ_ASSERT(request.dispatched < limit,
                  "wave loop stalled before a boundary");
        std::vector<WaveSlot> wave;
        wave.reserve(limit - request.dispatched);
        for (; request.dispatched < limit; ++request.dispatched)
            wave.push_back({&request,
                            request.schedule->executed[request.dispatched]});
        ++request.epochs;
        executor.execute_wave(wave);
        post_barrier_rerank(request);
        post_barrier_checkpoint(request, checkpoint);
    }
}

} // namespace fq::engine
