#include "engine/solve_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.h"

namespace fq::engine {

namespace {

/** Retained completed-request diagnostics: enough for any caller that
 *  polls diagnostics() after drain(), bounded so a process-lifetime
 *  service never grows without limit (oldest entries are dropped FIFO). */
constexpr std::size_t kMaxCompletedDiagnostics = 4096;

double
ms_since(std::chrono::steady_clock::time_point start,
         std::chrono::steady_clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start).count();
}

/** Wave-slot cost units still ahead of @p wave's cursor — the request's
 *  contribution to the deadline backlog projection. */
long long
remaining_cost(const WaveRequest& wave)
{
    long long total = 0;
    for (std::size_t k = wave.dispatched;
         k < wave.schedule->executed.size(); ++k)
        total += leaf_slot_cost(*wave.tree, wave.schedule->executed[k]);
    return total;
}

} // namespace

SolveService::SolveService(ExecutionEngine& engine)
    : SolveService(engine, Config{})
{
}

void
SolveService::admit_or_throw_locked() const
{
    // "In flight" covers requests still being reduced/delivered
    // (finishing_) as well as queued/executing ones — the Config promise.
    const std::size_t in_flight = active_.size() + finishing_;
    if (in_flight >= static_cast<std::size_t>(max_queue_depth_))
        throw AdmissionError("SolveService queue full (" +
                             std::to_string(in_flight) + " of " +
                             std::to_string(max_queue_depth_) +
                             " in flight)");
}

SolveService::SolveService(ExecutionEngine& engine, Config config)
    : engine_(engine),
      // Auto default: two pool widths, floored at 8 — waves never WAIT to
      // fill (assembly takes only what is pending), so a deeper cap costs
      // no latency; it only cuts per-wave handoff overhead on narrow
      // engines.
      wave_size_(config.wave_size > 0
                     ? config.wave_size
                     : std::max(8, 2 * engine.num_threads())),
      max_queue_depth_(config.max_queue_depth)
{
    assembler_ = std::thread([this] { assembler_loop(); });
}

SolveService::~SolveService()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    assembler_.join();
}

void
SolveService::deadline_or_throw_locked(long long deadline,
                                       long long own_cost)
{
    // Serial projection: the assembler round-robins fairly, but charging
    // the FULL pending cost of every active tenant ahead of this request
    // is the conservative bound the admission contract promises — a
    // request admitted here can only finish sooner than projected.
    long long backlog = 0;
    for (const auto& request : active_)
        backlog +=
            request->pending_cost.load(std::memory_order_acquire);
    if (backlog + own_cost > deadline) {
        ++stats_.requests_rejected_deadline;
        throw DeadlineError(
            "deadline of " + std::to_string(deadline) +
            " cost units cannot cover the backlog (" +
            std::to_string(backlog) + " units ahead) plus this request's " +
            "schedule (" + std::to_string(own_cost) + " units)");
    }
}

SolveService::Ticket
SolveService::enqueue_request(std::unique_ptr<Request> request,
                              bool check_deadline)
{
    request->submitted = Clock::now();
    Ticket ticket;
    ticket.future_ = request->promise.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        FQ_REQUIRE(!stopping_, "submit on a stopping SolveService");
        if (max_queue_depth_ > 0)
            admit_or_throw_locked();
        if (check_deadline && request->config.deadline_cost_units > 0)
            deadline_or_throw_locked(
                request->config.deadline_cost_units,
                request->pending_cost.load(std::memory_order_relaxed));
        request->id = next_id_++;
        ticket.id_ = request->id;
        ++stats_.requests_submitted;
        active_.push_back(std::move(request));
    }
    work_available_.notify_all();
    return ticket;
}

SolveService::Ticket
SolveService::submit(const ising::IsingModel& model,
                     const device::Device& dev,
                     const frozenqubits::DriverConfig& config, int shots,
                     std::uint64_t seed, CompletionCallback on_complete,
                     CheckpointCallback on_checkpoint)
{
    FQ_REQUIRE(shots >= 1, "need at least one shot");

    // Admission pre-check before the expensive planning below; the
    // authoritative (race-free) check repeats at enqueue time.
    if (max_queue_depth_ > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        admit_or_throw_locked();
    }

    auto request = std::make_unique<Request>();
    request->model = model; // stable copies: the reducer and the wave items
    request->dev = dev;     // reference the request's own storage
    request->config = config;
    request->shots = shots;
    request->on_complete = std::move(on_complete);
    request->on_checkpoint = std::move(on_checkpoint);

    // Plan on the CALLING thread — the exact sequence of a solo
    // ExecutionEngine::solve, so the schedule (and therefore every leaf's
    // plan-derived RNG stream) is bit-identical to a standalone run.
    // Concurrent submitters contend only on the shared template cache,
    // which compiles outside its lock. Scoring runs serially here
    // (executor = nullptr): per-leaf scores are a pure function of the
    // leaf, so the scores — and the schedule — match the engine's
    // executor-parallel scoring exactly.
    Rng rng(seed);
    request->tree = build_solve_tree(request->model, request->dev,
                                     request->config, engine_.cache_, rng);
    request->schedule = make_schedule(request->model, request->tree,
                                      request->config,
                                      /*force_scoring=*/false, nullptr);
    // Plan-time deadline trim, exactly as a solo solve applies it; a
    // deadline that covers no leaf at all is a typed rejection, counted
    // like the backlog-projection rejections below.
    try {
        apply_deadline_trim(request->schedule, request->tree,
                            request->config.deadline_cost_units,
                            /*folded=*/0);
    } catch (const DeadlineError&) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests_rejected_deadline;
        throw;
    }
    request->reducer.emplace(request->model, request->tree,
                             request->schedule);
    // Wire the wave-loop view into the request's own (heap-pinned)
    // storage; the assembler drives the shared epoch primitives on it.
    request->wave.model = &request->model;
    request->wave.tree = &request->tree;
    request->wave.schedule = &request->schedule;
    request->wave.reducer = &*request->reducer;
    request->wave.dev = &request->dev;
    request->wave.config = &request->config;
    request->wave.shots = shots;
    request->wave.context = request.get();
    request->wave.seed = seed;
    arm_rerank(request->wave);
    // Checkpoint boundaries cost wave fragmentation, so they arm only
    // when a sink will actually consume the snapshots.
    if (request->on_checkpoint &&
        request->config.checkpoint_interval > 0)
        arm_checkpoint(request->wave);
    request->pending_cost.store(remaining_cost(request->wave),
                                std::memory_order_relaxed);

    return enqueue_request(std::move(request), /*check_deadline=*/true);
}

SolveService::Ticket
SolveService::submit_resume(const ising::IsingModel& model,
                            const device::Device& dev,
                            const frozenqubits::DriverConfig& config,
                            int shots, const SolveCheckpoint& snapshot,
                            CompletionCallback on_complete,
                            CheckpointCallback on_checkpoint)
{
    FQ_REQUIRE(shots >= 1, "need at least one shot");

    if (max_queue_depth_ > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        admit_or_throw_locked();
    }

    auto request = std::make_unique<Request>();
    request->model = model;
    request->dev = dev;
    request->config = config;
    request->shots = shots;
    request->on_complete = std::move(on_complete);
    request->on_checkpoint = std::move(on_checkpoint);

    // Replan from the SNAPSHOT's seed; restore_checkpoint fingerprint-
    // checks that this reproduces the plan the snapshot's cursor indexes
    // into, then re-folds the recorded outcomes and moves the cursor. No
    // plan-time deadline trim: the snapshot's schedule already carries
    // every trim/re-rank decision up to its boundary.
    Rng rng(snapshot.seed);
    request->tree = build_solve_tree(request->model, request->dev,
                                     request->config, engine_.cache_, rng);
    request->schedule = make_schedule(request->model, request->tree,
                                      request->config,
                                      /*force_scoring=*/false, nullptr);
    request->reducer.emplace(request->model, request->tree,
                             request->schedule);
    request->wave.model = &request->model;
    request->wave.tree = &request->tree;
    request->wave.schedule = &request->schedule;
    request->wave.reducer = &*request->reducer;
    request->wave.dev = &request->dev;
    request->wave.config = &request->config;
    request->wave.shots = shots;
    request->wave.context = request.get();
    request->wave.seed = snapshot.seed;
    restore_checkpoint(snapshot, request->wave);
    // The snapshot carries the pending re-rank boundary (arm_rerank would
    // rewind it below the cursor); the checkpoint boundary re-arms at the
    // next interval multiple past the restored cursor.
    if (request->on_checkpoint &&
        request->config.checkpoint_interval > 0)
        arm_checkpoint(request->wave);
    request->leaves_folded.store(static_cast<int>(snapshot.cursor),
                                 std::memory_order_release);
    request->resumed_from = static_cast<int>(snapshot.cursor);
    request->pending_cost.store(remaining_cost(request->wave),
                                std::memory_order_relaxed);

    // Queue-depth check only: a migrated request was already admitted
    // against its deadline once — re-projecting the backlog here could
    // bounce it between shards forever.
    return enqueue_request(std::move(request), /*check_deadline=*/false);
}

std::vector<WaveSlot>
SolveService::assemble_wave_locked()
{
    std::vector<WaveSlot> wave;
    if (active_.empty())
        return wave;

    // Live tenants only: a failed request's remaining leaves are dead
    // weight the wave should not even assemble.
    std::vector<WaveRequest*> tenants;
    tenants.reserve(active_.size());
    for (auto& request : active_)
        if (!request->failed.load(std::memory_order_acquire))
            tenants.push_back(&request->wave);
    if (tenants.empty())
        return wave;

    // The shared wave-loop packing: fair round-robin with rotating start,
    // cost-weighted slots, wave_share self-caps and re-rank boundary caps.
    std::vector<int> taken;
    wave = engine::assemble_wave(tenants, wave_size_, rotate_++, &taken);

    // Per-tenant wave bookkeeping (assembler-thread state).
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        if (taken[t] == 0)
            continue;
        Request& request = *static_cast<Request*>(tenants[t]->context);
        ++request.waves;
        request.occupancy_sum += static_cast<double>(taken[t]) /
                                 static_cast<double>(wave.size());
        // The dispatch cursor just advanced; keep the deadline backlog
        // projection submit() reads in step with it.
        request.pending_cost.store(remaining_cost(*tenants[t]),
                                   std::memory_order_release);
    }
    return wave;
}

int
SolveService::run_wave(const std::vector<WaveSlot>& wave)
{
    // The shared wave execution with the service's per-tenant hooks:
    // failure isolation (first failure wins, poisons only that request)
    // and diagnostics (first-execution timestamp, fused-program counts,
    // fold counting).
    WaveHooks hooks;
    hooks.admit = [](const WaveSlot& slot) {
        Request& r = *static_cast<Request*>(slot.request->context);
        if (r.failed.load(std::memory_order_acquire))
            return false;
        if (!r.started.exchange(true, std::memory_order_acq_rel)) {
            std::lock_guard<std::mutex> g(r.error_mutex);
            r.first_exec = Clock::now();
        }
        return true;
    };
    hooks.folded = [](const WaveSlot& slot, bool /*fused_hit*/,
                      TemplateTier fuse_tier) {
        Request& r = *static_cast<Request*>(slot.request->context);
        const auto& leaf =
            r.tree.leaves[static_cast<std::size_t>(slot.leaf_id)];
        if (leaf.fuse) {
            r.fused_lookups.fetch_add(1, std::memory_order_relaxed);
            if (fuse_tier == TemplateTier::Bind)
                r.family_binds.fetch_add(1, std::memory_order_relaxed);
            // Attribute the traffic to the leaf's plan-time backend tag.
            auto& lookups = leaf.backend == sim::BackendKind::VectorizedFused
                                ? r.fused_lookups_simd
                                : r.fused_lookups_scalar;
            lookups.fetch_add(1, std::memory_order_relaxed);
        }
        r.leaves_folded.fetch_add(1, std::memory_order_acq_rel);
    };
    hooks.failed = [](const WaveSlot& slot, std::exception_ptr error) {
        Request& r = *static_cast<Request*>(slot.request->context);
        std::lock_guard<std::mutex> g(r.error_mutex);
        if (!r.failed.load(std::memory_order_relaxed)) {
            r.error = std::move(error);
            r.failed.store(true, std::memory_order_release);
        }
    };
    // Dispatch through the engine's executor seam: the local
    // BatchExecutor by default, a net::WorkerPool when one is attached.
    return engine_.leaf_executor().execute_wave(wave, hooks);
}

SolveService::Outcome
SolveService::reduce_request(Request& request)
{
    Outcome out;
    out.diag.request_id = request.id;
    out.diag.leaves_scheduled =
        static_cast<int>(request.schedule.executed.size());
    out.diag.leaves_executed = request.leaves_folded.load();
    out.diag.waves = request.waves;
    out.diag.fused_lookups = request.fused_lookups.load();
    out.diag.fused_lookups_scalar = request.fused_lookups_scalar.load();
    out.diag.fused_lookups_simd = request.fused_lookups_simd.load();
    out.diag.family_binds = request.family_binds.load();
    // Plan-time tier split over the leaves that actually folded (the final
    // schedule — re-ranks may have rewritten the plan-time cut).
    for (int leaf_id : request.schedule.executed) {
        const auto& leaf =
            request.tree.leaves[static_cast<std::size_t>(leaf_id)];
        switch (leaf.tier) {
        case TemplateTier::Bind: ++out.diag.leaves_tier_bind; break;
        case TemplateTier::Compile:
            ++out.diag.leaves_tier_compile;
            break;
        }
        const auto arm =
            node_kind_index(leaf_arm_kind(request.tree, leaf_id));
        ++out.diag.kind_leaves_executed[arm];
        out.diag.kind_budget_units[arm] +=
            leaf_slot_cost(request.tree, leaf_id);
    }
    for (int leaf_id : request.schedule.beyond_budget)
        ++out.diag.kind_leaves_pruned[node_kind_index(
            leaf_arm_kind(request.tree, leaf_id))];
    for (int leaf_id : request.schedule.pruned)
        ++out.diag.kind_leaves_pruned[node_kind_index(
            leaf_arm_kind(request.tree, leaf_id))];
    out.diag.wave_occupancy =
        request.waves == 0
            ? 0.0
            : request.occupancy_sum / static_cast<double>(request.waves);
    out.diag.reranks = request.schedule.reranks;
    out.diag.rerank_pruned = request.schedule.rerank_pruned;
    out.diag.rerank_promoted = request.schedule.rerank_promoted;
    out.diag.rerank_demoted = request.schedule.rerank_demoted;
    // Remote-execution accounting from the executor seam (all zeros on
    // the local backend). finish_request releases the backend's
    // per-request state (sessions, stats) — the WaveRequest storage is
    // about to be reused.
    {
        LeafExecutor& leaf_exec = engine_.leaf_executor();
        const LeafExecutorStats remote =
            leaf_exec.request_stats(&request.wave);
        leaf_exec.finish_request(&request.wave);
        out.diag.leaves_remote = remote.leaves_remote;
        out.diag.leaves_local =
            static_cast<long long>(out.diag.leaves_executed) -
            remote.leaves_remote;
        out.diag.leaves_redispatched = remote.leaves_redispatched;
        out.diag.remote_bytes_sent = remote.bytes_sent;
        out.diag.remote_bytes_received = remote.bytes_received;
        out.diag.worker_dispatches = remote.worker_dispatches;
    }
    out.diag.checkpoints = request.checkpoints;
    out.diag.resumed_from = request.resumed_from;
    out.diag.deadline_trimmed = request.schedule.deadline_trimmed;
    out.diag.degraded = request.schedule.deadline_trimmed > 0 ||
                        request.schedule.suspended;
    const auto now = Clock::now();
    if (request.started.load(std::memory_order_acquire))
        out.diag.queue_latency_ms =
            ms_since(request.submitted, request.first_exec);
    out.diag.wall_ms = ms_since(request.submitted, now);

    if (request.failed.load(std::memory_order_acquire)) {
        out.error = request.error;
        return out;
    }
    try {
        out.solved = request.reducer->finish();
    } catch (...) {
        // A reduction failure poisons only this request — an escaped
        // exception on the assembler thread would std::terminate the whole
        // service and every co-tenant.
        request.failed.store(true, std::memory_order_release);
        out.error = std::current_exception();
    }
    return out;
}

void
SolveService::deliver(Request& request, Outcome& outcome)
{
    if (outcome.error) {
        request.promise.set_exception(outcome.error);
        return;
    }
    if (request.on_complete) {
        try {
            request.on_complete(request.id, outcome.solved);
        } catch (...) {
            // Callbacks must not throw (header contract); a violation is
            // contained so the result below is still delivered and the
            // assembler survives.
        }
    }
    request.promise.set_value(std::move(outcome.solved));
}

void
SolveService::assembler_loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_available_.wait(
            lock, [&] { return stopping_ || !active_.empty(); });
        if (active_.empty()) {
            if (stopping_)
                return; // drained: every submitted request completed
            continue;
        }

        const auto wave = assemble_wave_locked();
        lock.unlock();
        int executed = 0;
        if (!wave.empty())
            executed = run_wave(wave);
        lock.lock();
        if (!wave.empty()) {
            ++stats_.waves_executed;
            stats_.wave_slots += static_cast<std::uint64_t>(executed);
        }

        // Post-barrier scan, part 1 — adaptive re-ranking: after the wave
        // barrier every dispatched leaf has folded, so a live request
        // sitting exactly on its next rerank_interval boundary re-ranks
        // its un-dispatched tail against its own epoch snapshot. The
        // re-score is CPU-heavy (per-leaf original-model evaluations), so
        // it runs WITHOUT the service lock: it touches only per-request
        // state the assembler alone mutates, requests are heap-pinned in
        // active_ until this same iteration's completion scan, and no
        // leaves are in flight. A failed request never re-ranks (its
        // outcomes may be incomplete and it is being torn down).
        std::vector<Request*> live;
        live.reserve(active_.size());
        for (auto& request : active_)
            if (!request->failed.load(std::memory_order_acquire))
                live.push_back(request.get());
        lock.unlock();
        for (Request* request : live) {
            post_barrier_rerank(request->wave);
            // Durable requests: snapshot at an armed checkpoint boundary.
            // The wrapper captures OUTSIDE the service lock (the snapshot
            // copies every folded histogram) and contains callback throws
            // — the header contract says they must not, so a violation is
            // treated as "continue", mirroring CompletionCallback. A
            // false return suspends the request (suspend_request inside
            // post_barrier_checkpoint); the completion scan below then
            // finishes it as a degraded anytime result.
            post_barrier_checkpoint(
                request->wave, [request](WaveRequest& wave) {
                    if (!request->on_checkpoint)
                        return true;
                    const auto snapshot = capture_checkpoint(wave);
                    ++request->checkpoints;
                    try {
                        return request->on_checkpoint(request->id,
                                                      snapshot);
                    } catch (...) {
                        return true;
                    }
                });
            // Re-ranks and suspensions rewrite the schedule tail; refresh
            // the deadline backlog projection to match.
            request->pending_cost.store(remaining_cost(request->wave),
                                        std::memory_order_release);
        }
        lock.lock();

        // Post-barrier scan, part 2 — completion is a pure cursor check
        // against the (possibly just re-cut) schedule.
        std::vector<std::unique_ptr<Request>> finished;
        for (auto it = active_.begin(); it != active_.end();) {
            Request& r = **it;
            const bool done =
                r.failed.load(std::memory_order_acquire) ||
                r.leaves_folded.load(std::memory_order_acquire) ==
                    static_cast<int>(r.schedule.executed.size());
            if (done) {
                finished.push_back(std::move(*it));
                it = active_.erase(it);
            } else {
                ++it;
            }
        }
        finishing_ += finished.size();
        lock.unlock();

        // Reduce without the lock, then publish diagnostics + counters
        // BEFORE delivering promises/callbacks, so a completion callback
        // can read its own diagnostics() and stats(). Callbacks run
        // without the lock; drain() from a callback is the one documented
        // deadlock.
        std::vector<Outcome> outcomes;
        outcomes.reserve(finished.size());
        for (auto& request : finished)
            outcomes.push_back(reduce_request(*request));

        lock.lock();
        for (std::size_t k = 0; k < finished.size(); ++k) {
            completed_[finished[k]->id] = outcomes[k].diag;
            completed_order_.push_back(finished[k]->id);
            while (completed_order_.size() > kMaxCompletedDiagnostics) {
                completed_.erase(completed_order_.front());
                completed_order_.pop_front();
            }
            if (outcomes[k].error)
                ++stats_.requests_failed;
            else
                ++stats_.requests_completed;
        }
        lock.unlock();

        for (std::size_t k = 0; k < finished.size(); ++k)
            deliver(*finished[k], outcomes[k]);

        lock.lock();
        finishing_ -= finished.size();
        request_done_.notify_all();
    }
}

void
SolveService::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    request_done_.wait(
        lock, [&] { return active_.empty() && finishing_ == 0; });
}

SolveService::TenantDiagnostics
SolveService::diagnostics(std::uint64_t request_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = completed_.find(request_id);
    FQ_REQUIRE(it != completed_.end(),
               "diagnostics are only available for completed requests");
    return it->second;
}

SolveService::Stats
SolveService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    const double denom = static_cast<double>(out.waves_executed) *
                         static_cast<double>(engine_.num_threads());
    out.mean_pool_fill =
        denom == 0.0 ? 0.0 : static_cast<double>(out.wave_slots) / denom;
    return out;
}

} // namespace fq::engine
