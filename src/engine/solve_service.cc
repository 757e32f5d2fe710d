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
SolveService::submit(const ising::IsingModel& model,
                     const device::Device& dev,
                     const frozenqubits::DriverConfig& config, int shots,
                     std::uint64_t seed, CompletionCallback on_complete,
                     CheckpointCallback on_checkpoint)
{
    return submit_impl(model, dev, config, shots, seed, nullptr,
                       std::move(on_complete), std::move(on_checkpoint));
}

SolveService::Ticket
SolveService::submit_resume(const ising::IsingModel& model,
                            const device::Device& dev,
                            const frozenqubits::DriverConfig& config,
                            int shots, const SolveCheckpoint& snapshot,
                            CompletionCallback on_complete,
                            CheckpointCallback on_checkpoint)
{
    return submit_impl(model, dev, config, shots, snapshot.seed, &snapshot,
                       std::move(on_complete), std::move(on_checkpoint));
}

SolveService::Ticket
SolveService::submit_impl(const ising::IsingModel& model,
                          const device::Device& dev,
                          const frozenqubits::DriverConfig& config,
                          int shots, std::uint64_t seed,
                          const SolveCheckpoint* snapshot,
                          CompletionCallback on_complete,
                          CheckpointCallback on_checkpoint)
{
    // Admission pre-check before the expensive planning below; the
    // authoritative (race-free) check repeats at enqueue time.
    if (max_queue_depth_ > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        admit_or_throw_locked();
    }

    auto request = std::make_unique<Request>();
    request->model = model; // stable copies: the plan and the wave items
    request->dev = dev;     // reference the request's own storage
    request->config = config;
    request->on_complete = std::move(on_complete);
    request->on_checkpoint = std::move(on_checkpoint);

    // Plan on the CALLING thread — the solo solve's own sequence, so the
    // schedule (and therefore every leaf's plan-derived RNG stream) is
    // bit-identical to a standalone run. Concurrent submitters contend
    // only on the shared template cache, which compiles outside its lock.
    // Scoring runs serially here (no executor): the engine's executor
    // belongs to the assembler thread. A deadline that covers no leaf at
    // all is a typed rejection, counted like the backlog rejections below.
    try {
        plan_request(request->plan, request->model, request->dev,
                     request->config, shots, seed, snapshot, engine_.cache_,
                     /*scoring=*/nullptr);
    } catch (const DeadlineError&) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests_rejected_deadline;
        throw;
    }
    WaveRequest& wave = request->plan.wave;
    wave.context = request.get();
    // A resumed request keeps the snapshot's pending re-rank boundary
    // (arm_rerank would rewind it below the cursor); the checkpoint
    // boundary re-arms at the next interval multiple past the cursor.
    if (!snapshot)
        arm_rerank(wave);
    // Checkpoint boundaries cost wave fragmentation, so they arm only
    // when a sink will actually consume the snapshots.
    if (request->on_checkpoint && request->config.checkpoint_interval > 0)
        arm_checkpoint(wave);
    request->leaves_folded.store(static_cast<int>(wave.dispatched),
                                 std::memory_order_relaxed);
    request->pending_cost.store(remaining_cost(wave),
                                std::memory_order_relaxed);

    request->submitted = Clock::now();
    Ticket ticket;
    ticket.future_ = request->promise.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        FQ_REQUIRE(!stopping_, "submit on a stopping SolveService");
        if (max_queue_depth_ > 0)
            admit_or_throw_locked();
        // Fresh submits only: a migrated request was already admitted
        // against its deadline once — re-projecting the backlog here
        // could bounce it between shards forever.
        if (!snapshot && request->config.deadline_cost_units > 0)
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
            tenants.push_back(&request->plan.wave);
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
            r.plan.tree.leaves[static_cast<std::size_t>(slot.leaf_id)];
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
    // The shared counters come from the final schedule and the executor
    // seam's accounting (all zeros on the local backend). finish_request
    // releases the backend's per-request state (sessions, stats) — the
    // WaveRequest storage is about to be reused.
    {
        LeafExecutor& leaf_exec = engine_.leaf_executor();
        const LeafExecutorStats remote =
            leaf_exec.request_stats(&request.plan.wave);
        leaf_exec.finish_request(&request.plan.wave);
        fill_request_counters(request.plan.wave, remote, out.diag);
    }
    const LeafSchedule& schedule = request.plan.schedule;
    out.diag.request_id = request.id;
    out.diag.leaves_scheduled = static_cast<int>(schedule.executed.size());
    out.diag.leaves_executed = request.leaves_folded.load();
    out.diag.waves = request.waves;
    out.diag.fused_lookups = request.fused_lookups.load();
    out.diag.fused_lookups_scalar = request.fused_lookups_scalar.load();
    out.diag.fused_lookups_simd = request.fused_lookups_simd.load();
    out.diag.family_binds = request.family_binds.load();
    out.diag.wave_occupancy =
        request.waves == 0
            ? 0.0
            : request.occupancy_sum / static_cast<double>(request.waves);
    out.diag.degraded = schedule.deadline_trimmed > 0 || schedule.suspended;
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
        out.solved = request.plan.reducer->finish();
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
            WaveRequest& wave = request->plan.wave;
            post_barrier_rerank(wave);
            // Durable requests: snapshot at an armed checkpoint boundary
            // (armed only when the request has a callback). The wrapper
            // captures OUTSIDE the service lock (the snapshot copies
            // every folded histogram) and contains callback throws — the
            // header contract says they must not, so a violation is
            // treated as "continue", mirroring CompletionCallback. A
            // false return suspends the request (suspend_request inside
            // post_barrier_checkpoint); the completion scan below then
            // finishes it as a degraded anytime result.
            post_barrier_checkpoint(
                wave, [request](WaveRequest& w) {
                    const auto snapshot = capture_checkpoint(w);
                    try {
                        return request->on_checkpoint(request->id,
                                                      snapshot);
                    } catch (...) {
                        return true;
                    }
                });
            // Re-ranks and suspensions rewrite the schedule tail; refresh
            // the deadline backlog projection to match.
            request->pending_cost.store(remaining_cost(wave),
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
                    static_cast<int>(r.plan.schedule.executed.size());
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
