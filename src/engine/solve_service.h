/**
 * @file
 * SolveService: cross-solve request batching over one ExecutionEngine.
 *
 * FrozenQubits' 2^m sub-problem fan-out only amortizes at service scale
 * when ONE engine's thread pool and template cache are shared across
 * many concurrent solve requests, not just within one instance (the
 * Skipper observation: throughput comes from batching
 * independent sub-circuits across problems). The service accepts
 * concurrent submit() calls, plans each request on the submitter's thread
 * (tree + schedule + streaming reducer — cache-served planning runs
 * concurrently across tenants), and an assembler thread coalesces the
 * per-request leaf schedules into shared executor WAVES:
 *
 *   wave assembly — the shared wave-loop packing (wave_loop.h): fair
 *       round-robin across active tenants in submission order (rotating
 *       start), one leaf per tenant per pass, cost-weighted slots (a leaf
 *       charges 2^width units so one wide tenant cannot stall a wave's
 *       tail), honoring each request's budget-cut schedule, its optional
 *       DriverConfig::wave_share per-wave cap and its re-rank boundary;
 *   wave execution — one BatchExecutor::run_queue drain over the mixed
 *       queue; each leaf simulates through the same
 *       simulate_scheduled_leaf path as a solo solve and folds into ITS
 *       OWN request's StreamingReducer;
 *   post-barrier scan — requests whose fold count reached their next
 *       rerank_interval boundary re-rank their un-dispatched leaves
 *       against their own reducer's epoch snapshot; requests whose
 *       scheduled leaves have all folded finish their reduction and
 *       fulfil their future / completion callback.
 *
 * Determinism contract: per-request results are bit-identical to a solo
 * ExecutionEngine::solve at any thread count, regardless of how tenants
 * interleave. Every order-dependent decision is fixed at plan time (leaf
 * RNG streams, schedule, budget cut), the reducer's fold is order
 * independent by design, leaf execution is a pure function of the plan,
 * and an adaptive re-rank is a pure function of the request's OWN fold
 * count (epoch snapshot over exactly the first k scheduled leaves, never
 * the service-global wave index) — so wave composition can only change
 * WHEN a leaf runs, never what it produces.
 *
 * Admission control: Config::max_queue_depth bounds the in-flight request
 * count; submit() past it throws AdmissionError instead of queuing
 * unboundedly. Deadline-aware admission: a request carrying
 * DriverConfig::deadline_cost_units is rejected with DeadlineError when
 * the serial backlog ahead of it (every active tenant's un-dispatched
 * leaves, in 2^width wave-slot cost units) plus its own schedule projects
 * past the deadline — shedding at submit time instead of burning waves on
 * an answer that will arrive too late.
 *
 * Durable solves: submit() with an on_checkpoint callback (and
 * DriverConfig::checkpoint_interval > 0) snapshots the request at fold
 * boundaries; submit_resume() re-admits a snapshot mid-schedule — in the
 * same service or another process — with results bit-identical to an
 * uninterrupted run (engine/checkpoint.h).
 *
 * Threading: submit() may be called from any thread. The engine's executor
 * is driven only by the service's assembler thread (the engine contract of
 * one driver at a time); do not call engine.solve()/run() directly while a
 * service holds the engine.
 */
#ifndef FQ_ENGINE_SOLVE_SERVICE_H
#define FQ_ENGINE_SOLVE_SERVICE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "engine/engine.h"
#include "engine/reducer.h"
#include "engine/wave_loop.h"

namespace fq::engine {

/**
 * Thrown by SolveService::submit when admission control rejects a request
 * (queue depth at Config::max_queue_depth). Typed so callers can tell
 * backpressure apart from planning failures and retry/shed accordingly.
 */
class AdmissionError : public fq::Error
{
  public:
    explicit AdmissionError(const std::string& what) : fq::Error(what) {}
};

class SolveService
{
  public:
    /** Service-wide tuning (per-request knobs live in DriverConfig). */
    struct Config
    {
        /**
         * Leaf slots per shared wave, priced in units of the cheapest
         * pending leaf (a leaf charges 2^width units — wave_loop.h), so a
         * wide tenant consumes proportionally more of a wave instead of
         * stalling its tail. Larger waves amortize the fork-join barrier
         * better; smaller waves complete short requests sooner.
         * 0 = auto: 2x the engine's worker threads.
         */
        int wave_size = 0;
        /**
         * Admission control: maximum requests in flight (queued or
         * executing). submit() beyond it throws AdmissionError instead of
         * queuing unboundedly. 0 = unlimited (legacy behaviour).
         */
        int max_queue_depth = 0;
    };

    /** Per-request observability, available once the request completed.
     *  The RequestCounters part equals what a solo solve of the same
     *  request reports in ExecutionEngine::last_diagnostics(). */
    struct TenantDiagnostics : RequestCounters
    {
        std::uint64_t request_id = 0;
        /** Final schedule size: the plan-time budget cut, minus leaves an
         *  adaptive re-rank pruned or demoted mid-run. */
        int leaves_scheduled = 0;
        int leaves_executed = 0;  ///< folded leaves (== scheduled on success)
        int waves = 0;            ///< waves this request contributed to
        /** Fused programs this tenant's leaves built (get_or_fuse calls). */
        std::uint64_t fused_lookups = 0;
        /** Per-backend split of fused_lookups (plan-time leaf backend
         *  tags; scalar + simd == fused_lookups). */
        std::uint64_t fused_lookups_scalar = 0;
        std::uint64_t fused_lookups_simd = 0;
        /**
         * Mean share of the wave slots this tenant held across the waves it
         * rode (1.0 = had every wave to itself; 1/K under K equal tenants)
         * — the fairness / batching-benefit metric.
         */
        double wave_occupancy = 0.0;
        /** submit() return -> first leaf simulation start. */
        double queue_latency_ms = 0.0;
        /** submit() return -> completion (reduction included). */
        double wall_ms = 0.0;
        /** Completed early (deadline trim or checkpoint suspension): the
         *  result is the anytime incumbent, not the full schedule. */
        bool degraded = false;
    };

    /** Service-wide counters (snapshot; monotone while the service lives). */
    struct Stats
    {
        std::uint64_t requests_submitted = 0;
        std::uint64_t requests_completed = 0;
        std::uint64_t requests_failed = 0;
        /** Requests shed at submit because the projected completion
         *  (backlog + own schedule) exceeded their deadline_cost_units,
         *  or because the deadline could not cover even one leaf. */
        std::uint64_t requests_rejected_deadline = 0;
        std::uint64_t waves_executed = 0;
        /** Leaves actually simulated across all waves (skipped slots of
         *  failed tenants do not count). */
        std::uint64_t wave_slots = 0;
        /** wave_slots / (waves_executed * engine threads): how full the
         *  worker pool ran (dead slots of failed tenants excluded).
         *  > 1 means waves were deeper than the pool. */
        double mean_pool_fill = 0.0;
    };

    /** Handle to one submitted request. */
    class Ticket
    {
      public:
        Ticket() = default;

        std::uint64_t id() const { return id_; }

        /** Block for the result; rethrows the request's failure, if any.
         *  May be called at most once per ticket copy chain (the result is
         *  moved out). */
        frozenqubits::SampledSolve get() { return future_.get(); }

        /** Block until the request completed (result still retrievable). */
        void wait() const { future_.wait(); }

      private:
        friend class SolveService;
        std::uint64_t id_ = 0;
        std::future<frozenqubits::SampledSolve> future_;
    };

    /** Called on the assembler thread when a request completes cleanly.
     *  By the time it runs, the request's diagnostics() and the service
     *  stats() are published, so the callback may read them — but it MUST
     *  NOT call drain() (the assembler is blocked inside the callback:
     *  guaranteed deadlock) and must not throw (a throw is contained — the
     *  future still delivers the result — but the exception is dropped). */
    using CompletionCallback =
        std::function<void(std::uint64_t request_id,
                           const frozenqubits::SampledSolve&)>;

    /** Called on the assembler thread at each of a durable request's
     *  checkpoint boundaries (DriverConfig::checkpoint_interval) with a
     *  snapshot resumable via submit_resume / ExecutionEngine::resume.
     *  Return false to SUSPEND the request: it completes early with its
     *  anytime incumbent flagged degraded while the snapshot carries the
     *  full solve elsewhere — the migration primitive. Same contract as
     *  CompletionCallback: MUST NOT call drain() (the assembler is blocked
     *  inside the callback) and must not throw (a throw is swallowed and
     *  treated as "continue"). */
    using CheckpointCallback =
        std::function<bool(std::uint64_t request_id,
                           const SolveCheckpoint&)>;

    explicit SolveService(ExecutionEngine& engine);
    SolveService(ExecutionEngine& engine, Config config);

    /** Drains every pending request, then stops the assembler. */
    ~SolveService();

    SolveService(const SolveService&) = delete;
    SolveService& operator=(const SolveService&) = delete;

    /**
     * Submit one solve request. Planning (tree construction, scheduling,
     * template-cache resolution) runs on the CALLING thread before this
     * returns — concurrent submitters plan concurrently against the shared
     * cache. The request takes the solo solve's path (plan_request,
     * wave_loop.h), so its result is bit-identical to
     * `engine.solve(model, dev, config, shots, seed)` — including
     * adaptive re-ranking (config.rerank_interval), whose epoch
     * boundaries depend only on this request's own fold count.
     * Throws on planning failure (nothing is enqueued), AdmissionError
     * when Config::max_queue_depth requests are already in flight, and
     * DeadlineError when config.deadline_cost_units is set and either no
     * leaf fits the deadline or the backlog of active tenants plus this
     * request's own schedule projects past it.
     *
     * @p on_checkpoint, combined with config.checkpoint_interval > 0,
     * makes the request durable (snapshots at fold boundaries; see
     * CheckpointCallback). Checkpoint barriers never change results.
     */
    Ticket submit(const ising::IsingModel& model, const device::Device& dev,
                  const frozenqubits::DriverConfig& config, int shots,
                  std::uint64_t seed,
                  CompletionCallback on_complete = nullptr,
                  CheckpointCallback on_checkpoint = nullptr);

    /**
     * Re-admit a checkpointed request mid-schedule: replan from the
     * snapshot's seed, fingerprint-check identity (CheckpointError on any
     * mismatch), re-fold the recorded outcomes and continue from the
     * snapshot's cursor alongside other tenants. The combined
     * checkpoint-then-resume result is bit-identical to the uninterrupted
     * request. Admission applies the queue-depth check but NOT the
     * deadline backlog projection — a migrated request was already
     * admitted once, and bouncing it between shards would strand it.
     */
    Ticket submit_resume(const ising::IsingModel& model,
                         const device::Device& dev,
                         const frozenqubits::DriverConfig& config,
                         int shots, const SolveCheckpoint& snapshot,
                         CompletionCallback on_complete = nullptr,
                         CheckpointCallback on_checkpoint = nullptr);

    /** Block until every request submitted so far has completed. */
    void drain();

    /** Diagnostics of a COMPLETED request. Throws for unknown or pending
     *  ids — including completed requests older than the FIFO retention
     *  cap (the most recent ~4k completions are kept). */
    TenantDiagnostics diagnostics(std::uint64_t request_id) const;

    Stats stats() const;

    /** Resolved leaf slots per wave (the Config::wave_size auto default). */
    int wave_size() const { return wave_size_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One in-flight request; heap-pinned so the plan's references into
     *  the owning struct stay valid for the request's lifetime. */
    struct Request
    {
        std::uint64_t id = 0;
        ising::IsingModel model;
        device::Device dev;
        frozenqubits::DriverConfig config;

        /** Tree, schedule, reducer and the wave-loop view over them,
         *  planned in place from the fields above. */
        PlannedRequest plan;

        std::promise<frozenqubits::SampledSolve> promise;
        CompletionCallback on_complete;
        CheckpointCallback on_checkpoint;

        /** Wave-slot cost units (2^width per leaf) still ahead of this
         *  request's cursor. Maintained by the assembler after every wave
         *  and boundary scan; read by submit()'s deadline backlog
         *  projection from other threads, hence atomic. */
        std::atomic<long long> pending_cost{0};

        /** First failure among this request's leaves (poisons only this
         *  request; the wave and other tenants are unaffected). */
        std::atomic<bool> failed{false};
        std::exception_ptr error; ///< guarded by error_mutex
        std::mutex error_mutex;

        // ------------------------------------------------- diagnostics --
        Clock::time_point submitted;
        std::atomic<bool> started{false};
        Clock::time_point first_exec; ///< guarded by error_mutex
        std::atomic<std::uint64_t> fused_lookups{0};
        /** Per-backend split (see TenantDiagnostics). */
        std::atomic<std::uint64_t> fused_lookups_scalar{0};
        std::atomic<std::uint64_t> fused_lookups_simd{0};
        std::atomic<int> leaves_folded{0};
        int waves = 0;               ///< assembler-thread only
        double occupancy_sum = 0.0;  ///< assembler-thread only
    };

    /** A completed request's reduced result, staged between reduction and
     *  promise/callback delivery so diagnostics publish first. */
    struct Outcome
    {
        TenantDiagnostics diag;
        frozenqubits::SampledSolve solved;
        std::exception_ptr error; ///< non-null = the request failed
    };

    /** Throw AdmissionError when the in-flight count (active + finishing)
     *  is at max_queue_depth_. Call with mutex_ held, depth policy on. */
    void admit_or_throw_locked() const;
    /** Throw DeadlineError (counting the rejection) when the active
     *  tenants' pending cost plus @p own_cost exceeds @p deadline. Call
     *  with mutex_ held, deadline > 0. */
    void deadline_or_throw_locked(long long deadline, long long own_cost);
    /** Shared body of submit / submit_resume: plan (replan and restore
     *  @p snapshot for a resume) on the calling thread, arm the request's
     *  boundaries, re-check admission (and, for fresh submits, the
     *  deadline backlog) under the lock, assign the id, publish to
     *  active_. */
    Ticket submit_impl(const ising::IsingModel& model,
                       const device::Device& dev,
                       const frozenqubits::DriverConfig& config, int shots,
                       std::uint64_t seed, const SolveCheckpoint* snapshot,
                       CompletionCallback on_complete,
                       CheckpointCallback on_checkpoint);
    void assembler_loop();
    /** Drive the shared wave-loop assembly over the live tenants (fair
     *  round-robin + wave_share + cost weighting + re-rank boundary caps)
     *  and keep the per-tenant wave bookkeeping. */
    std::vector<WaveSlot> assemble_wave_locked();
    /** Returns how many wave slots actually simulated (a failed tenant's
     *  remaining slots are skipped dead weight). */
    int run_wave(const std::vector<WaveSlot>& wave);
    /** Final reduction + diagnostics; never throws (failures land in
     *  Outcome::error). Runs on the assembler thread without the lock. */
    Outcome reduce_request(Request& request);
    /** Fulfil the promise / completion callback. Runs without the lock,
     *  AFTER the outcome's diagnostics were published. */
    void deliver(Request& request, Outcome& outcome);

    ExecutionEngine& engine_;
    int wave_size_;
    int max_queue_depth_; ///< 0 = unlimited

    mutable std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable request_done_;
    bool stopping_ = false;
    std::uint64_t next_id_ = 1;
    std::size_t rotate_ = 0; ///< rotating round-robin start index

    /** Active requests in submission order (stable heap storage). */
    std::deque<std::unique_ptr<Request>> active_;
    /** Requests pulled out of active_ whose promises are being fulfilled
     *  (drain() must not return while any exist). */
    std::size_t finishing_ = 0;
    /** Diagnostics of recently completed requests, FIFO-capped so a
     *  process-lifetime service cannot grow without bound. */
    std::unordered_map<std::uint64_t, TenantDiagnostics> completed_;
    std::deque<std::uint64_t> completed_order_;
    Stats stats_;

    std::thread assembler_;
};

} // namespace fq::engine

#endif // FQ_ENGINE_SOLVE_SERVICE_H
