/**
 * @file
 * Wave-synchronous execution epochs: the ONE schedule→dispatch→fold→barrier
 * cycle, shared by the solo ExecutionEngine::solve and the multi-tenant
 * SolveService (which used to duplicate it as a flat batch and an assembler
 * loop respectively). Both drivers also plan every request through
 * plan_request and report it through one RequestCounters record.
 *
 * An epoch is one wave: dispatch a slice of each participating request's
 * ranked leaf schedule onto the executor, run it to the fork-join barrier,
 * fold every result into its request's StreamingReducer — then run the
 * post-barrier scan, where adaptive budget re-ranking lives. After each
 * wave, a request whose fold count reached its next re-rank boundary
 * (multiples of DriverConfig::rerank_interval) re-scores its
 * not-yet-dispatched leaves against the reducer's epoch snapshot, prunes
 * stale dominated leaves and re-cuts the remaining budget
 * (scheduler.h: rerank_schedule).
 *
 * Determinism contract: a re-rank at boundary b sees the incumbent over
 * exactly the first b scheduled leaves (StreamingReducer::epoch_snapshot),
 * and dispatch NEVER overshoots a pending boundary (dispatch_limit), so the
 * rewritten tail always starts at b. Re-rank inputs are therefore a pure
 * function of the request's own fold count — never of wave composition,
 * co-tenant interleaving or thread count — and a request's results are
 * bit-identical between a solo solve and any service schedule. With
 * rerank_interval = 0 the solo loop degenerates to one wave spanning the
 * whole schedule: exactly the pre-epoch engine, bit for bit.
 *
 * Wave packing is cost-weighted: a leaf charges 2^width units (its
 * statevector simulation cost), and a wave closes at wave_size slots OR
 * wave_size × (cheapest pending leaf) cost units, whichever first — so
 * one wide tenant consumes proportionally more of the wave instead of
 * stalling its tail with equal-slot accounting. Packing shapes only WHEN
 * a leaf runs, never what it produces.
 */
#ifndef FQ_ENGINE_WAVE_LOOP_H
#define FQ_ENGINE_WAVE_LOOP_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch_executor.h"
#include "engine/expander.h"
#include "engine/reducer.h"
#include "engine/scheduler.h"
#include "engine/solve_tree.h"

namespace fq::engine {

class TemplateCache;
struct SolveCheckpoint;

/**
 * One request's execution state inside the wave loop. Plain pointers into
 * storage the driver owns (and keeps pinned for the request's lifetime):
 * the loop advances `dispatched` and may rewrite the schedule's
 * un-dispatched tail via re-ranking; everything else is read-only here.
 */
struct WaveRequest
{
    const ising::IsingModel* model = nullptr;
    const SolveTree* tree = nullptr;
    LeafSchedule* schedule = nullptr;
    StreamingReducer* reducer = nullptr;
    const device::Device* dev = nullptr;
    const frozenqubits::DriverConfig* config = nullptr;
    int shots = 0;
    /** Driver-owned back-pointer (e.g. the SolveService's Request). */
    void* context = nullptr;
    /** Seed the plan was derived from (`Rng rng(seed)` before
     *  build_solve_tree) — the identity field that lets a resume or a
     *  remote worker replan the identical tree in another process. */
    std::uint64_t seed = 0;

    /** Cursor into schedule->executed: leaves before it are dispatched. */
    std::size_t dispatched = 0;
    /** Next re-rank boundary (schedule index); 0 = re-ranking off. Armed
     *  by arm_rerank(), advanced by post_barrier_rerank(). */
    std::size_t next_rerank = 0;
    /** Next checkpoint boundary (schedule index); 0 = checkpointing off.
     *  Armed by arm_checkpoint(), advanced by post_barrier_checkpoint().
     *  Checkpoint barriers only add fold-count synchronization points —
     *  they never change what any leaf produces, so a checkpointed run is
     *  bit-identical to an uncheckpointed one. */
    std::size_t next_checkpoint = 0;
    /** Waves this request rode (telemetry). */
    int epochs = 0;
    /** Snapshots handed to the checkpoint hook (telemetry). */
    int checkpoints = 0;
    /** Schedule cursor the request was restored at; -1 = fresh plan. */
    int resumed_from = -1;

    bool done() const { return dispatched >= schedule->executed.size(); }

    /**
     * Highest exclusive schedule index dispatch may reach before the next
     * pending boundary (re-rank or checkpoint) must run — the invariant
     * that keeps the re-ranked tail independent of wave composition and
     * checkpoints landing on exact fold counts.
     */
    std::size_t dispatch_limit() const
    {
        std::size_t limit = schedule->executed.size();
        if (next_rerank != 0)
            limit = std::min(limit, next_rerank);
        if (next_checkpoint != 0)
            limit = std::min(limit, next_checkpoint);
        return limit;
    }
};

/** Arm the request's first re-rank boundary from its config. */
inline void
arm_rerank(WaveRequest& request)
{
    const long long interval = request.config->rerank_interval;
    request.next_rerank =
        interval > 0 ? static_cast<std::size_t>(interval) : 0;
}

/**
 * Arm the request's next checkpoint boundary from its config: the first
 * multiple of checkpoint_interval strictly past the current dispatch
 * cursor, so it works both for a fresh request (boundary = interval) and
 * for one restored mid-schedule from a snapshot. Call only when a
 * checkpoint sink is actually wired — without one the boundaries would
 * fragment waves for nothing.
 */
inline void
arm_checkpoint(WaveRequest& request)
{
    const long long interval = request.config->checkpoint_interval;
    if (interval <= 0) {
        request.next_checkpoint = 0;
        return;
    }
    const std::size_t step = static_cast<std::size_t>(interval);
    request.next_checkpoint = (request.dispatched / step + 1) * step;
}

/**
 * One request's plan wired for the wave loop: the solve tree, its ranked
 * schedule, the streaming reducer over both and the WaveRequest view of
 * all three. The reducer and the view point into the struct's own
 * members, so it is pinned: plan_request() fills it in place, and it
 * stays where it is for the request's lifetime (on the solo engine's
 * stack, inside the SolveService's heap-pinned request).
 */
struct PlannedRequest
{
    PlannedRequest() = default;
    PlannedRequest(const PlannedRequest&) = delete;
    PlannedRequest& operator=(const PlannedRequest&) = delete;

    SolveTree tree;
    LeafSchedule schedule;
    std::optional<StreamingReducer> reducer;
    WaveRequest wave;
    /** Scheduled order as planned, before a restore or a re-rank rewrote
     *  it; recorded only when re-ranking is on (the plan side of a
     *  plan-vs-adaptive trace). */
    std::vector<int> planned_order;
};

/**
 * The ONE planning sequence of every request, solo or served: build the
 * solve tree from `Rng rng(seed)`, rank and budget-cut its leaves (leaf
 * scores run on @p scoring when non-null, serially otherwise — a score is
 * a pure function of its leaf, so both give the same schedule), trim a
 * fresh plan to config.deadline_cost_units (DeadlineError when not even
 * one leaf fits), build the streaming reducer and wire out.wave.
 *
 * With @p snapshot, @p seed must be the snapshot's: instead of the
 * deadline trim the snapshot's schedule, cursor and folded outcomes are
 * restored (restore_checkpoint — CheckpointError on any identity
 * mismatch). Re-rank and checkpoint boundaries are left for the caller to
 * arm. @p model, @p dev and @p config must outlive @p out.
 */
void plan_request(PlannedRequest& out, const ising::IsingModel& model,
                  const device::Device& dev,
                  const frozenqubits::DriverConfig& config, int shots,
                  std::uint64_t seed, const SolveCheckpoint* snapshot,
                  TemplateCache& cache, BatchExecutor* scoring);

/**
 * Slot cost of one leaf for cost-weighted wave packing: 2^width units
 * (statevector simulation cost), capped to keep the arithmetic safe.
 */
long long leaf_slot_cost(const SolveTree& tree, int leaf_id);

/** One wave slot: a leaf bound to its request. */
struct WaveSlot
{
    WaveRequest* request = nullptr;
    int leaf_id = 0;
};

/**
 * Assemble one wave across @p tenants: fair round-robin in the given order
 * starting at @p rotate (one leaf per tenant per pass), honoring each
 * request's DriverConfig::wave_share self-cap and its re-rank
 * dispatch_limit. The wave is bounded by @p wave_size slots AND by the
 * cost budget (@p wave_size × cheapest pending leaf); the first leaf is
 * always admitted, so an over-budget wide leaf rides alone rather than
 * wedging the queue. Advances each admitted request's `dispatched` cursor
 * and bumps its epoch count. Equal-width tenants reproduce the legacy
 * equal-slot packing exactly; the rotating start keeps budget-closed
 * waves from starving any tenant across waves.
 *
 * @p taken, when non-null, receives the per-tenant slot counts (indexed
 * like @p tenants) — the occupancy bookkeeping drivers would otherwise
 * have to reconstruct from the wave.
 */
std::vector<WaveSlot> assemble_wave(const std::vector<WaveRequest*>& tenants,
                                    int wave_size, std::size_t rotate,
                                    std::vector<int>* taken = nullptr);

/**
 * Driver customization points for execute_wave. All optional; the solo
 * engine runs with none (exceptions propagate), the SolveService uses them
 * for per-tenant failure isolation and diagnostics.
 */
struct WaveHooks
{
    /** Pre-simulation gate; return false to skip the slot (dead weight of
     *  an already-failed tenant). Runs on the worker thread. */
    std::function<bool(const WaveSlot&)> admit;
    /** After the slot's counts folded into its request's reducer. The
     *  bool and TemplateTier arguments are placeholders kept for source
     *  compatibility with perfbench: always false and Compile. */
    std::function<void(const WaveSlot&, bool fused_hit,
                       TemplateTier fuse_tier)>
        folded;
    /** A slot threw; when unset the exception propagates out of the wave
     *  (run_queue semantics: lowest failing index wins). */
    std::function<void(const WaveSlot&, std::exception_ptr)> failed;
};

/**
 * Execute one assembled wave to its barrier: simulate every slot through
 * simulate_scheduled_leaf on @p executor and fold into the owning request's
 * reducer. Returns how many slots actually simulated (admit-skipped slots
 * do not count). On return every admitted slot has folded — the barrier
 * the post-barrier scan relies on.
 */
int execute_wave(TemplateCache& cache, BatchExecutor& executor,
                 const std::vector<WaveSlot>& wave,
                 const WaveHooks& hooks = {});

/**
 * Per-request accounting a LeafExecutor backend can report (all zeros for
 * the purely local backend — drivers then attribute every folded leaf to
 * the local BatchExecutor).
 */
struct LeafExecutorStats
{
    long long leaves_remote = 0;       ///< leaves folded from remote replies
    long long leaves_redispatched = 0; ///< re-run locally after a worker died
    long long bytes_sent = 0;          ///< wire bytes out (frames included)
    long long bytes_received = 0;      ///< wire bytes in
    /** Per-worker leaf dispatch counts, keyed by worker address. */
    std::vector<std::pair<std::string, long long>> worker_dispatches;
};

/**
 * The per-request counters every driver reports — the shared part of
 * ExecutionEngine::Diagnostics and SolveService::TenantDiagnostics, which
 * both inherit it. fill_request_counters is the one place that computes
 * them, so a solo solve and the same request served report equal values.
 */
struct RequestCounters
{
    /**
     * Per-reduction-arm counters, indexed by node_kind_index() over the
     * kind-metadata table (engine/expander.h). A scheduled leaf's arm is
     * its parent node's kind (leaf_arm_kind): executed = leaves scheduled
     * to run under that arm, pruned = leaves dropped by domination pruning
     * or the circuit budget, budget units = 2^width slot cost the executed
     * leaves spend — the observability for mixed-vocabulary trees.
     */
    std::array<int, kNumNodeKinds> kind_leaves_executed{};
    std::array<int, kNumNodeKinds> kind_leaves_pruned{};
    std::array<long long, kNumNodeKinds> kind_budget_units{};

    // ------------------- adaptive re-ranking (0 when rerank_interval off) --
    int reranks = 0;         ///< re-ranks applied
    int rerank_pruned = 0;   ///< stale dominated leaves dropped mid-run
    int rerank_promoted = 0; ///< beyond-budget leaves re-admitted
    int rerank_demoted = 0;  ///< scheduled leaves cut by a re-rank

    // ------------------------------------------------------ durability --
    int checkpoints = 0; ///< snapshots handed to the checkpoint sink
    /** Schedule cursor the request resumed from; -1 = fresh. */
    int resumed_from = -1;
    /** Leaves demoted by the deadline trim (plan time + re-ranks). */
    int deadline_trimmed = 0;

    // ------------------------------------------ distributed execution --
    /** Leaves folded from remote worker replies (0 unless a
     *  net::WorkerPool is attached to the engine). */
    long long leaves_remote = 0;
    /** Scheduled leaves the local BatchExecutor simulated. */
    long long leaves_local = 0;
    /** Remote leaves re-run locally after their worker died. */
    long long leaves_redispatched = 0;
    long long remote_bytes_sent = 0;     ///< wire bytes out
    long long remote_bytes_received = 0; ///< wire bytes in
    /** Per-worker leaf dispatch counts, keyed by worker address. */
    std::vector<std::pair<std::string, long long>> worker_dispatches;
};

/** Overwrite @p out from @p request's tree and (final) schedule, its
 *  checkpoint/resume telemetry and the executor's @p remote accounting. */
void fill_request_counters(const WaveRequest& request,
                           const LeafExecutorStats& remote,
                           RequestCounters& out);

/**
 * The executor seam every wave dispatches through. ONE implementation
 * requirement: on return from execute_wave every admitted slot has folded
 * into its request's reducer (the wave barrier), with hooks invoked
 * exactly as the local path does — WHERE a slot simulated (this process,
 * a remote worker, a re-dispatch after a worker death) must be
 * observationally irrelevant, because simulate_scheduled_leaf is a pure
 * function of (cache contents, tree, leaf, dev, config, shots).
 *
 * Backends: LocalLeafExecutor (the default, wrapping the engine's own
 * BatchExecutor) and net::WorkerPool (remote workers with cost-weighted
 * assignment and hedged re-dispatch).
 */
class LeafExecutor
{
  public:
    virtual ~LeafExecutor() = default;

    /** Run one assembled wave to its barrier; returns slots simulated
     *  (admit-skipped slots do not count), like the free execute_wave. */
    virtual int execute_wave(const std::vector<WaveSlot>& wave,
                             const WaveHooks& hooks = {}) = 0;

    /** Accounting accumulated for @p request since it first appeared in a
     *  wave. Call after the request's last wave, before finish_request. */
    virtual LeafExecutorStats request_stats(const WaveRequest* request)
    {
        (void)request;
        return {};
    }

    /** The request is complete (or failed): release any per-request state
     *  (remote sessions, stats). Drivers MUST call this for every request
     *  they dispatched, since WaveRequest storage is reused. */
    virtual void finish_request(const WaveRequest* request)
    {
        (void)request;
    }
};

/** The default backend: the free execute_wave over the engine's own
 *  template cache and thread pool. */
class LocalLeafExecutor final : public LeafExecutor
{
  public:
    LocalLeafExecutor(TemplateCache& cache, BatchExecutor& executor)
        : cache_(cache), executor_(executor)
    {
    }

    int execute_wave(const std::vector<WaveSlot>& wave,
                     const WaveHooks& hooks = {}) override
    {
        return engine::execute_wave(cache_, executor_, wave, hooks);
    }

  private:
    TemplateCache& cache_;
    BatchExecutor& executor_;
};

/**
 * Post-barrier scan step for one request: when its fold count sits on the
 * pending re-rank boundary, snapshot the incumbent and re-rank the tail —
 * then re-apply the deadline trim (DriverConfig::deadline_cost_units)
 * against the units the folded prefix consumed, since re-rank promotions
 * may have overfilled the remaining deadline. Both are pure functions of
 * the request's own fold count, so trim points are independent of
 * checkpoint barriers and wave composition. Call after a wave barrier
 * (never while leaves are in flight) and only for requests whose
 * dispatched leaves all folded. Returns what the re-rank did
 * (applied == false when none was due).
 */
RerankOutcome post_barrier_rerank(WaveRequest& request);

/**
 * Durable-solve snapshot hook, fired at armed checkpoint boundaries on
 * the driving (assembler) thread. Return true to continue the solve;
 * return false to SUSPEND it: the un-dispatched tail is demoted
 * (suspend_request), the request completes early with its anytime
 * incumbent flagged degraded, and the snapshot the hook just captured
 * resumes the full solve elsewhere — the migration primitive.
 */
using CheckpointHook = std::function<bool(WaveRequest&)>;

/**
 * Suspend @p request: demote its entire un-dispatched tail to
 * beyond_budget and mark the schedule suspended, so the wave loop
 * completes it as a degraded anytime result. The folded prefix is
 * untouched — everything already paid for still counts.
 */
void suspend_request(WaveRequest& request);

/**
 * Post-barrier scan step for one request's checkpoint boundary: when its
 * fold count sits exactly on next_checkpoint (and the request is not
 * done), fire @p hook (counted in request.checkpoints) and advance the
 * boundary; a false return suspends the request. Returns false exactly
 * when the request was suspended.
 * A null hook just advances the boundary (keeps the loop from stalling on
 * an armed boundary nobody consumes).
 */
bool post_barrier_checkpoint(WaveRequest& request,
                             const CheckpointHook& hook);

/**
 * Solo driver: run @p request to completion through wave-synchronous
 * epochs. Each epoch dispatches everything up to the request's
 * dispatch_limit in one wave — with re-ranking and checkpointing off that
 * is the entire schedule in a single wave, bit-identical to the pre-epoch
 * flat batch. Exceptions propagate (no hooks). Re-rank boundaries are
 * armed only for a FRESH request (dispatched == 0); a request restored
 * from a checkpoint keeps its snapshot boundary. @p checkpoint, when set,
 * arms checkpoint boundaries and fires at each one. The SolveService
 * drives the same assemble/execute/post-barrier primitives from its
 * assembler thread instead, multiplexing many requests per wave. Waves go
 * through @p executor, so a WorkerPool (or any other backend) slots in
 * without touching the epoch logic.
 */
void run_wave_loop(LeafExecutor& executor, WaveRequest& request,
                   const CheckpointHook& checkpoint = {});

} // namespace fq::engine

#endif // FQ_ENGINE_WAVE_LOOP_H
