/**
 * @file
 * End-to-end FrozenQubits driver (Figure 4): the orchestration layer that
 * the benchmark harnesses and examples call.
 *
 * For a problem Hamiltonian and a target device it runs both arms:
 *   baseline — one QAOA circuit, noise-adaptively compiled, angles tuned on
 *     the ideal p=1 landscape, executed under the device noise model;
 *   FrozenQubits — select m hotspots, freeze into 2^m sub-problems, prune
 *     mirrors (Section 3.7.2), compile ONE template and edit it per
 *     sub-problem (Section 3.7.1), tune and execute each, decode the best.
 * The report carries per-circuit structure (CX/depth/duration/EPS) and
 * fidelity (EV_ideal, EV_noisy, ARG) for every figure in the evaluation.
 */
#ifndef FQ_FROZENQUBITS_DRIVER_H
#define FQ_FROZENQUBITS_DRIVER_H

#include <cstdint>
#include <vector>

#include "device/catalog.h"
#include "frozenqubits/freeze.h"
#include "frozenqubits/hotspot.h"
#include "ising/ising_model.h"
#include "qaoa/analytic_p1.h"
#include "sim/counts.h"
#include "transpiler/pipeline.h"

namespace fq::frozenqubits {

/** Range of DriverConfig::p1_grid_resolution. A grid of g points per axis
 *  costs g^2 landscape evaluations per leaf. */
constexpr int kMinP1GridResolution = 2;
constexpr int kMaxP1GridResolution = 1024;

/**
 * Driver configuration. Leaf execution has no knobs here: every
 * executable leaf simulates through the fused QAOA path (weight tables
 * built straight from the leaf model) on the kernel backend its width picks
 * (sim::select_backend). The gate-by-gate simulator (sim::run_circuit)
 * is a test oracle only.
 */
struct DriverConfig
{
    int num_freeze = 1;                      ///< m
    HotspotPolicy policy = HotspotPolicy::MaxDegree;
    bool symmetry_pruning = true;            ///< Section 3.7.2
    transpiler::CompileOptions compile{};
    /** Angle-search coarse grid, points per axis, in
     *  [kMinP1GridResolution, kMaxP1GridResolution]; a worker refuses a
     *  session outside that range. */
    int p1_grid_resolution = 32;
    std::uint64_t seed = 7;
    /**
     * Worker threads for the execution engine: <= 0 = auto (hardware
     * concurrency), 1 = serial. Any value produces bit-identical results
     * (the engine's determinism guarantee).
     */
    int threads = 0;

    // ------------------------------------------------- SolveTree controls --
    /**
     * Recursive-freezing depth of the solve tree: 1 = the paper's flat
     * pipeline (freeze once, execute the 2^{m-1} siblings), d > 1 re-freezes
     * each sub-problem up to d levels deep ("Adaptive Qubit Freezing"
     * composition). Mirror pruning only applies at the terminal level;
     * recursion trades it for deeper CX savings.
     */
    int max_depth = 1;
    /**
     * Quantum budget: execute at most this many leaf circuits, best-first
     * by the scheduler's classical score (Skipper-style partial execution).
     * 0 = unlimited (every planned leaf runs). Deterministic: the ranked
     * cut is fixed at plan time, so any thread count executes exactly the
     * same leaves.
     */
    long long max_circuits = 0;
    /**
     * Hybrid D&C + freeze: when > 0, tree nodes wider than this many spins
     * are bisected (cut couplings dropped, fragments repaired classically
     * at decode) instead of frozen. Needs max_depth >= 2 for the fragments
     * to then be frozen or solved. 0 disables partitioning.
     */
    int partition_width = 0;
    /**
     * Plan-time sibling pruning: skip leaves whose optimistic cost bound
     * (frozen-offset minus total coefficient magnitude) cannot beat the
     * classical SA presolve incumbent. Off by default — it may skip every
     * quantum circuit on instances SA already solves optimally.
     */
    bool prune_dominated = false;
    /**
     * Adaptive budget re-ranking: every `rerank_interval` folded leaves the
     * wave loop re-scores the request's not-yet-dispatched leaves against
     * the reducer's incumbent (epoch snapshot over exactly that many folds),
     * prunes stale dominated leaves and re-cuts the remaining circuit
     * budget. 0 = off: the plan-time ranking is final and execution is
     * bit-identical to the pre-epoch engine at any thread count.
     *
     * Determinism contract: a re-rank is a pure function of THIS request's
     * fold count — never of wave composition, tenant interleaving or thread
     * count — so results are identical between a solo ExecutionEngine::solve
     * and a multi-tenant SolveService at any parallelism.
     */
    long long rerank_interval = 0;

    // ------------------------------------------------ SolveService controls --
    /**
     * Self-cap on how many of THIS request's leaves may ride in one shared
     * executor wave when the solve goes through a multi-tenant
     * engine::SolveService: the wave assembler stops drawing from this
     * request once the cap is hit, leaving the remaining slots of every
     * wave to co-tenants. How a bulk submitter keeps itself polite — it
     * cannot restrict anyone else's share. 0 = no per-wave cap (fair
     * round-robin only). Never affects results — only which wave a leaf
     * rides in.
     */
    int wave_share = 0;

    // ------------------------------------------------- durability controls --
    /**
     * Deadline budget in wave-slot cost units (a leaf charges 2^width —
     * engine/wave_loop.h). 0 = no deadline. At plan time the schedule is
     * greedily trimmed to the leaves that fit (typed engine::DeadlineError
     * when not even one does), and the trim re-applies after each adaptive
     * re-rank against the units already consumed. A trimmed solve
     * completes with its anytime incumbent and is flagged degraded
     * (SampledSolve::degraded) instead of erroring. In an
     * engine::SolveService, submit() additionally rejects with
     * DeadlineError when the serial backlog ahead of the request plus its
     * own schedule projects past the deadline. The trim itself is a pure
     * function of the request's own schedule and fold count — bit-identical
     * at any thread count, solo or service.
     */
    long long deadline_cost_units = 0;
    /**
     * Durable solves: checkpoint boundary granularity in folded leaves.
     * When > 0 AND the caller hands a checkpoint sink (the durable
     * ExecutionEngine::solve overload, SolveService::submit's
     * on_checkpoint), the wave loop inserts an epoch barrier every
     * this-many folded leaves and passes a SolveCheckpoint snapshot to the
     * sink. Barrier placement never changes results (folds are
     * order-independent and re-ranks fire at exact fold counts), so a
     * checkpointed run stays bit-identical to an uncheckpointed one.
     * 0 = off.
     */
    long long checkpoint_interval = 0;
    /**
     * Red-QAOA sparsification (the Sparsify node kind): when in (0, 1),
     * every terminal tree node with prunable couplings tunes its QAOA
     * angles on a proxy model keeping roughly this fraction of its
     * quadratic terms (spanning structure always preserved), while the
     * executed circuit, sampling and every energy evaluation stay on
     * the full model. The proxy is a pure function of (leaf model, leaf
     * stream seed) fixed at plan time, so results remain bit-identical
     * across thread counts and solo-vs-service. 0 = off (the default;
     * every pre-sparsify config plans byte-identically to before).
     * >= 1 keeps everything and is equivalent to off; a non-finite
     * value is rejected when the tree is built.
     */
    double sparsify_keep = 0.0;

    // ---------------------------------------------- distributed controls --
    /**
     * Distributed execution opt-out (serve-batch trace key `workers=0`):
     * when false, every leaf of this request runs on the local
     * BatchExecutor even when a net::WorkerPool is attached to the
     * engine. Never affects results — remote and local leaf execution
     * are bit-identical by the determinism contract — so, like
     * `threads`, it is excluded from the config fingerprint and is NOT
     * transmitted to workers.
     */
    bool allow_remote = true;
};

/** Structure + fidelity record for one executed circuit. */
struct CircuitStats
{
    int num_qubits = 0;
    int pre_routing_cx = 0;     ///< before SWAP insertion
    int post_routing_cx = 0;    ///< after compilation (SWAPs as 3 CX)
    int swaps = 0;
    int depth = 0;
    double duration_ns = 0.0;
    double compile_time_ms = 0.0;
    double eps = 0.0;           ///< expected probability of success
    qaoa::P1Angles angles{};    ///< tuned parameters
    double ev_ideal = 0.0;      ///< noiseless EV at tuned angles (with offset)
    double ev_noisy = 0.0;      ///< device-noise EV at tuned angles
};

/** Full baseline-vs-FrozenQubits comparison for one instance. */
struct Report
{
    CircuitStats baseline;
    std::vector<int> hotspots;          ///< frozen original spin indices
    int num_subproblems = 0;            ///< 2^m
    int num_executed = 0;               ///< 2^{m-1} with pruning
    std::vector<CircuitStats> executed; ///< one per executed sub-circuit
    double ev_ideal_fq = 0.0;           ///< best sub-problem ideal EV
    double ev_noisy_fq = 0.0;           ///< best sub-problem noisy EV
    double arg_baseline = 0.0;          ///< Equation (4)
    double arg_fq = 0.0;

    /** ARG improvement factor (floored denominator). */
    double improvement(double floor = 1e-3) const;
};

/**
 * Evaluate one circuit-arm on @p dev (exposed for ablations).
 *
 * This and the functions below are thin facades over
 * engine::ExecutionEngine, constructing a fresh engine (thread pool +
 * template cache) per call. Hold an ExecutionEngine directly to amortize
 * those across calls.
 */
CircuitStats evaluate_instance(const ising::IsingModel& model,
                               const device::Device& dev,
                               const DriverConfig& config);

/** Run the full baseline-vs-FQ comparison. */
Report run_pipeline(const ising::IsingModel& model,
                    const device::Device& dev, const DriverConfig& config);

/**
 * Sampled end-to-end solve (examples / integration tests; statevector
 * width limits apply): executes every planned sub-circuit with the sampled
 * global-depolarizing + readout noise channel, covers mirror sub-spaces by
 * bit flipping, decodes the best solution.
 */
/** One point of the anytime-quality trajectory of a budgeted solve. */
struct AnytimePoint
{
    /** Leaf circuits folded so far (0 = classical presolve only). */
    int circuits = 0;
    /** Incumbent best decoded cost after folding them. */
    double incumbent_cost = 0.0;
    /** Leaf that produced the incumbent (-1 = classical presolve). */
    int leaf = -1;
};

struct SampledSolve
{
    /**
     * The overall incumbent — the answer the anytime trace converges to.
     * Whenever a classical presolve was computed (budgeted, recursive or
     * partitioned solves) it participates: if it beats every quantum
     * decode, best_* report it and from_subproblem is -1. Flat unbudgeted
     * solves have no presolve, so this is the best quantum decode.
     */
    ising::SpinVector best_assignment;
    double best_cost = 0.0;
    /**
     * Leaf id of the winning decode (engine::SolveTree::leaves; for a
     * flat solve this is also its node-local sub-problem index). -1 when
     * the classical presolve is the incumbent.
     */
    int from_subproblem = -1;

    /** Best QUANTUM decode regardless of the presolve (equals best_cost
     *  when a leaf wins; the mode-comparison metric in the bench suite). */
    double best_quantum_cost = 0.0;
    /** Leaf id that produced best_quantum_cost. */
    int best_quantum_leaf = -1;
    /**
     * One sampled histogram per executed leaf, in schedule (rank) order.
     * Mirror sub-spaces are never sampled: their distribution is the
     * bit-flipped histogram of the leaf that covers them (Section 3.7.2).
     */
    std::vector<sim::Counts> distributions;

    // --------------------------------------- budgeted-execution telemetry --
    int leaves_total = 0;    ///< executable leaves planned (mirrors excluded)
    int leaves_executed = 0; ///< leaves actually run (== budget when capped)
    /** Incumbent cost after each executed circuit, in schedule order;
     *  starts with the classical presolve point when one was computed. */
    std::vector<AnytimePoint> anytime;

    /**
     * True when the solve completed EARLY under deadline pressure
     * (deadline_cost_units trimmed scheduled leaves) or a checkpoint-sink
     * suspension: the answer is the valid anytime incumbent over the
     * leaves that did fold, not the full planned schedule.
     */
    bool degraded = false;
    /** Deadline-trim demotion events that shaped this result. */
    int deadline_trimmed = 0;
};

/**
 * Sampled end-to-end solve: ExecutionEngine::solve on a fresh engine. The
 * plan derives from `Rng(seed)`, so equal seeds give bit-identical
 * results at any thread count.
 */
SampledSolve solve_with_sampling(const ising::IsingModel& model,
                                 const device::Device& dev,
                                 const DriverConfig& config, int shots,
                                 std::uint64_t seed);

} // namespace fq::frozenqubits

#endif // FQ_FROZENQUBITS_DRIVER_H
