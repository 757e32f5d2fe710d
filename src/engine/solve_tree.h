/**
 * @file
 * SolveTree: the engine's hierarchical solve plan.
 *
 * The flat pipeline (one freeze, one batch of 2^{m-1} siblings) becomes one
 * node kind in a recursive tree: each node covers one cell of the original
 * state space and is either
 *
 *   Freeze     — expanded by the Section 3 transform; holds the node-local
 *                ExecutionPlan (hotspots, sub-problems, mirror tasks,
 *                shared compiled template) exactly as the flat engine did,
 *                but its children may be expanded further;
 *   Partition  — bisected via partition::extract_fragment (the hybrid
 *                D&C + freeze arm): cut couplings are dropped during the
 *                quantum phase and repaired classically at decode;
 *   Sparsify   — Red-QAOA edge pruning: the optimizer loop tunes angles
 *                on a deterministic spanning-structure-preserving proxy
 *                of the cell, while sampling and every energy
 *                evaluation run on the full model (identity lift);
 *   Leaf       — solved through the existing fused-kernel simulation path.
 *
 * The vocabulary is closed: build_solve_tree tries Partition, then
 * Freeze on every node with an expansion level left, and Sparsify, then
 * a plain leaf on every terminal node. Each kind has one row in the
 * kind-metadata table below and one score_penalty case; a new reduction
 * adds a NodeKind, a row, a builder case and a penalty case.
 *
 * Every executable leaf carries the fully composed lift back to the
 * original variable space (surviving-spin map + accumulated frozen values
 * across all levels) and a private RNG stream seed derived from the plan,
 * never from execution order — the same determinism story as the flat
 * engine, extended to arbitrary depth. A depth-1 tree with no partitioning
 * reproduces the flat plan bit-for-bit (same hotspots, same task seeds).
 */
#ifndef FQ_ENGINE_SOLVE_TREE_H
#define FQ_ENGINE_SOLVE_TREE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/plan.h"
#include "sim/backend.h"

namespace fq::engine {

enum class NodeKind { Leaf, Freeze, Partition, Sparsify };

// ------------------------------------------------ kind metadata table --

/** One row per node kind: the names, glyphs and tags that fqtool, the
 *  per-kind diagnostics and checkpoint frames key on. */
struct NodeKindInfo
{
    NodeKind kind = NodeKind::Leaf;
    /** Printable name (fqtool plan tree rendering). */
    const char* name = "";
    /** Short plan-column glyph; column widths derive from these, so a
     *  new kind can never shear the budget cut line. */
    const char* glyph = "";
    /** Stable key for per-kind diagnostics counters and traces. */
    const char* diagnostics_key = "";
    /** Stable tag identifying this kind in checkpoint v2 frames (never
     *  reuse a retired value; kNoKindTag is reserved for v1 frames). */
    std::uint8_t frame_tag = 0;
};

/** Tag of checkpoint frames that predate per-kind tagging (format v1). */
inline constexpr std::uint8_t kNoKindTag = 0xFF;

/** Number of node kinds (fixed-size diagnostics arrays). */
inline constexpr std::size_t kNumNodeKinds = 4;

/** Full metadata table, in NodeKind order. */
const std::vector<NodeKindInfo>& node_kind_table();

/** Metadata row for @p kind. */
const NodeKindInfo& node_kind_info(NodeKind kind);

/** Row matching a checkpoint frame tag; null for unknown tags. */
const NodeKindInfo* node_kind_info_by_tag(std::uint8_t frame_tag);

/** Dense index of @p kind into per-kind counter arrays
 *  (same order as node_kind_table()). */
std::size_t node_kind_index(NodeKind kind);

/** Printable node-kind name (node_kind_info(kind).name). */
const char* node_kind_name(NodeKind kind);

struct SolveNode
{
    int index = 0;
    int parent = -1; ///< -1 for the root
    int depth = 0;   ///< root = 0
    NodeKind kind = NodeKind::Leaf;

    /**
     * The cell of the original state space this node covers: model over the
     * surviving spins, original_of composed across every level above, and
     * the accumulated frozen assignment (original indices).
     */
    frozenqubits::SubProblem sub;
    /** True when a Partition ancestor dropped cut couplings — the leaf
     *  decode must repair against the presolve incumbent. */
    bool partition_lineage = false;

    /** Base seed of this node's stream (plan-derived, order-independent). */
    std::uint64_t stream_seed = 0;

    /** Freeze nodes: the node-local flat plan (ExecutionPlan as one node
     *  kind of the recursive structure). Hotspot/sub-problem indices are
     *  node-local; translate through sub.original_of for reporting. */
    ExecutionPlan plan;

    /** Child node indices. Freeze: one per planned task (canonical
     *  children), plus mirror leaves appended after; Partition: the two
     *  fragments. */
    std::vector<int> children;

    /** Partition nodes: couplings lost to the cut. Sparsify nodes:
     *  couplings pruned from the optimizer proxy (the executed circuit
     *  keeps them — ranking-only information). */
    int cut_edges = 0;
    double cut_weight = 0.0;

    // ------------------------------------------------------- leaf fields --
    /** Executable leaves: index into SolveTree::leaves. -1 otherwise. */
    int leaf_id = -1;
    /** Mirror leaves: leaf id whose bit-flipped output covers this node
     *  (Section 3.7.2). -1 for executable leaves and inner nodes. */
    int mirror_of = -1;
    /** Sub-problem index inside the parent Freeze plan (canonical and
     *  mirror children alike; -1 under a Partition parent). */
    int local_solve = -1;
};

/** One executable unit of the tree. */
struct SolveLeaf
{
    int node = -1;    ///< index into SolveTree::nodes
    int leaf_id = 0;  ///< position in SolveTree::leaves (plan order)
    /** Node-local sub-problem index inside the parent Freeze plan
     *  (-1 under a Partition parent). In a flat tree it equals leaf_id:
     *  canonical sub-problems are planned in ascending order. */
    int local_solve = -1;
    std::uint64_t rng_seed = 0;
    /** Mirror Leaf nodes recovered from this leaf by bit flipping. */
    std::vector<int> mirror_nodes;
    /** Partition lineage: decode must fill the other fragments from the
     *  presolve assignment and greedy-repair on the original model. */
    bool needs_repair = false;
    /** The leaf fits the statevector (width <= sim::kMaxSimQubits), so it
     *  runs the fused QAOA path; a wider leaf fails at execution. */
    bool fuse = false;
    /** Kernel backend this leaf executes on — fixed at plan time as a
     *  pure function of the leaf width, so thread count and
     *  wave packing can never change a leaf's kernels (the determinism
     *  contract extends to backend choice). */
    sim::BackendKind backend = sim::BackendKind::ScalarFused;
    /** The leaf model passes sim::parity_sums_exact, so its tables equal
     *  the per-term sums bit for bit; fixed at plan time for
     *  plan_fingerprint. */
    bool exact_tables = false;
    /** Circuit build options this leaf's template/fused program were
     *  compiled under — simulation MUST reuse them. */
    qaoa::BuildOptions build;
    /** Shared compiled template of the parent freeze level (null only when
     *  the leaf is wider than the device, which fails at execution). */
    std::shared_ptr<const CompiledTemplate> tpl;
    /** Whether @p tpl's structure matches this leaf (checked at plan time). */
    bool tpl_compatible = false;
    /** Placeholder kept for source compatibility with perfbench: always
     *  null. A leaf's fused program is built from its model alone. */
    std::shared_ptr<const ParametricTemplate> family;
    /**
     * Sparsify-lineage leaves: the reduced model the OPTIMIZER LOOP
     * tunes (gamma, beta) on (fixed at plan time, pure function of the
     * leaf model and its stream seed). Null = tune on the full model.
     * The executed circuit, sampling RNG and every decode/energy
     * evaluation always use the full model, so the reduction can only
     * move the angles — never the lift, the histogram semantics or the
     * fold.
     */
    std::shared_ptr<const ising::IsingModel> proxy;
};

struct SolveTree
{
    std::vector<SolveNode> nodes;  ///< nodes[0] is the root
    std::vector<SolveLeaf> leaves; ///< executable leaves, DFS plan order
    int max_depth = 1;             ///< configured expansion depth

    /**
     * True for the paper's single-freeze shape: a Freeze root whose
     * children are all terminal. The scheduler skips the classical
     * presolve for an unbudgeted flat tree.
     */
    bool flat() const;

    /** Total leaf-node count including mirrors (2^m for a flat tree). */
    int num_leaf_nodes() const;

    int num_executable_leaves() const
    {
        return static_cast<int>(leaves.size());
    }

    /** Register width of one executable leaf (its node's surviving spins)
     *  — the exponent of its 2^width statevector cost, which the wave
     *  loop's cost-weighted packing charges per slot. */
    int leaf_width(int leaf_id) const;
};

/**
 * Build the tree. @p rng is consumed exactly as the flat make_plan did for
 * the root expansion (hotspot policy draws + one stream-seed draw); deeper
 * nodes derive private streams from their parent task's seed, so the tree
 * is reproducible from the config seed alone. Each Freeze node resolves its
 * own shared template through @p cache (one transpiler run per tree level
 * and sibling structure).
 *
 * Expansion policy, in order:
 *   - nodes wider than config.partition_width (> 0 enables) are bisected;
 *   - otherwise nodes below max_depth freeze config.num_freeze hotspots
 *     (clamped to their width); mirror pruning applies only where
 *     children are terminal;
 *   - terminal nodes are wrapped by Sparsify when config.sparsify_keep
 *     is in (0, 1) and the cell has prunable edges, else they are
 *     leaves. A keep of 1 or more is off; a non-finite keep throws.
 */
SolveTree build_solve_tree(const ising::IsingModel& model,
                           const device::Device& dev,
                           const frozenqubits::DriverConfig& config,
                           TemplateCache& cache, Rng& rng);

/**
 * Ranking pessimism a node of this kind charges every descendant leaf:
 * the |weight| share of information the reduction discarded that a
 * leaf-local SA presolve can never see. Freeze and Leaf 0 (frozen values
 * fold into the children's linear terms exactly), Partition half the cut
 * weight (the decode repairs roughly half the cut signs), Sparsify a
 * quarter of the pruned weight (sampling keeps the full model; only the
 * proxy-tuned angles can be off). Finite and >= 0.
 */
double score_penalty(const SolveNode& node);

/** Kind of the reduction arm leaf @p leaf_id executes under: the kind
 *  of its node's parent (every leaf node hangs off the reduction that
 *  produced it). Diagnostics and checkpoint v2 frames key on this. */
NodeKind leaf_arm_kind(const SolveTree& tree, int leaf_id);

/**
 * Lift a basis state measured on @p leaf's register into the original
 * variable space: start from @p base (presolve assignment or all +1),
 * overwrite the leaf's surviving spins and every frozen value on its root
 * path. Freeze-only lineages cover all spins; partition lineages keep the
 * base for the other fragments.
 */
ising::SpinVector lift_leaf_state(const SolveTree& tree,
                                  const SolveLeaf& leaf,
                                  std::uint64_t state,
                                  const ising::SpinVector& base);

} // namespace fq::engine

#endif // FQ_ENGINE_SOLVE_TREE_H
