/**
 * @file
 * The open reduction vocabulary: node expansion as a registry of
 * pluggable NodeExpander strategies instead of a closed switch over
 * NodeKind. Each reduction (Freeze, Partition, Sparsify) is one
 * self-contained unit declaring
 *
 *   - how to expand a node (NodeExpander::expand through the TreeBuild
 *     driver facade),
 *   - how its children are scored for the SA-bound scheduler
 *     (score_penalty: the ranking pessimism charged for information the
 *     reduction discarded),
 *   - how its lift composes back into parent spin assignments
 *     (lift_requires_repair: whether the decode must greedy-repair on
 *     the original model because the reduction lost couplings the lift
 *     cannot restore),
 *   - how its leaves fold into the StreamingReducer (the repair flag
 *     plus the per-kind diagnostics key),
 *
 * and one row in the kind-metadata table (name, plan-column glyph,
 * diagnostics key, checkpoint frame tag) — so adding a reduction is one
 * registration, not surgery across five files.
 *
 * Determinism obligations every expander must meet (the engine-wide
 * contract): all order-dependent choices are fixed at plan time from
 * plan-derived seeds (node stream seeds, never execution order); an
 * expander must be a pure function of (node model, config, seed) so
 * trees are bit-identical across threads=1/N and solo-vs-service; and a
 * disabled expander must leave every byte of the tree unchanged.
 */
#ifndef FQ_ENGINE_EXPANDER_H
#define FQ_ENGINE_EXPANDER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/solve_tree.h"

namespace fq::engine {

// ------------------------------------------------ kind metadata table --

/** The ONE table describing every node kind: replaces the
 *  NodeKind/node_kind_name switches formerly scattered across
 *  solve_tree.cc, scheduler.cc and fqtool.cc. */
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

/** Number of registered node kinds (fixed-size diagnostics arrays). */
inline constexpr std::size_t kNumNodeKinds = 4;

/** Full metadata table in registration order. */
const std::vector<NodeKindInfo>& node_kind_table();

/** Metadata row for @p kind (FQ_REQUIREs a registered kind). */
const NodeKindInfo& node_kind_info(NodeKind kind);

/** Row matching a checkpoint frame tag; null for unknown tags. */
const NodeKindInfo* node_kind_info_by_tag(std::uint8_t frame_tag);

/** Dense index of @p kind into per-kind counter arrays
 *  (same order as node_kind_table()). */
std::size_t node_kind_index(NodeKind kind);

// ------------------------------------------------------ driver facade --

/** Everything a terminal node needs to become an executable leaf: the
 *  parent reduction's template resolution plus the leaf's plan-derived
 *  RNG stream. Passed through the driver so terminal-wrapper expanders
 *  (Sparsify) can interpose without re-resolving templates. */
struct LeafContext
{
    /** Sub-problem index inside the parent Freeze plan (-1 otherwise). */
    int local_solve = -1;
    std::uint64_t rng_seed = 0;
    std::shared_ptr<const CompiledTemplate> tpl;
    bool tpl_compatible = false;
    qaoa::BuildOptions build;
};

class NodeExpander;

/**
 * The generic tree-building driver: owns the growing SolveTree and the
 * mechanics every reduction shares (child insertion with lineage
 * bookkeeping, leaf registration with backend and fuse resolution,
 * private template resolution, recursive dispatch through the
 * registry). build_solve_tree is a thin wrapper over run().
 */
class TreeBuild
{
  public:
    TreeBuild(const device::Device& dev,
              const frozenqubits::DriverConfig& config,
              TemplateCache& cache);

    /** Build the whole tree (the former TreeBuilder::build). */
    SolveTree run(const ising::IsingModel& model, Rng& rng);

    // ---- facade used by expanders ----
    const frozenqubits::DriverConfig& config() const { return config_; }
    const device::Device& device() const { return dev_; }
    TemplateCache& cache() { return cache_; }
    const SolveNode& node(int ni) const;
    SolveNode& mutable_node(int ni);
    SolveLeaf& leaf(int leaf_id);
    /** Node register width (surviving spins of its cell). */
    int width(int ni) const;

    /** Compose a node-local sub-problem with its parent's bookkeeping:
     *  surviving spins map through the parent's original_of, locally
     *  frozen spins translate to true original indices. */
    static frozenqubits::SubProblem
    compose_subproblem(const frozenqubits::SubProblem& parent,
                       const frozenqubits::SubProblem& local);

    /** Append a child node. @p repair_lineage is the expanding
     *  reduction's lift_requires_repair() — OR'd into the parent's
     *  accumulated flag so descendants know their decode obligations. */
    int add_child(int parent, frozenqubits::SubProblem sub,
                  std::uint64_t stream_seed, bool repair_lineage);

    /** Register @p ni as an executable leaf carrying @p ctx; @p proxy,
     *  when set, is the reduced optimizer-loop model (Sparsify). Returns
     *  the new leaf id. */
    int make_leaf(int ni, const LeafContext& ctx,
                  std::shared_ptr<const ising::IsingModel> proxy = nullptr);

    /** Private template resolution for nodes without freeze siblings to
     *  share with (partition fragments): cache-served per structure. */
    LeafContext resolve_private_templates(int ni);

    /** True when a recursive reduction claims @p ni. */
    bool recursively_expandable(int ni) const;

    /** Expand @p ni through the first applicable recursive expander
     *  (FQ_REQUIREs one exists). @p root_rng is non-null only for the
     *  root, whose draws must match the flat engine's. */
    void expand(int ni, Rng* root_rng);

    /** Terminal dispatch: give terminal-wrapper expanders (Sparsify)
     *  first claim on @p ni, else register it as a plain leaf. Returns
     *  the executable leaf id either way. */
    int finalize(int ni, const LeafContext& ctx);

  private:
    const device::Device& dev_;
    const frozenqubits::DriverConfig& config_;
    TemplateCache& cache_;
    SolveTree tree_;
};

// -------------------------------------------------- expander interface --

/**
 * One reduction strategy. Implementations must be stateless (the
 * registry shares one instance across threads) and deterministic: see
 * the file comment for the contract obligations.
 */
class NodeExpander
{
  public:
    virtual ~NodeExpander() = default;

    /** This reduction's metadata row (also its registry identity). */
    virtual const NodeKindInfo& info() const = 0;

    /** Does this reduction claim @p ni? Consulted in registry order
     *  (Partition, Freeze, Sparsify), so earlier reductions win. */
    virtual bool applicable(const TreeBuild& build, int ni) const = 0;

    /** Recursive reductions consume an expansion level and produce
     *  inner children; terminal wrappers attach to would-be leaves
     *  without consuming depth. */
    virtual bool recursive() const = 0;

    /**
     * Expand @p ni through the driver facade. Recursive reductions add
     * children (descending via TreeBuild::expand / finalize) and return
     * -1; terminal wrappers wrap the node, register its single
     * executable leaf from @p ctx (non-null exactly for them) and
     * return its leaf id.
     */
    virtual int expand(TreeBuild& build, int ni, Rng* root_rng,
                      const LeafContext* ctx) const = 0;

    /**
     * Scheduler hook: ranking pessimism charged to every descendant
     * leaf of a node of this kind — the |weight| share of information
     * the reduction discarded that a leaf-local SA presolve can never
     * see. Pure function of the node; must be finite and >= 0.
     */
    virtual double score_penalty(const SolveNode& node) const = 0;

    /**
     * Lift/fold hook: true when leaves under this reduction decode
     * against a lift that lost couplings (StreamingReducer must fill
     * from the presolve base and greedy-repair on the original model).
     */
    virtual bool lift_requires_repair() const = 0;
};

/** The process-wide expander registry (immutable after construction,
 *  safe to share across threads). */
class ExpanderRegistry
{
  public:
    static const ExpanderRegistry& instance();

    /** Expander for @p kind; null for NodeKind::Leaf (leaves are made,
     *  not expanded). */
    const NodeExpander* find(NodeKind kind) const;

    /** As find(), but FQ_REQUIREs the kind has an expander. */
    const NodeExpander& get(NodeKind kind) const;

    /** First applicable recursive expander for @p ni, or null. */
    const NodeExpander* select_recursive(const TreeBuild& build,
                                         int ni) const;

    /** First applicable terminal-wrapper expander for @p ni, or null. */
    const NodeExpander* select_terminal(const TreeBuild& build,
                                        int ni) const;

    /** All registered expanders in consultation order. */
    const std::vector<const NodeExpander*>& all() const
    {
        return ordered_;
    }

  private:
    ExpanderRegistry();
    std::vector<std::unique_ptr<NodeExpander>> owned_;
    std::vector<const NodeExpander*> ordered_;
};

/** Kind of the reduction arm leaf @p leaf_id executes under: the kind
 *  of its node's parent (every leaf node hangs off the reduction that
 *  produced it). Diagnostics and checkpoint v2 frames key on this. */
NodeKind leaf_arm_kind(const SolveTree& tree, int leaf_id);

} // namespace fq::engine

#endif // FQ_ENGINE_EXPANDER_H
