#include "engine/solve_tree.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "frozenqubits/template_editor.h"
#include "graph/sparsify.h"
#include "partition/bisection.h"
#include "partition/dnc_qaoa.h"
#include "sim/qaoa_kernel.h"
#include "sim/statevector.h"

namespace fq::engine {

namespace {

/** Expected recoverable share of a cut coupling's magnitude: the decode's
 *  greedy repair fixes the sign of roughly half the cut terms, so a hybrid
 *  arm is charged the other half as ranking pessimism. */
constexpr double kCutPenaltyShare = 0.5;

/** Sparsify pessimism share: pruned couplings still count at execution
 *  (sampling runs on the full graph) — only the proxy-tuned angles can be
 *  off, which costs far less than a dropped coupling, so the charge is
 *  half the partition share. Ranking-only, like every score penalty. */
constexpr double kSparsifyPenaltyShare = 0.25;

/** In NodeKind order: node_kind_index is the enum value. */
const std::vector<NodeKindInfo> kKindTable = {
    {NodeKind::Leaf, "leaf", "leaf", "leaf", 0},
    {NodeKind::Freeze, "freeze", "frz", "freeze", 1},
    {NodeKind::Partition, "partition", "cut", "partition", 2},
    {NodeKind::Sparsify, "sparsify", "spr", "sparsify", 3},
};

/** Everything a terminal node needs to become an executable leaf: the
 *  parent reduction's template resolution plus the leaf's plan-derived
 *  RNG stream. */
struct LeafContext
{
    /** Sub-problem index inside the parent Freeze plan (-1 otherwise). */
    int local_solve = -1;
    std::uint64_t rng_seed = 0;
    std::shared_ptr<const CompiledTemplate> tpl;
    bool tpl_compatible = false;
    qaoa::BuildOptions build;
};

/** Compose a node-local sub-problem with its parent's bookkeeping:
 *  surviving spins map through the parent's original_of, locally frozen
 *  spins translate to true original indices. */
frozenqubits::SubProblem
compose_subproblem(const frozenqubits::SubProblem& parent,
                   const frozenqubits::SubProblem& local)
{
    frozenqubits::SubProblem out;
    out.model = local.model;
    out.original_of.resize(local.original_of.size());
    for (std::size_t i = 0; i < local.original_of.size(); ++i)
        out.original_of[i] =
            parent.original_of[static_cast<std::size_t>(
                local.original_of[i])];
    out.frozen = parent.frozen;
    for (const auto& fs : local.frozen)
        out.frozen.push_back(
            {parent.original_of[static_cast<std::size_t>(
                 fs.original_index)],
             fs.value});
    return out;
}

/**
 * The tree builder. Every reduction is a pure function of (node model,
 * config, plan-derived seed), so trees are bit-identical across thread
 * counts and solo-vs-service, and a disabled reduction leaves every byte
 * of the tree unchanged.
 */
class TreeBuilder
{
  public:
    TreeBuilder(const device::Device& dev,
                const frozenqubits::DriverConfig& config,
                TemplateCache& cache)
        : dev_(dev), config_(config), cache_(cache)
    {
    }

    SolveTree
    run(const ising::IsingModel& model, Rng& rng)
    {
        FQ_REQUIRE(config_.max_depth >= 1,
                   "solve tree needs at least one expansion level");
        // Bisection consumes an expansion level, so depth 1 would leave
        // raw fragments and silently drop the requested freeze entirely.
        FQ_REQUIRE(config_.partition_width <= 0 || config_.max_depth >= 2,
                   "partition_width needs max_depth >= 2 so fragments can "
                   "be frozen or solved");
        FQ_REQUIRE(std::isfinite(config_.sparsify_keep),
                   "sparsify keep fraction must be finite");
        tree_.max_depth = config_.max_depth;

        SolveNode root;
        root.index = 0;
        root.sub = frozenqubits::as_subproblem(model);
        tree_.nodes.push_back(std::move(root));
        FQ_REQUIRE(expandable(0), "root is too small to freeze and too "
                                  "narrow to partition");
        expand(0, &rng);
        return std::move(tree_);
    }

  private:
    SolveNode&
    node(int ni)
    {
        return tree_.nodes[static_cast<std::size_t>(ni)];
    }

    const SolveNode&
    node(int ni) const
    {
        return tree_.nodes[static_cast<std::size_t>(ni)];
    }

    int
    width(int ni) const
    {
        return node(ni).sub.model.num_spins();
    }

    bool
    partitionable(int ni) const
    {
        return config_.partition_width > 0 &&
               width(ni) > config_.partition_width && width(ni) >= 4 &&
               node(ni).depth < config_.max_depth;
    }

    bool
    freezable(int ni) const
    {
        // Same floor as the flat engine: freezing needs one spin to
        // freeze and one to survive (freeze_all requires m < n).
        return width(ni) >= 2 && node(ni).depth < config_.max_depth;
    }

    bool
    expandable(int ni) const
    {
        return partitionable(ni) || freezable(ni);
    }

    /** Partition wide nodes, freeze the rest. @p root_rng is non-null
     *  only for the root, whose draws must match the flat engine's. */
    void
    expand(int ni, Rng* root_rng)
    {
        if (partitionable(ni))
            partition(ni, root_rng);
        else
            freeze(ni, root_rng);
    }

    /** Sparsify the terminal node @p ni when its proxy prunes something,
     *  else register it as a plain leaf. Returns the executable leaf id
     *  either way. */
    int
    finalize(int ni, const LeafContext& ctx)
    {
        // A keep of 1 or more keeps every edge: off, decided before the
        // keep fraction is scaled by the edge count.
        const double keep = config_.sparsify_keep;
        if (keep <= 0.0 || keep >= 1.0 || width(ni) < 2)
            return make_leaf(ni, ctx);
        const auto& model = node(ni).sub.model;
        std::vector<graph::EdgeRef> edges;
        edges.reserve(static_cast<std::size_t>(model.num_quadratic_terms()));
        for (const auto& t : model.quadratic_terms())
            edges.push_back({t.i, t.j, t.coefficient});
        // The proxy is a pure function of (leaf model, leaf stream seed):
        // fixed at plan time, reproducible at any thread count.
        const auto plan = graph::sparsify_edges(
            model.num_spins(), edges, keep,
            combine_seeds(ctx.rng_seed, hash_seed("fq-sparsify")));
        if (plan.pruned == 0)
            return make_leaf(ni, ctx);
        return sparsify(ni, ctx, plan);
    }

    int
    add_child(int parent, frozenqubits::SubProblem sub,
              std::uint64_t stream_seed, bool repair_lineage)
    {
        const int index = static_cast<int>(tree_.nodes.size());
        SolveNode child;
        child.index = index;
        child.parent = parent;
        child.depth = node(parent).depth + 1;
        child.sub = std::move(sub);
        child.stream_seed = stream_seed;
        child.partition_lineage =
            node(parent).partition_lineage || repair_lineage;
        tree_.nodes.push_back(std::move(child));
        node(parent).children.push_back(index);
        return index;
    }

    int
    make_leaf(int ni, const LeafContext& ctx,
              std::shared_ptr<const ising::IsingModel> proxy = nullptr)
    {
        auto& n = node(ni);
        n.kind = NodeKind::Leaf;
        n.leaf_id = static_cast<int>(tree_.leaves.size());

        SolveLeaf leaf;
        leaf.node = ni;
        leaf.leaf_id = n.leaf_id;
        leaf.local_solve = ctx.local_solve;
        leaf.rng_seed = ctx.rng_seed;
        leaf.needs_repair = n.partition_lineage;
        leaf.fuse = n.sub.model.num_spins() <= sim::kMaxSimQubits;
        leaf.backend = sim::select_backend(n.sub.model.num_spins());
        leaf.exact_tables = sim::parity_sums_exact(n.sub.model);
        leaf.build = ctx.build;
        leaf.tpl = ctx.tpl;
        leaf.tpl_compatible = ctx.tpl_compatible;
        leaf.proxy = std::move(proxy);
        tree_.leaves.push_back(std::move(leaf));
        return n.leaf_id;
    }

    /** Freeze: the paper's Section 3 transform through make_plan. */
    void
    freeze(int ni, Rng* root_rng)
    {
        node(ni).kind = NodeKind::Freeze;
        const auto parent_sub = node(ni).sub; // copy: nodes reallocate
        const int parent_depth = node(ni).depth;

        // Children are terminal when they have no expansion level left or
        // are too narrow for any strategy; only then may this level prune
        // mirrors (a recursively expanded child has no single distribution
        // to flip). The ROOT takes config.num_freeze verbatim so a flat
        // tree accepts and rejects exactly what make_plan does; deeper
        // nodes clamp to their own width (m < n).
        const int m = parent_depth == 0
                          ? config_.num_freeze
                          : std::min(config_.num_freeze,
                                     parent_sub.model.num_spins() - 1);
        const int child_width = parent_sub.model.num_spins() - m;
        const bool child_can_expand =
            parent_depth + 1 < config_.max_depth && child_width >= 2;
        frozenqubits::DriverConfig node_config = config_;
        node_config.num_freeze = m;
        if (child_can_expand)
            node_config.symmetry_pruning = false;

        Rng local(combine_seeds(node(ni).stream_seed,
                                hash_seed("fq-freeze-node")));
        ExecutionPlan plan = make_plan(parent_sub.model, dev_, node_config,
                                       cache_, root_rng ? *root_rng : local);
        // The node's stream base is the plan's: descendants (and the
        // scheduler's presolve, for the root) derive from the config seed
        // exactly as the flat engine's task streams do.
        node(ni).stream_seed = plan.stream_seed;

        for (const auto& task : plan.tasks) {
            const auto& local_sub =
                plan.subproblems[static_cast<std::size_t>(task.solve)];
            const int ci =
                add_child(ni, compose_subproblem(parent_sub, local_sub),
                          task.rng_seed, /*repair_lineage=*/false);
            node(ci).local_solve = task.solve;
            if (child_can_expand && expandable(ci)) {
                expand(ci, nullptr);
                continue;
            }
            LeafContext ctx;
            ctx.local_solve = task.solve;
            ctx.rng_seed = task.rng_seed;
            ctx.tpl = plan.compiled_template;
            ctx.tpl_compatible =
                plan.compiled_template &&
                frozenqubits::templates_compatible(
                    plan.subproblems[static_cast<std::size_t>(
                                         plan.tasks.front().solve)]
                        .model,
                    local_sub.model);
            ctx.build = plan.build;
            const int leaf_id = finalize(ci, ctx);
            // Mirror sub-spaces covered by flipping this leaf's output.
            for (int mirror : task.mirrors) {
                const auto& mirror_sub =
                    plan.subproblems[static_cast<std::size_t>(mirror)];
                const int mi = add_child(
                    ni, compose_subproblem(parent_sub, mirror_sub),
                    /*stream_seed=*/0, /*repair_lineage=*/false);
                auto& mirror_node = node(mi);
                mirror_node.kind = NodeKind::Leaf;
                mirror_node.mirror_of = leaf_id;
                mirror_node.local_solve = mirror;
                tree_.leaves[static_cast<std::size_t>(leaf_id)]
                    .mirror_nodes.push_back(mi);
            }
        }
        node(ni).plan = std::move(plan);
    }

    /** Partition: bisect, drop the cut couplings and mark the fragments'
     *  lineage for greedy repair at decode. */
    void
    partition(int ni, Rng* root_rng)
    {
        node(ni).kind = NodeKind::Partition;
        const auto parent_sub = node(ni).sub; // copy: nodes reallocate
        // A partition root has no plan to draw a stream base from: take it
        // from the caller's rng so child streams follow the config seed.
        if (root_rng)
            node(ni).stream_seed = (*root_rng)();
        const std::uint64_t seed = node(ni).stream_seed;

        Rng local(combine_seeds(seed, hash_seed("fq-partition")));
        Rng& rng = root_rng ? *root_rng : local;
        const auto cut = partition::bisect(parent_sub.model.to_graph(), rng);
        node(ni).cut_edges = cut.cut_edges;
        node(ni).cut_weight = cut.cut_weight;

        for (int which : {0, 1}) {
            auto frag = partition::extract_fragment(parent_sub.model,
                                                    cut.side, which);
            if (frag.model.num_spins() == 0)
                continue;
            // Split the constant term evenly so the fragments' classical
            // bounds sum to (roughly) the node's — cut couplings excepted,
            // which is exactly the D&C energy loss — WITHOUT biasing the
            // scheduler's cross-fragment ranking (scores include the
            // offset; loading it onto one side would deterministically
            // starve that side under a budget).
            frag.model.set_offset(parent_sub.model.offset() / 2.0);
            frozenqubits::SubProblem local_sub;
            local_sub.model = std::move(frag.model);
            local_sub.original_of = std::move(frag.original_of);
            const std::uint64_t child_seed = subproblem_stream_seed(
                seed, static_cast<std::uint64_t>(which));
            const int ci =
                add_child(ni, compose_subproblem(parent_sub, local_sub),
                          child_seed, /*repair_lineage=*/true);
            if (expandable(ci)) {
                expand(ci, nullptr);
                continue;
            }
            // Fragments have no freeze siblings to share a template with:
            // resolve one per structure through the cache.
            LeafContext ctx;
            ctx.rng_seed = child_seed;
            ctx.build = default_build_options();
            const auto& model = node(ci).sub.model;
            if (model.num_spins() <= dev_.num_qubits()) {
                ctx.tpl = cache_.get_or_bind(model, dev_, config_.compile,
                                             default_build_options())
                              .family->structural;
                ctx.tpl_compatible = true;
            }
            finalize(ci, ctx);
        }
        FQ_REQUIRE(!node(ni).children.empty(),
                   "bisection produced no fragments");
    }

    /**
     * Red-QAOA sparsification: the optimizer loop tunes (gamma, beta) on
     * the edge-pruned proxy @p plan selects, while the executed circuit,
     * final sampling and every energy evaluation run on the full model.
     * Wraps a would-be leaf without consuming depth: the node records
     * what was pruned, its single child is the same cell (identity lift)
     * carrying the proxy.
     */
    int
    sparsify(int ni, const LeafContext& ctx, const graph::SparsifyPlan& plan)
    {
        const auto parent_sub = node(ni).sub; // copy: nodes reallocate
        node(ni).kind = NodeKind::Sparsify;
        node(ni).stream_seed = ctx.rng_seed;
        node(ni).cut_edges = plan.pruned;
        node(ni).cut_weight = plan.pruned_weight;

        const auto& full = parent_sub.model;
        auto proxy = std::make_shared<ising::IsingModel>(full.num_spins());
        for (int i = 0; i < full.num_spins(); ++i)
            proxy->set_linear(i, full.linear(i));
        proxy->set_offset(full.offset());
        const auto& terms = full.quadratic_terms();
        for (std::size_t k = 0; k < terms.size(); ++k)
            if (plan.keep[k])
                proxy->add_quadratic(terms[k].i, terms[k].j,
                                     terms[k].coefficient);

        const int ci = add_child(ni, parent_sub, ctx.rng_seed,
                                 /*repair_lineage=*/false);
        node(ci).local_solve = ctx.local_solve;
        return make_leaf(ci, ctx, std::move(proxy));
    }

    const device::Device& dev_;
    const frozenqubits::DriverConfig& config_;
    TemplateCache& cache_;
    SolveTree tree_;
};

} // namespace

const std::vector<NodeKindInfo>&
node_kind_table()
{
    return kKindTable;
}

std::size_t
node_kind_index(NodeKind kind)
{
    const auto k = static_cast<std::size_t>(kind);
    FQ_REQUIRE(k < kKindTable.size(), "node kind missing from the table");
    return k;
}

const NodeKindInfo&
node_kind_info(NodeKind kind)
{
    return kKindTable[node_kind_index(kind)];
}

const NodeKindInfo*
node_kind_info_by_tag(std::uint8_t frame_tag)
{
    for (const auto& row : kKindTable)
        if (row.frame_tag == frame_tag)
            return &row;
    return nullptr;
}

const char*
node_kind_name(NodeKind kind)
{
    return node_kind_info(kind).name;
}

double
score_penalty(const SolveNode& node)
{
    switch (node.kind) {
    case NodeKind::Leaf:
    case NodeKind::Freeze:
        return 0.0;
    case NodeKind::Partition:
        return kCutPenaltyShare * node.cut_weight;
    case NodeKind::Sparsify:
        return kSparsifyPenaltyShare * node.cut_weight;
    }
    return 0.0;
}

NodeKind
leaf_arm_kind(const SolveTree& tree, int leaf_id)
{
    const auto& leaf = tree.leaves[static_cast<std::size_t>(leaf_id)];
    const int parent =
        tree.nodes[static_cast<std::size_t>(leaf.node)].parent;
    FQ_REQUIRE(parent >= 0, "executable leaf cannot be the root");
    return tree.nodes[static_cast<std::size_t>(parent)].kind;
}

bool
SolveTree::flat() const
{
    if (nodes.empty() || nodes.front().kind != NodeKind::Freeze)
        return false;
    for (std::size_t i = 1; i < nodes.size(); ++i)
        if (nodes[i].kind != NodeKind::Leaf)
            return false;
    return true;
}

int
SolveTree::num_leaf_nodes() const
{
    int count = 0;
    for (const auto& node : nodes)
        if (node.kind == NodeKind::Leaf)
            ++count;
    return count;
}

int
SolveTree::leaf_width(int leaf_id) const
{
    const auto& leaf = leaves[static_cast<std::size_t>(leaf_id)];
    return nodes[static_cast<std::size_t>(leaf.node)]
        .sub.model.num_spins();
}

SolveTree
build_solve_tree(const ising::IsingModel& model, const device::Device& dev,
                 const frozenqubits::DriverConfig& config,
                 TemplateCache& cache, Rng& rng)
{
    return TreeBuilder(dev, config, cache).run(model, rng);
}

ising::SpinVector
lift_leaf_state(const SolveTree& tree, const SolveLeaf& leaf,
                std::uint64_t state, const ising::SpinVector& base)
{
    const auto& sub =
        tree.nodes[static_cast<std::size_t>(leaf.node)].sub;
    ising::SpinVector full = base;
    const auto sub_z =
        ising::state_to_spins(state, sub.model.num_spins());
    for (std::size_t i = 0; i < sub_z.size(); ++i)
        full[static_cast<std::size_t>(sub.original_of[i])] = sub_z[i];
    for (const auto& fs : sub.frozen)
        full[static_cast<std::size_t>(fs.original_index)] =
            static_cast<std::int8_t>(fs.value);
    return full;
}

} // namespace fq::engine
