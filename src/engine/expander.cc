#include "engine/expander.h"

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

const std::vector<NodeKindInfo> kKindTable = {
    {NodeKind::Leaf, "leaf", "leaf", "leaf", 0},
    {NodeKind::Freeze, "freeze", "frz", "freeze", 1},
    {NodeKind::Partition, "partition", "cut", "partition", 2},
    {NodeKind::Sparsify, "sparsify", "spr", "sparsify", 3},
};

} // namespace

const std::vector<NodeKindInfo>&
node_kind_table()
{
    return kKindTable;
}

const NodeKindInfo&
node_kind_info(NodeKind kind)
{
    for (const auto& row : kKindTable)
        if (row.kind == kind)
            return row;
    FQ_REQUIRE(false, "node kind missing from the metadata table");
    return kKindTable.front(); // unreachable
}

const NodeKindInfo*
node_kind_info_by_tag(std::uint8_t frame_tag)
{
    for (const auto& row : kKindTable)
        if (row.frame_tag == frame_tag)
            return &row;
    return nullptr;
}

std::size_t
node_kind_index(NodeKind kind)
{
    for (std::size_t k = 0; k < kKindTable.size(); ++k)
        if (kKindTable[k].kind == kind)
            return k;
    FQ_REQUIRE(false, "node kind missing from the metadata table");
    return 0; // unreachable
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

// --------------------------------------------------------- TreeBuild --

TreeBuild::TreeBuild(const device::Device& dev,
                     const frozenqubits::DriverConfig& config,
                     TemplateCache& cache)
    : dev_(dev), config_(config), cache_(cache)
{
}

const SolveNode&
TreeBuild::node(int ni) const
{
    return tree_.nodes[static_cast<std::size_t>(ni)];
}

SolveNode&
TreeBuild::mutable_node(int ni)
{
    return tree_.nodes[static_cast<std::size_t>(ni)];
}

SolveLeaf&
TreeBuild::leaf(int leaf_id)
{
    return tree_.leaves[static_cast<std::size_t>(leaf_id)];
}

int
TreeBuild::width(int ni) const
{
    return node(ni).sub.model.num_spins();
}

frozenqubits::SubProblem
TreeBuild::compose_subproblem(const frozenqubits::SubProblem& parent,
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

int
TreeBuild::add_child(int parent, frozenqubits::SubProblem sub,
                     std::uint64_t stream_seed, bool repair_lineage)
{
    const int index = static_cast<int>(tree_.nodes.size());
    SolveNode child;
    child.index = index;
    child.parent = parent;
    child.depth = tree_.nodes[static_cast<std::size_t>(parent)].depth + 1;
    child.sub = std::move(sub);
    child.stream_seed = stream_seed;
    child.partition_lineage =
        tree_.nodes[static_cast<std::size_t>(parent)].partition_lineage ||
        repair_lineage;
    tree_.nodes.push_back(std::move(child));
    tree_.nodes[static_cast<std::size_t>(parent)].children.push_back(
        index);
    return index;
}

int
TreeBuild::make_leaf(int ni, const LeafContext& ctx,
                     std::shared_ptr<const ising::IsingModel> proxy)
{
    auto& node = tree_.nodes[static_cast<std::size_t>(ni)];
    node.kind = NodeKind::Leaf;
    node.leaf_id = static_cast<int>(tree_.leaves.size());

    SolveLeaf leaf;
    leaf.node = ni;
    leaf.leaf_id = node.leaf_id;
    leaf.local_solve = ctx.local_solve;
    leaf.rng_seed = ctx.rng_seed;
    leaf.needs_repair = node.partition_lineage;
    leaf.fuse = node.sub.model.num_spins() <= sim::kMaxSimQubits;
    leaf.backend = sim::select_backend(node.sub.model.num_spins());
    leaf.exact_tables = sim::parity_sums_exact(node.sub.model);
    leaf.build = ctx.build;
    leaf.tpl = ctx.tpl;
    leaf.tpl_compatible = ctx.tpl_compatible;
    leaf.proxy = std::move(proxy);
    // The family skeleton is verified against THIS leaf's labeled
    // structure — a sibling whose structure drifted (it cannot, by
    // freeze construction, but the check is cheap) falls back to the
    // from-scratch path rather than binding a wrong skeleton.
    if (ctx.family != nullptr && ctx.family->has_skeleton &&
        ctx.family->matches(node.sub.model))
        leaf.family = ctx.family;
    // Plan-time tier preview for diagnostics and the fqtool plan
    // column. A leaf too wide to simulate previews tier Compile.
    leaf.tier = leaf.fuse && leaf.family != nullptr ? TemplateTier::Bind
                                                    : TemplateTier::Compile;
    tree_.leaves.push_back(std::move(leaf));
    return node.leaf_id;
}

LeafContext
TreeBuild::resolve_private_templates(int ni)
{
    LeafContext ctx;
    ctx.build = default_build_options();
    const auto& model = node(ni).sub.model;
    if (model.num_spins() > dev_.num_qubits())
        return ctx;
    auto binding = cache_.get_or_bind(model, dev_, config_.compile,
                                      default_build_options());
    ctx.tpl = binding.family->structural;
    ctx.family = binding.family;
    ctx.tpl_compatible = true;
    return ctx;
}

bool
TreeBuild::recursively_expandable(int ni) const
{
    return ExpanderRegistry::instance().select_recursive(*this, ni) !=
           nullptr;
}

void
TreeBuild::expand(int ni, Rng* root_rng)
{
    const auto* expander =
        ExpanderRegistry::instance().select_recursive(*this, ni);
    FQ_REQUIRE(expander != nullptr, "no reduction applies to the node");
    expander->expand(*this, ni, root_rng, nullptr);
}

int
TreeBuild::finalize(int ni, const LeafContext& ctx)
{
    if (const auto* wrapper =
            ExpanderRegistry::instance().select_terminal(*this, ni))
        return wrapper->expand(*this, ni, nullptr, &ctx);
    return make_leaf(ni, ctx);
}

SolveTree
TreeBuild::run(const ising::IsingModel& model, Rng& rng)
{
    FQ_REQUIRE(config_.max_depth >= 1,
               "solve tree needs at least one expansion level");
    // Bisection consumes an expansion level, so depth 1 would leave
    // raw fragments and silently drop the requested freeze entirely.
    FQ_REQUIRE(config_.partition_width <= 0 || config_.max_depth >= 2,
               "partition_width needs max_depth >= 2 so fragments can "
               "be frozen or solved");
    tree_.max_depth = config_.max_depth;

    SolveNode root;
    root.index = 0;
    root.sub = frozenqubits::as_subproblem(model);
    tree_.nodes.push_back(std::move(root));
    FQ_REQUIRE(recursively_expandable(0),
               "root is too small to freeze and too narrow to "
               "partition");
    expand(0, &rng);
    return std::move(tree_);
}

// --------------------------------------------------------- expanders --

namespace {

class FreezeExpander : public NodeExpander
{
  public:
    const NodeKindInfo&
    info() const override
    {
        return node_kind_info(NodeKind::Freeze);
    }

    bool
    applicable(const TreeBuild& b, int ni) const override
    {
        // Same floor as the flat engine: freezing needs one spin to
        // freeze and one to survive (freeze_all requires m < n).
        return b.width(ni) >= 2 &&
               b.node(ni).depth < b.config().max_depth;
    }

    bool
    recursive() const override
    {
        return true;
    }

    int
    expand(TreeBuild& b, int ni, Rng* root_rng,
           const LeafContext*) const override
    {
        b.mutable_node(ni).kind = NodeKind::Freeze;
        const auto parent_sub =
            b.node(ni).sub; // copy: the nodes vector reallocates
        const int parent_depth = b.node(ni).depth;
        const std::uint64_t seed = b.node(ni).stream_seed;
        const auto& config = b.config();

        // Children are terminal when they have no expansion level left
        // or are too narrow for any strategy; only then may this level
        // prune mirrors (a recursively expanded child has no single
        // distribution to flip). The ROOT takes config.num_freeze
        // verbatim so a flat tree accepts and rejects exactly what
        // make_plan does; deeper nodes clamp to their own width (m < n).
        const int m =
            parent_depth == 0
                ? config.num_freeze
                : std::min(config.num_freeze,
                           parent_sub.model.num_spins() - 1);
        const int child_width = parent_sub.model.num_spins() - m;
        const bool child_can_expand =
            parent_depth + 1 < config.max_depth && child_width >= 2;
        frozenqubits::DriverConfig node_config = config;
        node_config.num_freeze = m;
        if (child_can_expand)
            node_config.symmetry_pruning = false;

        Rng local(combine_seeds(seed, hash_seed("fq-freeze-node")));
        ExecutionPlan plan =
            make_plan(parent_sub.model, b.device(), node_config,
                      b.cache(), root_rng ? *root_rng : local);
        // The node's stream base is the plan's: descendants (and the
        // scheduler's presolve, for the root) derive from the config
        // seed exactly as the flat engine's task streams do.
        b.mutable_node(ni).stream_seed = plan.stream_seed;

        for (const auto& task : plan.tasks) {
            const auto& local_sub =
                plan.subproblems[static_cast<std::size_t>(task.solve)];
            const int ci = b.add_child(
                ni, TreeBuild::compose_subproblem(parent_sub, local_sub),
                task.rng_seed, lift_requires_repair());
            b.mutable_node(ci).local_solve = task.solve;
            if (child_can_expand && b.recursively_expandable(ci)) {
                b.expand(ci, nullptr);
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
            ctx.family = plan.family;
            ctx.build = plan.build;
            const int leaf_id = b.finalize(ci, ctx);
            // Mirror sub-spaces covered by flipping this leaf's output.
            for (int mirror : task.mirrors) {
                const auto& mirror_sub = plan.subproblems[
                    static_cast<std::size_t>(mirror)];
                const int mi = b.add_child(
                    ni,
                    TreeBuild::compose_subproblem(parent_sub, mirror_sub),
                    /*stream_seed=*/0, lift_requires_repair());
                auto& mirror_node = b.mutable_node(mi);
                mirror_node.kind = NodeKind::Leaf;
                mirror_node.mirror_of = leaf_id;
                mirror_node.local_solve = mirror;
                b.leaf(leaf_id).mirror_nodes.push_back(mi);
            }
        }
        b.mutable_node(ni).plan = std::move(plan);
        return -1;
    }

    double
    score_penalty(const SolveNode&) const override
    {
        // Freezing discards nothing a leaf SA presolve cannot see: the
        // frozen values fold into the children's linear terms exactly.
        return 0.0;
    }

    bool
    lift_requires_repair() const override
    {
        return false;
    }
};

class PartitionExpander : public NodeExpander
{
  public:
    const NodeKindInfo&
    info() const override
    {
        return node_kind_info(NodeKind::Partition);
    }

    bool
    applicable(const TreeBuild& b, int ni) const override
    {
        const auto& config = b.config();
        return config.partition_width > 0 &&
               b.width(ni) > config.partition_width && b.width(ni) >= 4 &&
               b.node(ni).depth < config.max_depth;
    }

    bool
    recursive() const override
    {
        return true;
    }

    int
    expand(TreeBuild& b, int ni, Rng* root_rng,
           const LeafContext*) const override
    {
        b.mutable_node(ni).kind = NodeKind::Partition;
        const auto parent_sub =
            b.node(ni).sub; // copy: the nodes vector reallocates
        // A partition root has no plan to draw a stream base from: take
        // it from the caller's rng so child streams follow the config
        // seed.
        if (root_rng)
            b.mutable_node(ni).stream_seed = (*root_rng)();
        const std::uint64_t seed = b.node(ni).stream_seed;

        Rng local(combine_seeds(seed, hash_seed("fq-partition")));
        Rng& rng = root_rng ? *root_rng : local;
        const auto cut =
            partition::bisect(parent_sub.model.to_graph(), rng);
        {
            auto& node = b.mutable_node(ni);
            node.cut_edges = cut.cut_edges;
            node.cut_weight = cut.cut_weight;
        }

        for (int which : {0, 1}) {
            auto frag = partition::extract_fragment(parent_sub.model,
                                                    cut.side, which);
            if (frag.model.num_spins() == 0)
                continue;
            // Split the constant term evenly so the fragments' classical
            // bounds sum to (roughly) the node's — cut couplings
            // excepted, which is exactly the D&C energy loss — WITHOUT
            // biasing the scheduler's cross-fragment ranking (scores
            // include the offset; loading it onto one side would
            // deterministically starve that side under a budget).
            frag.model.set_offset(parent_sub.model.offset() / 2.0);
            frozenqubits::SubProblem local_sub;
            local_sub.model = std::move(frag.model);
            local_sub.original_of = std::move(frag.original_of);
            const std::uint64_t child_seed = subproblem_stream_seed(
                seed, static_cast<std::uint64_t>(which));
            const int ci = b.add_child(
                ni, TreeBuild::compose_subproblem(parent_sub, local_sub),
                child_seed, lift_requires_repair());
            if (b.recursively_expandable(ci)) {
                b.expand(ci, nullptr);
            } else {
                auto ctx = b.resolve_private_templates(ci);
                ctx.rng_seed = child_seed;
                b.finalize(ci, ctx);
            }
        }
        FQ_REQUIRE(!b.node(ni).children.empty(),
                   "bisection produced no fragments");
        return -1;
    }

    double
    score_penalty(const SolveNode& node) const override
    {
        // A fragment's SA presolve never sees the couplings its
        // ancestors cut, so its raw score flatters hybrid arms; charge
        // the recorded cut weight back.
        return kCutPenaltyShare * node.cut_weight;
    }

    bool
    lift_requires_repair() const override
    {
        // Cut couplings are dropped during the quantum phase; the
        // decode fills the other fragments from the presolve assignment
        // and greedy-repairs on the original model.
        return true;
    }
};

/**
 * Red-QAOA sparsification: the optimizer loop tunes (gamma, beta) on a
 * deterministic, seed-derived, spanning-structure-preserving edge-pruned
 * PROXY of the leaf model, while the executed circuit, final sampling
 * and every energy evaluation run on the FULL model. The reduction
 * wraps would-be leaves (no depth consumed): the node records what was
 * pruned, its single child is the same cell carrying the proxy.
 */
class SparsifyExpander : public NodeExpander
{
  public:
    const NodeKindInfo&
    info() const override
    {
        return node_kind_info(NodeKind::Sparsify);
    }

    bool
    applicable(const TreeBuild& b, int ni) const override
    {
        const double keep = b.config().sparsify_keep;
        if (keep <= 0.0 || b.width(ni) < 2)
            return false;
        const auto edges = model_edges(b.node(ni).sub.model);
        if (edges.empty())
            return false;
        // Only claim the node when something actually prunes: the keep
        // target floors at the spanning forest, and a target covering
        // every edge would make the proxy the full model.
        const int target = keep_target(
            graph::spanning_forest_size(b.width(ni), edges),
            static_cast<int>(edges.size()), keep);
        return target < static_cast<int>(edges.size());
    }

    bool
    recursive() const override
    {
        return false;
    }

    int
    expand(TreeBuild& b, int ni, Rng*,
           const LeafContext* ctx) const override
    {
        FQ_REQUIRE(ctx != nullptr,
                   "sparsify wraps terminal nodes and needs their leaf "
                   "context");
        const auto parent_sub =
            b.node(ni).sub; // copy: the nodes vector reallocates
        const auto edges = model_edges(parent_sub.model);
        // The proxy is a pure function of (leaf model, leaf stream
        // seed): fixed at plan time, reproducible at any thread count.
        const auto plan = graph::sparsify_edges(
            parent_sub.model.num_spins(), edges, b.config().sparsify_keep,
            combine_seeds(ctx->rng_seed, hash_seed("fq-sparsify")));
        FQ_REQUIRE(plan.pruned > 0, "sparsify claimed a node it cannot "
                                    "prune");
        {
            auto& node = b.mutable_node(ni);
            node.kind = NodeKind::Sparsify;
            node.stream_seed = ctx->rng_seed;
            node.cut_edges = plan.pruned;
            node.cut_weight = plan.pruned_weight;
        }

        auto proxy =
            std::make_shared<ising::IsingModel>(parent_sub.model.num_spins());
        for (int i = 0; i < parent_sub.model.num_spins(); ++i)
            proxy->set_linear(i, parent_sub.model.linear(i));
        proxy->set_offset(parent_sub.model.offset());
        const auto& terms = parent_sub.model.quadratic_terms();
        for (std::size_t k = 0; k < terms.size(); ++k)
            if (plan.keep[k])
                proxy->add_quadratic(terms[k].i, terms[k].j,
                                     terms[k].coefficient);

        // The single child is the SAME cell (identity lift): sampling
        // and decode run on the full model, so the reduction is exact
        // at fold time — only the angles can differ.
        const int ci = b.add_child(ni, parent_sub, ctx->rng_seed,
                                   lift_requires_repair());
        b.mutable_node(ci).local_solve = ctx->local_solve;
        return b.make_leaf(ci, *ctx, std::move(proxy));
    }

    double
    score_penalty(const SolveNode& node) const override
    {
        // Pruned couplings still count at execution (full-graph
        // sampling); only the proxy-tuned angles can be off. Charge a
        // smaller share of the pruned weight than a real cut.
        return kSparsifyPenaltyShare * node.cut_weight;
    }

    bool
    lift_requires_repair() const override
    {
        // The lift is the identity over the same cell and the decode
        // evaluates on the full model — nothing was lost to repair.
        return false;
    }

  private:
    static std::vector<graph::EdgeRef>
    model_edges(const ising::IsingModel& model)
    {
        std::vector<graph::EdgeRef> edges;
        edges.reserve(
            static_cast<std::size_t>(model.num_quadratic_terms()));
        for (const auto& t : model.quadratic_terms())
            edges.push_back({t.i, t.j, t.coefficient});
        return edges;
    }

    static int
    keep_target(int forest_edges, int num_edges, double keep)
    {
        return std::max(
            forest_edges,
            static_cast<int>(std::ceil(
                keep * static_cast<double>(num_edges))));
    }
};

} // namespace

// ---------------------------------------------------------- registry --

ExpanderRegistry::ExpanderRegistry()
{
    // Consultation order IS the policy: recursive reductions first
    // (Partition claims wide nodes before Freeze, exactly the legacy
    // precedence), terminal wrappers after.
    owned_.push_back(std::make_unique<PartitionExpander>());
    owned_.push_back(std::make_unique<FreezeExpander>());
    owned_.push_back(std::make_unique<SparsifyExpander>());
    for (const auto& e : owned_)
        ordered_.push_back(e.get());
}

const ExpanderRegistry&
ExpanderRegistry::instance()
{
    static const ExpanderRegistry registry;
    return registry;
}

const NodeExpander*
ExpanderRegistry::find(NodeKind kind) const
{
    for (const auto* e : ordered_)
        if (e->info().kind == kind)
            return e;
    return nullptr;
}

const NodeExpander&
ExpanderRegistry::get(NodeKind kind) const
{
    const auto* e = find(kind);
    FQ_REQUIRE(e != nullptr, "no expander registered for node kind");
    return *e;
}

const NodeExpander*
ExpanderRegistry::select_recursive(const TreeBuild& build, int ni) const
{
    for (const auto* e : ordered_)
        if (e->recursive() && e->applicable(build, ni))
            return e;
    return nullptr;
}

const NodeExpander*
ExpanderRegistry::select_terminal(const TreeBuild& build, int ni) const
{
    for (const auto* e : ordered_)
        if (!e->recursive() && e->applicable(build, ni))
            return e;
    return nullptr;
}

} // namespace fq::engine
