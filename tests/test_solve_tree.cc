/**
 * @file
 * SolveTree tests: structural contracts of the hierarchical plan (node
 * kinds, lift composition across levels, mirror bookkeeping), scheduler
 * determinism (ranking, budget cut, domination pruning) and the
 * offset-consistency invariant that makes leaf-model costs exact
 * original-model costs for freeze lineages.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <type_traits>

#include "device/catalog.h"
#include "engine/scheduler.h"
#include "engine/solve_tree.h"
#include "engine/template_cache.h"
#include "graph/generators.h"
#include "ising/ising_model.h"
#include "solve_test_util.h"

namespace {

using namespace fq;
using namespace fq::engine;
using fq::test::ba_model;

SolveTree
build(const ising::IsingModel& model,
      const frozenqubits::DriverConfig& config)
{
    const auto dev = device::make_device("ibm-montreal");
    TemplateCache cache;
    Rng rng(config.seed);
    return build_solve_tree(model, dev, config, cache, rng);
}

TEST(SolveTree, FlatTreeMatchesLegacyPlanShape)
{
    const auto model = ba_model(12, 1, 5);
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;

    const auto tree = build(model, config);
    EXPECT_TRUE(tree.flat());
    EXPECT_EQ(tree.nodes.front().kind, NodeKind::Freeze);
    EXPECT_EQ(tree.num_leaf_nodes(), 8);         // 2^m
    EXPECT_EQ(tree.num_executable_leaves(), 4);  // 2^{m-1} pruned
    // Every executable leaf mirrors exactly one sibling and carries the
    // shared template of the (single) freeze level.
    for (const auto& leaf : tree.leaves) {
        EXPECT_EQ(leaf.mirror_nodes.size(), 1u);
        EXPECT_FALSE(leaf.needs_repair);
        EXPECT_TRUE(leaf.tpl != nullptr);
        EXPECT_TRUE(leaf.tpl_compatible);
    }
}

TEST(SolveTree, FlatLeafIdIsItsSubproblemIndex)
{
    // Canonical sub-problems are planned in ascending order (each below
    // its mirror), so a flat tree's leaf id IS its node-local sub-problem
    // index — pruned or not.
    const auto model = ba_model(12, 1, 5);
    for (const bool pruning : {true, false}) {
        frozenqubits::DriverConfig config;
        config.num_freeze = 3;
        config.symmetry_pruning = pruning;
        const auto tree = build(model, config);
        ASSERT_TRUE(tree.flat());
        EXPECT_EQ(tree.num_executable_leaves(), pruning ? 4 : 8);
        for (std::size_t k = 0; k < tree.leaves.size(); ++k)
            EXPECT_EQ(tree.leaves[k].local_solve, static_cast<int>(k));
    }
}

TEST(SolveTree, DepthTwoComposesLiftsAndDistinctStreams)
{
    const auto model = ba_model(12, 1, 9);
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.max_depth = 2;

    const auto tree = build(model, config);
    EXPECT_FALSE(tree.flat());
    // Root freezes 2 (pruning disabled when recursing: 4 children), each
    // child freezes 2 more.
    EXPECT_EQ(tree.nodes.front().children.size(), 4u);

    std::set<std::uint64_t> seeds;
    for (const auto& leaf : tree.leaves) {
        const auto& node = tree.nodes[static_cast<std::size_t>(leaf.node)];
        EXPECT_EQ(node.depth, 2);
        // Full coverage: surviving spins + accumulated frozen values
        // partition the original index space.
        std::set<int> covered(node.sub.original_of.begin(),
                              node.sub.original_of.end());
        for (const auto& fs : node.sub.frozen)
            covered.insert(fs.original_index);
        EXPECT_EQ(covered.size(),
                  static_cast<std::size_t>(model.num_spins()));
        EXPECT_EQ(node.sub.frozen.size(), 4u); // 2 per level
        seeds.insert(leaf.rng_seed);
    }
    // Private streams never collide across the tree.
    EXPECT_EQ(seeds.size(), tree.leaves.size());
}

TEST(SolveTree, FreezeLineageLeafCostsAreOriginalCosts)
{
    // The Table 2 offset bookkeeping must survive composition: a leaf
    // outcome's sub-model energy equals the original-model cost of its
    // lifted assignment, at every depth.
    const auto model = ba_model(10, 1, 13);
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.max_depth = 2;

    const auto tree = build(model, config);
    const ising::SpinVector base(
        static_cast<std::size_t>(model.num_spins()), 1);
    for (const auto& leaf : tree.leaves) {
        const auto& sub =
            tree.nodes[static_cast<std::size_t>(leaf.node)].sub;
        const std::uint64_t states =
            std::uint64_t{1} << sub.model.num_spins();
        for (std::uint64_t state = 0; state < states; state += 3) {
            const auto lifted =
                lift_leaf_state(tree, leaf, state, base);
            EXPECT_NEAR(sub.model.evaluate_state(state),
                        model.evaluate(lifted), 1e-9);
        }
    }
}

TEST(SolveTree, PartitionNodeFragmentsCoverTheSpins)
{
    const auto model = ba_model(16, 1, 21);
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.max_depth = 2;
    config.partition_width = 12;

    const auto tree = build(model, config);
    const auto& root = tree.nodes.front();
    ASSERT_EQ(root.kind, NodeKind::Partition);
    EXPECT_GT(root.cut_edges, 0);
    ASSERT_EQ(root.children.size(), 2u);

    std::set<int> covered;
    for (int ci : root.children) {
        const auto& child = tree.nodes[static_cast<std::size_t>(ci)];
        EXPECT_TRUE(child.partition_lineage);
        for (int v : child.sub.original_of)
            EXPECT_TRUE(covered.insert(v).second) << "overlapping spin";
    }
    EXPECT_EQ(covered.size(), static_cast<std::size_t>(model.num_spins()));
    for (const auto& leaf : tree.leaves)
        EXPECT_TRUE(leaf.needs_repair);
}

TEST(LeafScheduler, BudgetCutIsExactAndDeterministic)
{
    const auto model = ba_model(12, 1, 5);
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;
    config.max_circuits = 2;

    const auto tree = build(model, config);
    const auto a = make_schedule(model, tree, config);
    const auto b = make_schedule(model, tree, config);

    ASSERT_EQ(a.executed.size(), 2u);
    EXPECT_EQ(a.beyond_budget.size(), 2u);
    EXPECT_TRUE(a.scored);
    EXPECT_TRUE(a.has_presolve);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.beyond_budget, b.beyond_budget);

    // Rank order: scores are non-decreasing down the schedule, and the cut
    // leaves score no better than the executed ones.
    const auto score = [&](int id) {
        return a.scores[static_cast<std::size_t>(id)].score;
    };
    EXPECT_LE(score(a.executed[0]), score(a.executed[1]));
    for (int skipped : a.beyond_budget)
        EXPECT_LE(score(a.executed.back()), score(skipped));
}

TEST(LeafScheduler, UnbudgetedFlatScheduleIsPlanOrder)
{
    const auto model = ba_model(12, 1, 5);
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;

    const auto tree = build(model, config);
    const auto schedule = make_schedule(model, tree, config);
    EXPECT_FALSE(schedule.scored);
    ASSERT_EQ(schedule.executed.size(), 4u);
    for (std::size_t k = 0; k < schedule.executed.size(); ++k)
        EXPECT_EQ(schedule.executed[k], static_cast<int>(k));
}

TEST(LeafScheduler, PartitionAwareScoringChargesCutWeight)
{
    // Hybrid (bisected) arms drop cut couplings their SA presolve cannot
    // see; the scheduler charges half the recorded cut weight back so they
    // rank honestly against freeze arms. Freeze lineages pay nothing.
    const auto model = ba_model(16, 1, 21);
    frozenqubits::DriverConfig hybrid;
    hybrid.num_freeze = 2;
    hybrid.max_depth = 2;
    hybrid.partition_width = 12;

    const auto tree = build(model, hybrid);
    const auto& root = tree.nodes.front();
    ASSERT_EQ(root.kind, NodeKind::Partition);
    ASSERT_GT(root.cut_weight, 0.0);
    for (const auto& leaf : tree.leaves) {
        EXPECT_DOUBLE_EQ(lineage_score_penalty(tree, leaf.leaf_id),
                         0.5 * root.cut_weight);
    }

    frozenqubits::DriverConfig flat;
    flat.num_freeze = 3;
    const auto freeze_tree = build(ba_model(12, 1, 5), flat);
    for (const auto& leaf : freeze_tree.leaves)
        EXPECT_DOUBLE_EQ(lineage_score_penalty(freeze_tree, leaf.leaf_id),
                         0.0);

    // The penalty flows into the schedule's scores: re-scoring the leaf
    // model alone (same seed recipe) can only come in at or below the
    // recorded score, short exactly when a cut was charged.
    hybrid.max_circuits = 2; // activate scoring
    const auto schedule = make_schedule(model, tree, hybrid);
    ASSERT_TRUE(schedule.scored);
    for (const auto& leaf : tree.leaves) {
        const auto& score =
            schedule.scores[static_cast<std::size_t>(leaf.leaf_id)];
        EXPECT_TRUE(std::isfinite(score.score));
        EXPECT_TRUE(leaf.needs_repair); // whole tree is partition lineage
        EXPECT_EQ(score.bound,
                  -std::numeric_limits<double>::infinity());
    }
}

TEST(LeafScheduler, RerankIntervalForcesScoringAndPlanRanks)
{
    const auto model = ba_model(12, 1, 5);
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;
    config.rerank_interval = 2; // no budget, no pruning — still scored

    const auto tree = build(model, config);
    const auto schedule = make_schedule(model, tree, config);
    EXPECT_TRUE(schedule.scored);
    EXPECT_TRUE(schedule.has_presolve);
    // Plan ranks are a permutation of [0, leaves): the frozen tie-breaker
    // adaptive re-ranks fall back to.
    ASSERT_EQ(schedule.plan_rank.size(), tree.leaves.size());
    std::set<int> ranks(schedule.plan_rank.begin(),
                        schedule.plan_rank.end());
    EXPECT_EQ(ranks.size(), tree.leaves.size());
    EXPECT_EQ(*ranks.begin(), 0);
}

TEST(LeafScheduler, DominationPruningKeepsAtLeastOneLeaf)
{
    // ±1-weight BA trees are SA-trivial, so with pruning on most (often
    // all) leaves are dominated by the presolve incumbent — the schedule
    // must still execute at least one circuit.
    const auto model = ba_model(12, 1, 7);
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;
    config.prune_dominated = true;

    const auto tree = build(model, config);
    const auto schedule = make_schedule(model, tree, config);
    EXPECT_GE(schedule.executed.size(), 1u);
    EXPECT_EQ(schedule.executed.size() + schedule.beyond_budget.size() +
                  schedule.pruned.size(),
              tree.leaves.size());
    // Every pruned leaf is provably dominated: bound above the incumbent.
    for (int id : schedule.pruned)
        EXPECT_GT(schedule.scores[static_cast<std::size_t>(id)].bound,
                  schedule.presolve_cost);
}

TEST(SolveTree, SparsifyInterposesWithoutChangingLeafModels)
{
    // The Sparsify arm wraps each would-be leaf: the executable leaf's
    // own sub-model (what samples and what decodes) is byte-for-byte the
    // model the plain freeze tree would have given it — only the
    // optimizer proxy differs.
    const auto model = ba_model(16, 3, 21);
    frozenqubits::DriverConfig plain;
    plain.num_freeze = 2;
    auto sparse = plain;
    sparse.sparsify_keep = 0.5;

    const auto tree_plain = build(model, plain);
    const auto tree_sparse = build(model, sparse);
    ASSERT_EQ(tree_plain.leaves.size(), tree_sparse.leaves.size());
    for (std::size_t k = 0; k < tree_plain.leaves.size(); ++k) {
        const auto& a = tree_plain.nodes[static_cast<std::size_t>(
            tree_plain.leaves[k].node)];
        const auto& b = tree_sparse.nodes[static_cast<std::size_t>(
            tree_sparse.leaves[k].node)];
        EXPECT_EQ(a.sub.model.num_spins(), b.sub.model.num_spins());
        EXPECT_EQ(a.sub.model.num_quadratic_terms(),
                  b.sub.model.num_quadratic_terms());
        EXPECT_DOUBLE_EQ(a.sub.model.offset(), b.sub.model.offset());
        ASSERT_EQ(a.sub.frozen.size(), b.sub.frozen.size());
        for (std::size_t f = 0; f < a.sub.frozen.size(); ++f) {
            EXPECT_EQ(a.sub.frozen[f].original_index,
                      b.sub.frozen[f].original_index);
            EXPECT_EQ(a.sub.frozen[f].value, b.sub.frozen[f].value);
        }
        // Same plan-derived RNG stream: sampling is untouched by the arm.
        EXPECT_EQ(tree_plain.leaves[k].rng_seed,
                  tree_sparse.leaves[k].rng_seed);
        EXPECT_NE(tree_sparse.leaves[k].proxy, nullptr);
    }
}

TEST(LeafScheduler, SparsifyAwareScoringChargesPrunedWeight)
{
    const auto model = ba_model(16, 3, 21);
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.sparsify_keep = 0.4;
    config.max_circuits = 1; // activate scoring

    const auto tree = build(model, config);
    const auto schedule = make_schedule(model, tree, config);
    ASSERT_TRUE(schedule.scored);
    for (const auto& leaf : tree.leaves) {
        const auto& arm = tree.nodes[static_cast<std::size_t>(
            tree.nodes[static_cast<std::size_t>(leaf.node)].parent)];
        ASSERT_EQ(arm.kind, NodeKind::Sparsify);
        EXPECT_DOUBLE_EQ(lineage_score_penalty(tree, leaf.leaf_id),
                         0.25 * arm.cut_weight);
        // Sparsify never invalidates the optimistic bound: sampling runs
        // the full model, so the bound stays meaningful (finite).
        EXPECT_FALSE(leaf.needs_repair);
        EXPECT_TRUE(std::isfinite(
            schedule.scores[static_cast<std::size_t>(leaf.leaf_id)]
                .bound));
    }
    // The schedule itself is a pure function of the plan: rebuilding
    // reproduces the exact ranked order.
    const auto again = make_schedule(model, tree, config);
    EXPECT_EQ(schedule.executed, again.executed);
    EXPECT_EQ(schedule.beyond_budget, again.beyond_budget);
}


// ------------------------------------------------------ whole-tree pin --
// plan_fingerprint hashes leaf fields only; this digest covers every
// SolveNode and SolveLeaf field (node plans, proxies and mirror links
// included), the lineage score penalties and the force-scored schedule,
// so a builder change that moves any of them fails here.

class TreeDigest
{
  public:
    template <typename T>
    void add(const T& value)
    {
        static_assert(std::is_trivially_copyable<T>::value, "POD only");
        const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
        for (std::size_t k = 0; k < sizeof(T); ++k) {
            hash_ ^= bytes[k];
            hash_ *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void add_all(const std::vector<T>& values)
    {
        add(values.size());
        for (const auto& v : values)
            add(v);
    }

    void add_model(const ising::IsingModel& model)
    {
        add(model.num_spins());
        add_all(model.linear_terms());
        add(model.num_quadratic_terms());
        for (const auto& t : model.quadratic_terms()) {
            add(t.i);
            add(t.j);
            add(t.coefficient);
        }
        add(model.offset());
    }

    void add_sub(const frozenqubits::SubProblem& sub)
    {
        add_model(sub.model);
        add_all(sub.original_of);
        add(sub.frozen.size());
        for (const auto& fs : sub.frozen) {
            add(fs.original_index);
            add(fs.value);
        }
    }

    void add_build(const qaoa::BuildOptions& build)
    {
        add(build.num_layers);
        add(build.include_measurements);
        add(build.keep_zero_linear_rz);
    }

    void add_template(const CompiledTemplate* tpl)
    {
        add(tpl != nullptr);
        if (!tpl)
            return;
        add(tpl->eps);
        add_all(tpl->readout_flip);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
whole_tree_digest(const ising::IsingModel& model,
                  const frozenqubits::DriverConfig& config)
{
    const auto tree = build(model, config);
    TreeDigest d;
    d.add(tree.max_depth);
    d.add(tree.nodes.size());
    // Template sharing: the first leaf (or node plan) holding the same
    // compiled template, so a rebuild that stops sharing shows up.
    std::vector<const CompiledTemplate*> seen;
    const auto share_index = [&](const CompiledTemplate* tpl) {
        if (!tpl)
            return -1;
        for (std::size_t k = 0; k < seen.size(); ++k)
            if (seen[k] == tpl)
                return static_cast<int>(k);
        seen.push_back(tpl);
        return static_cast<int>(seen.size()) - 1;
    };
    for (const auto& node : tree.nodes) {
        d.add(node.index);
        d.add(node.parent);
        d.add(node.depth);
        d.add(node.kind);
        d.add_sub(node.sub);
        d.add(node.partition_lineage);
        d.add(node.stream_seed);
        const auto& plan = node.plan;
        d.add_all(plan.hotspots);
        d.add(plan.subproblems.size());
        for (const auto& sub : plan.subproblems)
            d.add_sub(sub);
        d.add(plan.tasks.size());
        for (const auto& task : plan.tasks) {
            d.add(task.plan_index);
            d.add(task.solve);
            d.add_all(task.mirrors);
            d.add(task.rng_seed);
        }
        d.add(plan.stream_seed);
        d.add_template(plan.compiled_template.get());
        d.add(share_index(plan.compiled_template.get()));
        d.add(plan.template_cache_hit);
        d.add_build(plan.build);
        d.add_all(node.children);
        d.add(node.cut_edges);
        d.add(node.cut_weight);
        d.add(node.leaf_id);
        d.add(node.mirror_of);
        d.add(node.local_solve);
    }
    d.add(tree.leaves.size());
    for (const auto& leaf : tree.leaves) {
        d.add(leaf.node);
        d.add(leaf.leaf_id);
        d.add(leaf.local_solve);
        d.add(leaf.rng_seed);
        d.add_all(leaf.mirror_nodes);
        d.add(leaf.needs_repair);
        d.add(leaf.fuse);
        d.add(leaf.backend);
        d.add(leaf.exact_tables);
        d.add_build(leaf.build);
        d.add_template(leaf.tpl.get());
        d.add(share_index(leaf.tpl.get()));
        d.add(leaf.tpl_compatible);
        d.add(leaf.family != nullptr);
        d.add(leaf.proxy != nullptr);
        if (leaf.proxy)
            d.add_model(*leaf.proxy);
        d.add(lineage_score_penalty(tree, leaf.leaf_id));
    }
    const auto schedule =
        make_schedule(model, tree, config, /*force_scoring=*/true);
    d.add_all(schedule.executed);
    d.add_all(schedule.beyond_budget);
    d.add_all(schedule.pruned);
    d.add_all(schedule.plan_rank);
    for (const auto& score : schedule.scores) {
        d.add(score.score);
        d.add(score.bound);
    }
    d.add(schedule.presolve_cost);
    return d.value();
}

/** Real-valued h and J: Gaussian couplings on a BA graph plus random
 *  fields, so frozen-value folding and proxy weights are non-trivial. */
ising::IsingModel
real_valued_model(int n, std::uint64_t seed)
{
    Rng rng(seed);
    const auto g = graph::barabasi_albert(n, 2, rng);
    ising::IsingModel model(n);
    for (const auto& e : g.edges())
        model.add_quadratic(e.u, e.v, rng.normal());
    for (int i = 0; i < n; ++i)
        model.set_linear(i, rng.uniform(-1.0, 1.0));
    return model;
}

struct PinCase
{
    const char* name;
    int n;
    int freeze;
    bool pruning;
    int depth;
    int partition;
    double keep;
    bool budgeted;
    bool real_valued;
    std::uint64_t digest;
};

frozenqubits::DriverConfig
pin_config(const PinCase& c)
{
    frozenqubits::DriverConfig config;
    config.num_freeze = c.freeze;
    config.symmetry_pruning = c.pruning;
    config.max_depth = c.depth;
    config.partition_width = c.partition;
    config.sparsify_keep = c.keep;
    if (c.budgeted) {
        config.prune_dominated = true;
        config.max_circuits = 3;
    }
    config.seed = 17;
    return config;
}

ising::IsingModel
pin_model(const PinCase& c)
{
    return c.real_valued ? real_valued_model(c.n, 29) : ba_model(c.n, 3, 23);
}

const std::vector<PinCase>&
pin_cases()
{
    // name, n, freeze, mirror pruning, depth, partition width, sparsify
    // keep, prune_dominated + max_circuits, real-valued, digest.
    static const std::vector<PinCase> cases = {
        {"flat-f1", 12, 1, true, 1, 0, 0.0, false, false,
         0xdb4ad45da2ed3d81ULL},
        {"flat-f1-nomirror", 12, 1, false, 1, 0, 0.0, false, false,
         0x67b1a92c65887921ULL},
        {"flat-f2", 12, 2, true, 1, 0, 0.0, false, false,
         0x25cc65d7c11dc645ULL},
        {"flat-f2-nomirror", 12, 2, false, 1, 0, 0.0, false, false,
         0xff5704b22b67b69bULL},
        {"flat-f3", 12, 3, true, 1, 0, 0.0, false, false,
         0xbeb01534ab1e745ULL},
        {"flat-f3-nomirror", 12, 3, false, 1, 0, 0.0, false, false,
         0x5cc6e690e55d5178ULL},
        {"flat-f4", 12, 4, true, 1, 0, 0.0, false, false,
         0x15758cc0454c12baULL},
        {"flat-f4-nomirror", 12, 4, false, 1, 0, 0.0, false, false,
         0x44cdad91087530d8ULL},
        {"depth2", 12, 2, true, 2, 0, 0.0, false, false,
         0x2530d8fd46eda2c3ULL},
        {"depth3", 12, 2, true, 3, 0, 0.0, false, false,
         0xc6beb15c21148b55ULL},
        {"part6-depth2", 16, 2, true, 2, 6, 0.0, false, false,
         0x22fecd969025204aULL},
        {"part6-depth3", 16, 2, true, 3, 6, 0.0, false, false,
         0x7de5c96d27e5e9aULL},
        {"part8-depth2", 16, 2, true, 2, 8, 0.0, false, false,
         0x9844c43eb8157c6fULL},
        {"part8-depth3", 16, 2, true, 3, 8, 0.0, false, false,
         0x7fe2fc4a9f02aea0ULL},
        {"sparsify", 14, 2, true, 1, 0, 0.5, false, false,
         0x534e6309de795d4fULL},
        {"sparsify-part8", 16, 2, true, 2, 8, 0.5, false, false,
         0xf81fea9d61a890a9ULL},
        {"pruned-budget", 12, 3, true, 1, 0, 0.0, true, false,
         0x5fcd976ec8bfc53ULL},
        {"real-flat", 12, 2, true, 1, 0, 0.0, false, true,
         0x2718ee45e4c5e0dfULL},
        {"real-depth2", 12, 2, true, 2, 0, 0.0, false, true,
         0x86e5e48dba505a86ULL},
    };
    return cases;
}

TEST(SolveTree, SparsifyKeepOfOneOrMoreIsOff)
{
    // A keep of 1 or more keeps every edge: the tree is the keep-0 tree,
    // however large the fraction.
    const auto model = ba_model(14, 3, 3);
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    const auto off = whole_tree_digest(model, config);
    for (const double keep : {1.0, 1.5, 1e300}) {
        config.sparsify_keep = keep;
        EXPECT_EQ(whole_tree_digest(model, config), off) << keep;
    }
    // A non-finite keep is a config error, whether it would prune or not.
    for (const double keep : {std::nan(""),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
        config.sparsify_keep = keep;
        EXPECT_THROW(build(model, config), fq::Error) << keep;
    }
}

TEST(SolveTree, WholeTreeDigestIsPinned)
{
    for (const auto& c : pin_cases()) {
        const auto digest = whole_tree_digest(pin_model(c), pin_config(c));
        EXPECT_EQ(digest, c.digest)
            << c.name << ": 0x" << std::hex << digest;
    }
}

} // namespace
