/**
 * @file
 * Reduction-vocabulary tests: the kind-metadata table and expander
 * registry contracts (every non-Leaf kind has an expander with working
 * scoring and lift hooks — the suite that fails when a new reduction is
 * registered half-wired), the deterministic edge sparsifier, and the
 * Sparsify node kind end to end: proxy structure, plan-time determinism,
 * sparsify-off byte identity and thread/service bit-identity.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "device/catalog.h"
#include "engine/checkpoint.h"
#include "engine/engine.h"
#include "engine/expander.h"
#include "engine/scheduler.h"
#include "engine/solve_service.h"
#include "engine/solve_tree.h"
#include "engine/template_cache.h"
#include "graph/generators.h"
#include "graph/sparsify.h"
#include "ising/ising_model.h"
#include "solve_test_util.h"

namespace {

using namespace fq;
using namespace fq::engine;
using fq::test::ba_model;
using fq::test::expect_solves_identical;

SolveTree
build(const ising::IsingModel& model,
      const frozenqubits::DriverConfig& config)
{
    const auto dev = device::make_device("ibm-montreal");
    TemplateCache cache;
    Rng rng(config.seed);
    return build_solve_tree(model, dev, config, cache, rng);
}

frozenqubits::DriverConfig
sparsify_config(double keep)
{
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.sparsify_keep = keep;
    config.seed = 11;
    return config;
}

TEST(KindMetadata, TableIsCompleteAndUnique)
{
    const auto& table = node_kind_table();
    ASSERT_EQ(table.size(), kNumNodeKinds);

    std::set<std::string> names, glyphs, diag_keys;
    std::set<int> tags;
    std::set<NodeKind> kinds;
    for (const auto& info : table) {
        EXPECT_TRUE(kinds.insert(info.kind).second);
        EXPECT_TRUE(names.insert(info.name).second);
        EXPECT_TRUE(glyphs.insert(info.glyph).second);
        EXPECT_TRUE(diag_keys.insert(info.diagnostics_key).second);
        EXPECT_TRUE(tags.insert(info.frame_tag).second);
        EXPECT_NE(info.frame_tag, kNoKindTag);
        EXPECT_FALSE(std::string(info.name).empty());
        EXPECT_FALSE(std::string(info.glyph).empty());
        EXPECT_FALSE(std::string(info.diagnostics_key).empty());
        // Lookup round trips.
        EXPECT_EQ(node_kind_info(info.kind).frame_tag, info.frame_tag);
        ASSERT_NE(node_kind_info_by_tag(info.frame_tag), nullptr);
        EXPECT_EQ(node_kind_info_by_tag(info.frame_tag)->kind, info.kind);
        EXPECT_LT(node_kind_index(info.kind), kNumNodeKinds);
    }
    // Unknown tags resolve to null, never to a wrong row.
    EXPECT_EQ(node_kind_info_by_tag(kNoKindTag), nullptr);
    EXPECT_EQ(node_kind_info_by_tag(0x7E), nullptr);
    // The printable name still routes through the table.
    EXPECT_STREQ(node_kind_name(NodeKind::Sparsify), "sparsify");
}

TEST(ExpanderRegistry, EveryNonLeafKindIsFullyWired)
{
    const auto& registry = ExpanderRegistry::instance();
    // Leaves are made, not expanded.
    EXPECT_EQ(registry.find(NodeKind::Leaf), nullptr);

    // A representative reduced node: the hooks must answer for it.
    SolveNode node;
    node.cut_edges = 3;
    node.cut_weight = 2.0;

    std::size_t wired = 0;
    for (const auto& info : node_kind_table()) {
        if (info.kind == NodeKind::Leaf)
            continue;
        // Registry completeness: a metadata row without an expander (or
        // one whose identity disagrees) is a half-registered reduction.
        const auto* expander = registry.find(info.kind);
        ASSERT_NE(expander, nullptr)
            << "node kind '" << info.name << "' has no expander";
        EXPECT_EQ(expander->info().kind, info.kind);
        // Scoring hook: finite, non-negative pessimism.
        const double penalty = expander->score_penalty(node);
        EXPECT_TRUE(std::isfinite(penalty)) << info.name;
        EXPECT_GE(penalty, 0.0) << info.name;
        // Lift hook: only reductions that lose couplings from the lifted
        // assignment may demand decode repair.
        if (info.kind == NodeKind::Partition)
            EXPECT_TRUE(expander->lift_requires_repair());
        else
            EXPECT_FALSE(expander->lift_requires_repair());
        ++wired;
    }
    EXPECT_EQ(wired, kNumNodeKinds - 1);
    // Consultation order is policy: every registered expander appears,
    // and recursive reductions are consulted before terminal wrappers.
    EXPECT_EQ(registry.all().size(), wired);
    EXPECT_TRUE(registry.all().back()->info().kind == NodeKind::Sparsify);
}

TEST(SparsifyEdges, KeepsSpanningStructureDeterministically)
{
    Rng rng(5);
    auto g = graph::barabasi_albert(24, 3, rng);
    graph::assign_random_pm1_weights(g, rng);
    std::vector<graph::EdgeRef> edges;
    for (const auto& e : g.edges())
        edges.push_back({e.u, e.v, e.weight});

    const auto plan = graph::sparsify_edges(24, edges, 0.3, 99);
    EXPECT_EQ(plan.kept + plan.pruned, static_cast<int>(edges.size()));
    EXPECT_GT(plan.pruned, 0);
    EXPECT_GT(plan.pruned_weight, 0.0);
    EXPECT_GE(plan.kept, plan.forest_edges);
    EXPECT_EQ(plan.forest_edges, graph::spanning_forest_size(24, edges));
    // Connectivity is preserved: the kept subgraph has exactly the
    // components of the full graph.
    EXPECT_EQ(graph::num_components(24, edges, plan.keep),
              graph::num_components(24, edges));

    // Same inputs, same proxy — bit for bit.
    const auto again = graph::sparsify_edges(24, edges, 0.3, 99);
    EXPECT_EQ(plan.keep, again.keep);

    // Position independence: shuffling the edge list never changes WHICH
    // edges survive (ranks hash endpoints, not positions), so plans are
    // stable under any upstream reordering.
    auto shuffled = edges;
    std::reverse(shuffled.begin(), shuffled.end());
    const auto reversed = graph::sparsify_edges(24, shuffled, 0.3, 99);
    std::set<std::pair<int, int>> kept_a, kept_b;
    for (std::size_t k = 0; k < edges.size(); ++k)
        if (plan.keep[k])
            kept_a.insert({std::min(edges[k].u, edges[k].v),
                           std::max(edges[k].u, edges[k].v)});
    for (std::size_t k = 0; k < shuffled.size(); ++k)
        if (reversed.keep[k])
            kept_b.insert({std::min(shuffled[k].u, shuffled[k].v),
                           std::max(shuffled[k].u, shuffled[k].v)});
    EXPECT_EQ(kept_a, kept_b);
}

TEST(SparsifyTree, WrapsLeavesWithConnectedProxies)
{
    const auto model = ba_model(16, 3, 7);
    const auto tree = build(model, sparsify_config(0.5));

    EXPECT_EQ(tree.nodes.front().kind, NodeKind::Freeze);
    EXPECT_FALSE(tree.flat()); // sparsify interposes a level
    ASSERT_FALSE(tree.leaves.empty());
    int sparsified = 0;
    for (const auto& leaf : tree.leaves) {
        ASSERT_EQ(leaf_arm_kind(tree, leaf.leaf_id), NodeKind::Sparsify);
        const auto& node =
            tree.nodes[static_cast<std::size_t>(leaf.node)];
        const auto& arm =
            tree.nodes[static_cast<std::size_t>(node.parent)];
        EXPECT_EQ(arm.kind, NodeKind::Sparsify);
        EXPECT_GT(arm.cut_edges, 0);
        EXPECT_GT(arm.cut_weight, 0.0);
        // The proxy drives ONLY the optimizer loop: fewer couplings than
        // the full leaf model, same spins, preserved connectivity.
        ASSERT_NE(leaf.proxy, nullptr);
        EXPECT_EQ(leaf.proxy->num_spins(), node.sub.model.num_spins());
        EXPECT_LT(leaf.proxy->num_quadratic_terms(),
                  node.sub.model.num_quadratic_terms());
        std::vector<graph::EdgeRef> full, kept;
        for (const auto& term : node.sub.model.quadratic_terms())
            full.push_back({term.i, term.j, term.coefficient});
        for (const auto& term : leaf.proxy->quadratic_terms())
            kept.push_back({term.i, term.j, term.coefficient});
        EXPECT_EQ(graph::num_components(leaf.proxy->num_spins(), kept),
                  graph::num_components(node.sub.model.num_spins(), full));
        // Sparsify loses no decode information (sampling runs the full
        // model), so its leaves never need greedy repair and mirrors
        // stay valid.
        EXPECT_FALSE(leaf.needs_repair);
        EXPECT_EQ(leaf.mirror_nodes.size(), 1u);
        ++sparsified;
    }
    EXPECT_EQ(sparsified, tree.num_executable_leaves());

    // Proxies are fixed at plan time: rebuilding the tree reproduces
    // them term for term (the plan fingerprint covers them).
    const auto again = build(model, sparsify_config(0.5));
    EXPECT_EQ(plan_fingerprint(tree), plan_fingerprint(again));
    for (std::size_t k = 0; k < tree.leaves.size(); ++k) {
        const auto& a = *tree.leaves[k].proxy;
        const auto& b = *again.leaves[k].proxy;
        ASSERT_EQ(a.num_quadratic_terms(), b.num_quadratic_terms());
        for (int t = 0; t < a.num_quadratic_terms(); ++t) {
            EXPECT_EQ(a.quadratic_terms()[t].i, b.quadratic_terms()[t].i);
            EXPECT_EQ(a.quadratic_terms()[t].j, b.quadratic_terms()[t].j);
        }
    }
}

TEST(SparsifyTree, DisabledLeavesTreeByteIdentical)
{
    const auto model = ba_model(16, 3, 7);
    // keep = 0 (the default: no --sparsify) and keep >= 1 (nothing to
    // prune) must both leave the vocabulary exactly as before the
    // Sparsify expander existed.
    for (double keep : {0.0, 1.0}) {
        auto config = sparsify_config(keep);
        const auto tree = build(model, config);
        EXPECT_TRUE(tree.flat());
        for (const auto& node : tree.nodes)
            EXPECT_NE(node.kind, NodeKind::Sparsify);
        for (const auto& leaf : tree.leaves) {
            EXPECT_EQ(leaf.proxy, nullptr);
            EXPECT_EQ(leaf_arm_kind(tree, leaf.leaf_id),
                      NodeKind::Freeze);
        }
        frozenqubits::DriverConfig off;
        off.num_freeze = 2;
        off.seed = 11;
        EXPECT_EQ(plan_fingerprint(tree), plan_fingerprint(build(model, off)));
        // And the config fingerprint matches the pre-sparsify hash only
        // for the genuinely-off spelling (keep >= 1 plans the same tree
        // but is a distinct config).
        if (keep == 0.0)
            EXPECT_EQ(config_fingerprint(config), config_fingerprint(off));
    }
}

TEST(SparsifyTree, PenaltyChargesPrunedWeightIntoScores)
{
    const auto model = ba_model(16, 3, 7);
    const auto tree = build(model, sparsify_config(0.5));
    for (const auto& leaf : tree.leaves) {
        const auto& arm = tree.nodes[static_cast<std::size_t>(
            tree.nodes[static_cast<std::size_t>(leaf.node)].parent)];
        EXPECT_DOUBLE_EQ(lineage_score_penalty(tree, leaf.leaf_id),
                         0.25 * arm.cut_weight);
    }
}

TEST(SparsifySolve, BitIdenticalAcrossThreadsAndService)
{
    const auto model = ba_model(16, 3, 7);
    const auto dev = device::make_device("ibm-montreal");
    const auto config = sparsify_config(0.5);
    const int shots = 512;
    const std::uint64_t seed = 11;

    ExecutionEngine serial(1);
    ExecutionEngine parallel(4);
    const auto a = serial.solve(model, dev, config, shots, seed);
    const auto b = parallel.solve(model, dev, config, shots, seed);
    expect_solves_identical(a, b);
    // The executed leaves all ran under the sparsify arm and the
    // per-kind diagnostics say so.
    const auto& diag = parallel.last_diagnostics();
    const auto spr = node_kind_index(NodeKind::Sparsify);
    EXPECT_EQ(diag.kind_leaves_executed[spr], a.leaves_executed);
    EXPECT_GT(diag.kind_budget_units[spr], 0);

    // Solo vs service: a co-tenant never changes sparsified counts.
    ExecutionEngine shared(4);
    SolveService service(shared);
    auto ticket = service.submit(model, dev, config, shots, seed);
    auto co = service.submit(ba_model(12, 2, 3), dev, sparsify_config(0.0),
                             shots, 5);
    expect_solves_identical(a, ticket.get());
    co.get();
    const auto tenant = service.diagnostics(ticket.id());
    EXPECT_EQ(tenant.kind_leaves_executed[spr], a.leaves_executed);
}

} // namespace
