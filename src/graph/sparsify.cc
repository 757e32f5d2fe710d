#include "graph/sparsify.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"

namespace fq::graph {

namespace {

/** Union-find over vertex indices (path halving + union by size). */
class DisjointSets
{
  public:
    explicit DisjointSets(int n)
        : parent_(static_cast<std::size_t>(n)),
          size_(static_cast<std::size_t>(n), 1)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    int
    find(int x)
    {
        while (parent_[static_cast<std::size_t>(x)] != x) {
            parent_[static_cast<std::size_t>(x)] =
                parent_[static_cast<std::size_t>(
                    parent_[static_cast<std::size_t>(x)])];
            x = parent_[static_cast<std::size_t>(x)];
        }
        return x;
    }

    bool
    unite(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return false;
        if (size_[static_cast<std::size_t>(a)] <
            size_[static_cast<std::size_t>(b)])
            std::swap(a, b);
        parent_[static_cast<std::size_t>(b)] = a;
        size_[static_cast<std::size_t>(a)] +=
            size_[static_cast<std::size_t>(b)];
        return true;
    }

  private:
    std::vector<int> parent_;
    std::vector<std::size_t> size_;
};

void
check_edges(int num_nodes, const std::vector<EdgeRef>& edges)
{
    FQ_REQUIRE(num_nodes >= 0, "negative vertex count");
    for (const auto& e : edges)
        FQ_REQUIRE(e.u >= 0 && e.u < num_nodes && e.v >= 0 &&
                       e.v < num_nodes && e.u != e.v,
                   "edge endpoint out of range");
}

/** Seed-derived rank of one edge: a pure function of (seed, endpoints),
 *  independent of the edge's position in the input list, so permuting the
 *  list cannot change which edges survive. */
std::uint64_t
edge_rank(std::uint64_t seed, const EdgeRef& e)
{
    const auto lo = static_cast<std::uint64_t>(std::min(e.u, e.v));
    const auto hi = static_cast<std::uint64_t>(std::max(e.u, e.v));
    return combine_seeds(seed, (hi << 32) | lo);
}

} // namespace

SparsifyPlan
sparsify_edges(int num_nodes, const std::vector<EdgeRef>& edges,
               double keep_fraction, std::uint64_t seed)
{
    check_edges(num_nodes, edges);
    FQ_REQUIRE(keep_fraction >= 0.0, "keep fraction must be non-negative");

    SparsifyPlan plan;
    plan.keep.assign(edges.size(), 0);

    // Process every edge in seed-hash rank order (endpoints as the
    // tie-break, index last for exact duplicates): the ENTIRE selection —
    // forest included — is then a pure function of (edge set, fraction,
    // seed), so permuting the input list cannot change which edges
    // survive, only where the keep bits land.
    std::vector<std::size_t> order(edges.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         const auto ra = edge_rank(seed, edges[a]);
                         const auto rb = edge_rank(seed, edges[b]);
                         if (ra != rb)
                             return ra < rb;
                         const auto ka = std::minmax(edges[a].u, edges[a].v);
                         const auto kb = std::minmax(edges[b].u, edges[b].v);
                         return ka < kb;
                     });

    // A fraction of 1 or more keeps everything; clamp before the int
    // cast, which a huge fraction would overflow.
    const auto target = std::max(
        spanning_forest_size(num_nodes, edges),
        static_cast<int>(std::ceil(std::min(keep_fraction, 1.0) *
                                   static_cast<double>(edges.size()))));

    // The spanning forest is mandatory: pruning a bridge would disconnect
    // a component and the proxy's optimizer landscape would lose whole
    // blocks of correlations, not just edge terms. Pass 1 marks the
    // forest (edges joining components, in rank order); pass 2 fills the
    // remaining quota with the best-ranked extras — so the kept count is
    // exactly max(forest, target), never an overshoot.
    DisjointSets sets(num_nodes);
    for (std::size_t k : order) {
        if (sets.unite(edges[k].u, edges[k].v)) {
            plan.keep[k] = 1;
            ++plan.forest_edges;
        }
    }
    int kept = plan.forest_edges;
    for (std::size_t k : order) {
        if (plan.keep[k])
            continue;
        if (kept < target) {
            plan.keep[k] = 1;
            ++kept;
        } else {
            ++plan.pruned;
            plan.pruned_weight += std::abs(edges[k].weight);
        }
    }
    plan.kept = kept;
    return plan;
}

SparsifyPlan
sparsify_edges(const Graph& g, double keep_fraction, std::uint64_t seed)
{
    std::vector<EdgeRef> edges;
    edges.reserve(g.edges().size());
    for (const auto& e : g.edges())
        edges.push_back({e.u, e.v, e.weight});
    return sparsify_edges(g.num_nodes(), edges, keep_fraction, seed);
}

int
spanning_forest_size(int num_nodes, const std::vector<EdgeRef>& edges)
{
    check_edges(num_nodes, edges);
    DisjointSets sets(num_nodes);
    int forest = 0;
    for (const auto& e : edges)
        if (sets.unite(e.u, e.v))
            ++forest;
    return forest;
}

int
num_components(int num_nodes, const std::vector<EdgeRef>& edges,
               const std::vector<char>& keep)
{
    check_edges(num_nodes, edges);
    FQ_REQUIRE(keep.empty() || keep.size() == edges.size(),
               "keep mask size does not match the edge list");
    DisjointSets sets(num_nodes);
    int components = num_nodes;
    for (std::size_t k = 0; k < edges.size(); ++k)
        if ((keep.empty() || keep[k]) &&
            sets.unite(edges[k].u, edges[k].v))
            --components;
    return components;
}

} // namespace fq::graph
