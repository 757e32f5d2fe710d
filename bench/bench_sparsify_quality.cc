/**
 * @file
 * Sparsify (Red-QAOA) quality study: approximation-ratio gap and
 * optimizer-loop circuit cost of the Sparsify reduction arm against the
 * Freeze-only tree and the full-graph baseline, on the two workloads
 * where the trade-off bites differently —
 *
 *   ba3      — n=20 Barabasi-Albert degree 3 (the paper's default class;
 *              sparse, so the spanning forest dominates the proxy);
 *   sk-dense — n=20 fully-connected SK (dense, so pruning buys the most).
 *
 * The optimizer loop runs every angle-grid point against the leaf's
 * circuit, so its cost scales with the number of quadratic terms in the
 * model the loop simulates: the sparsified proxy for a Sparsify arm, the
 * frozen sub-model otherwise. Sampling and decode always run on the full
 * sub-model, which is why quality should move by little while the loop
 * cost halves. Emits BENCH_sparsify_quality.json with the acceptance
 * booleans (ARG within 5% of Freeze-only at <= half the loop cost on
 * BA3), then runs a google-benchmark timing of one sparsified solve.
 */
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/scheduler.h"
#include "engine/solve_tree.h"
#include "frozenqubits/budget.h"
#include "ising/sa_solver.h"

namespace {

using namespace fq;

constexpr int kSpins = 20;
constexpr int kDegree = 3; // BA3 leg
constexpr int kShots = 4096;
constexpr double kKeep = 0.4; // proxy keep fraction for the Sparsify arm
const std::uint64_t kSeeds[] = {11, 12, 13};

struct ArmResult
{
    std::string workload;
    std::string arm;
    int circuits = 0;       ///< mean leaves executed
    double quality = 0.0;   ///< mean quantum decode / SA reference (ARG)
    double best_cost = 0.0; ///< mean quantum decode cost
    double ref_cost = 0.0;
    double loop_cost = 0.0; ///< mean optimizer-loop cost units (grid^2 x terms)
};

ising::IsingModel
workload_model(const std::string& workload, std::uint64_t seed)
{
    if (workload == "sk-dense")
        return bench::sk_model(kSpins, seed);
    return bench::ba_model(kSpins, kDegree, seed);
}

frozenqubits::DriverConfig
arm_config(bool sparsify)
{
    frozenqubits::DriverConfig config;
    // One freeze, not the flat default of three: the proxy must keep a
    // spanning forest, so the sub-model needs enough surplus edges over
    // n-1 for pruning to reach the half-cost target on the sparse BA3
    // leg. Each extra freeze strips a hotspot's edges and shrinks that
    // surplus.
    config.num_freeze = 1; // 1 canonical leaf of width n - 1
    if (sparsify)
        config.sparsify_keep = kKeep;
    return config;
}

/**
 * Exact optimizer-loop cost of the tree the engine will execute: rebuild
 * the plan (plan-time decisions only, so this reproduces the engine's
 * tree bit-for-bit) and charge every scheduled leaf for the model its
 * optimizer loop actually simulates — the Sparsify proxy when the leaf
 * carries one, the frozen sub-model otherwise.
 */
long long
tree_loop_cost(const ising::IsingModel& model, const device::Device& dev,
               const frozenqubits::DriverConfig& config)
{
    engine::TemplateCache cache;
    Rng rng(config.seed);
    const auto tree =
        engine::build_solve_tree(model, dev, config, cache, rng);
    const auto schedule = engine::make_schedule(model, tree, config);
    long long total = 0;
    for (int leaf_id : schedule.executed) {
        const auto& leaf =
            tree.leaves[static_cast<std::size_t>(leaf_id)];
        const auto& node =
            tree.nodes[static_cast<std::size_t>(leaf.node)];
        const long long terms =
            leaf.proxy ? leaf.proxy->num_quadratic_terms()
                       : node.sub.model.num_quadratic_terms();
        total += frozenqubits::optimizer_loop_cost(
            terms, config.p1_grid_resolution);
    }
    return total;
}

ArmResult
run_arm(const std::string& workload, const std::string& arm,
        const device::Device& dev)
{
    ArmResult result;
    result.workload = workload;
    result.arm = arm;
    const auto config = arm_config(arm == "sparsify");

    for (std::uint64_t seed : kSeeds) {
        const auto model = workload_model(workload, seed);
        ising::SaConfig strong;
        strong.num_restarts = 8;
        strong.sweeps_per_restart = 1000;
        Rng sa_rng(combine_seeds(seed, hash_seed("budget-ref")));
        const auto ref = ising::solve_annealing(model, strong, sa_rng);

        const auto solved =
            bench::shared_engine().solve(model, dev, config, kShots, seed);
        result.circuits += solved.leaves_executed;
        result.best_cost += solved.best_quantum_cost;
        result.ref_cost += ref.best_cost;
        result.quality += solved.best_quantum_cost / ref.best_cost;
        result.loop_cost += static_cast<double>(
            tree_loop_cost(model, dev, config));
    }
    const double n = static_cast<double>(std::size(kSeeds));
    result.circuits = static_cast<int>(result.circuits / std::size(kSeeds));
    result.best_cost /= n;
    result.ref_cost /= n;
    result.quality /= n;
    result.loop_cost /= n;
    return result;
}

/** Full-graph baseline: one circuit over the whole model, no reduction.
 *  The optimizer loop would simulate every quadratic term at once — the
 *  cost ceiling both arms are buying down. */
double
full_graph_loop_cost(const std::string& workload)
{
    double total = 0.0;
    const frozenqubits::DriverConfig config;
    for (std::uint64_t seed : kSeeds)
        total += static_cast<double>(frozenqubits::optimizer_loop_cost(
            workload_model(workload, seed).num_quadratic_terms(),
            config.p1_grid_resolution));
    return total / static_cast<double>(std::size(kSeeds));
}

void
print_figure()
{
    bench::banner("sparsify quality",
                  "Sparsify (Red-QAOA) proxy optimization: ARG and "
                  "optimizer-loop circuit cost vs Freeze-only and the "
                  "full-graph baseline");
    const auto dev = device::make_device("ibm-montreal");

    std::vector<ArmResult> results;
    for (const std::string workload : {"ba3", "sk-dense"}) {
        results.push_back(run_arm(workload, "freeze", dev));
        results.push_back(run_arm(workload, "sparsify", dev));
    }

    Table t("ARG and optimizer-loop cost (n=" + Table::num(kSpins) +
            ", keep=" + Table::num(kKeep, 2) + ", mean over " +
            Table::num(std::size(kSeeds)) +
            " seeds; quality = best cost / SA reference)");
    t.set_header({"workload", "arm", "circuits", "best cost", "SA ref",
                  "quality", "loop cost"});
    for (const auto& r : results)
        t.add_row({r.workload, r.arm, Table::num(r.circuits),
                   Table::num(r.best_cost, 2), Table::num(r.ref_cost, 2),
                   Table::num(r.quality, 4),
                   Table::num(static_cast<long long>(r.loop_cost))});
    for (const std::string workload : {"ba3", "sk-dense"})
        t.add_row({workload, "full-graph", "1", "-", "-", "-",
                   Table::num(static_cast<long long>(
                       full_graph_loop_cost(workload)))});
    bench::emit(t);

    const auto find = [&](const std::string& workload,
                          const std::string& arm) {
        for (const auto& r : results)
            if (r.workload == workload && r.arm == arm)
                return r;
        return ArmResult{};
    };
    const auto frz = find("ba3", "freeze");
    const auto spr = find("ba3", "sparsify");
    const bool arg_ok =
        std::abs(spr.quality - frz.quality) <= 0.05 * std::abs(frz.quality);
    const bool cost_ok = 2.0 * spr.loop_cost <= frz.loop_cost;
    std::cout << "ba3 sparsify vs freeze: quality "
              << Table::num(spr.quality, 4) << " vs "
              << Table::num(frz.quality, 4) << " (within 5%: "
              << (arg_ok ? "yes" : "NO") << "), loop cost "
              << Table::num(static_cast<long long>(spr.loop_cost))
              << " vs "
              << Table::num(static_cast<long long>(frz.loop_cost))
              << " (<= half: "
              << (cost_ok ? "yes" : "NO") << ")\n";

    std::ofstream json("BENCH_sparsify_quality.json");
    json << "{\n"
         << "  \"benchmark\": \"sparsify_quality\",\n"
         << "  \"workload\": {\"n\": " << kSpins << ", \"p\": 1, "
         << "\"shots\": " << kShots << ", \"keep\": " << kKeep
         << ", \"seeds\": " << std::size(kSeeds) << "},\n"
         << "  \"series\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        json << "    {\"workload\": \"" << r.workload << "\", \"arm\": \""
             << r.arm << "\", \"circuits\": " << r.circuits
             << ", \"quantum_cost\": " << r.best_cost
             << ", \"ref_cost\": " << r.ref_cost
             << ", \"quality\": " << r.quality
             << ", \"optimizer_loop_cost\": " << r.loop_cost << "},\n";
    }
    json << "    {\"workload\": \"ba3\", \"arm\": \"full-graph\", "
         << "\"optimizer_loop_cost\": " << full_graph_loop_cost("ba3")
         << "},\n"
         << "    {\"workload\": \"sk-dense\", \"arm\": \"full-graph\", "
         << "\"optimizer_loop_cost\": "
         << full_graph_loop_cost("sk-dense") << "}\n"
         << "  ],\n"
         << "  \"sparsify_within_5pct_arg_of_freeze_ba3\": "
         << (arg_ok ? "true" : "false") << ",\n"
         << "  \"sparsify_at_most_half_loop_cost_ba3\": "
         << (cost_ok ? "true" : "false") << "\n}\n";
    std::cout << "wrote BENCH_sparsify_quality.json\n";
}

void
BM_SparsifySolve(benchmark::State& state)
{
    const auto model = bench::ba_model(kSpins, kDegree, kSeeds[0]);
    const auto dev = device::make_device("ibm-montreal");
    auto config = arm_config(/*sparsify=*/state.range(0) != 0);
    for (auto _ : state) {
        auto solved = bench::shared_engine().solve(model, dev, config,
                                                   kShots, kSeeds[0]);
        benchmark::DoNotOptimize(solved.best_cost);
    }
    state.counters["sparsify"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SparsifySolve)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

FQ_BENCH_MAIN(print_figure)
