/**
 * @file
 * Adaptive re-ranking quality study: plan-time leaf ranking (the schedule
 * is fixed before any circuit runs) versus adaptive budget re-ranking
 * (between epochs the scheduler re-scores the un-dispatched tail against
 * the reducer incumbent, prunes stale dominated leaves and re-cuts the
 * remaining budget) — at EQUAL circuit budget on n=20 BA3 instances over a
 * depth-2 recursive tree.
 *
 * Quality is the best quantum decode normalized by a strong simulated-
 * annealing reference (1.0 = matched the classical incumbent) — the ARG
 * proxy the budget-quality bench established. Adaptive runs may execute
 * FEWER circuits than the budget when re-ranking proves the tail
 * dominated; that saving is reported alongside. Emits
 * BENCH_rerank_quality.json for the CI artifact trail, then runs a
 * google-benchmark timing of one adaptive solve.
 */
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ising/sa_solver.h"

namespace {

using namespace fq;

constexpr int kSpins = 20;
constexpr int kDegree = 3; // BA3 (the acceptance workload)
constexpr int kShots = 4096;
constexpr long long kRerankInterval = 1;
const std::uint64_t kSeeds[] = {11, 12, 13, 14};

struct ModeResult
{
    std::string mode;
    long long budget = 0;
    double circuits = 0.0;  ///< mean leaves actually executed
    double quality = 0.0;   ///< mean quantum decode / SA reference
    double best_cost = 0.0; ///< mean quantum decode cost
    double incumbent = 0.0; ///< mean overall incumbent (presolve included)
    double ref_cost = 0.0;
    double pruned = 0.0;    ///< mean stale leaves pruned mid-run
};

frozenqubits::DriverConfig
mode_config(bool adaptive, long long budget)
{
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.max_depth = 2; // 16 leaves of width n - 4
    config.max_circuits = budget;
    config.rerank_interval = adaptive ? kRerankInterval : 0;
    return config;
}

ModeResult
run_mode(bool adaptive, long long budget, const device::Device& dev)
{
    ModeResult result;
    result.mode = adaptive ? "adaptive" : "plan";
    result.budget = budget;
    const auto config = mode_config(adaptive, budget);

    for (std::uint64_t seed : kSeeds) {
        const auto model = bench::ba_model(kSpins, kDegree, seed);
        ising::SaConfig strong;
        strong.num_restarts = 8;
        strong.sweeps_per_restart = 1000;
        Rng sa_rng(combine_seeds(seed, hash_seed("rerank-ref")));
        const auto ref = ising::solve_annealing(model, strong, sa_rng);

        auto& eng = bench::shared_engine();
        const auto solved = eng.solve(model, dev, config, kShots, seed);
        result.circuits += solved.leaves_executed;
        result.best_cost += solved.best_quantum_cost;
        result.incumbent += solved.best_cost;
        result.ref_cost += ref.best_cost;
        result.quality += solved.best_quantum_cost / ref.best_cost;
        result.pruned += eng.last_diagnostics().rerank_pruned;
    }
    const double n = static_cast<double>(std::size(kSeeds));
    result.circuits /= n;
    result.best_cost /= n;
    result.incumbent /= n;
    result.ref_cost /= n;
    result.quality /= n;
    result.pruned /= n;
    return result;
}

void
print_figure()
{
    bench::banner("re-rank quality",
                  "adaptive budget re-ranking vs plan-time ranking at equal "
                  "circuit budget (depth-2 recursive tree)");
    const auto dev = device::make_device("ibm-montreal");

    const std::vector<long long> budgets = {2, 4, 8};
    std::vector<ModeResult> results;
    for (long long budget : budgets) {
        results.push_back(run_mode(false, budget, dev));
        results.push_back(run_mode(true, budget, dev));
    }

    Table t("quality vs budget (n=" + Table::num(kSpins) + " BA" +
            Table::num(kDegree) + ", mean over " +
            Table::num(std::size(kSeeds)) +
            " seeds; quality = quantum decode / SA reference)");
    t.set_header({"mode", "budget", "circuits", "quantum cost",
                  "incumbent", "SA ref", "quality", "pruned stale"});
    for (const auto& r : results)
        t.add_row({r.mode, Table::num(r.budget), Table::num(r.circuits, 2),
                   Table::num(r.best_cost, 2), Table::num(r.incumbent, 2),
                   Table::num(r.ref_cost, 2), Table::num(r.quality, 4),
                   Table::num(r.pruned, 2)});
    bench::emit(t);

    const auto find = [&](const std::string& mode, long long budget) {
        for (const auto& r : results)
            if (r.mode == mode && r.budget == budget)
                return r;
        return ModeResult{};
    };
    bool matches_or_beats = true;
    double plan_mean = 0.0, adaptive_mean = 0.0;
    for (long long budget : budgets) {
        const auto plan = find("plan", budget);
        const auto adaptive = find("adaptive", budget);
        plan_mean += plan.quality / static_cast<double>(budgets.size());
        adaptive_mean +=
            adaptive.quality / static_cast<double>(budgets.size());
        std::cout << "budget " << budget << ": adaptive "
                  << Table::num(adaptive.quality, 4) << " ("
                  << Table::num(adaptive.circuits, 2)
                  << " circuits) vs plan "
                  << Table::num(plan.quality, 4) << " ("
                  << Table::num(plan.circuits, 2) << " circuits)\n";
        matches_or_beats =
            matches_or_beats && adaptive.quality >= plan.quality - 1e-9;
    }

    std::ofstream json("BENCH_rerank_quality.json");
    json << "{\n"
         << "  \"benchmark\": \"rerank_quality\",\n"
         << "  \"workload\": {\"graph\": \"ba" << kDegree
         << "\", \"n\": " << kSpins << ", \"depth\": 2, \"shots\": "
         << kShots << ", \"rerank_interval\": " << kRerankInterval
         << ", \"seeds\": " << std::size(kSeeds) << "},\n"
         << "  \"series\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        json << "    {\"mode\": \"" << r.mode << "\", \"budget\": "
             << r.budget << ", \"circuits\": " << r.circuits
             << ", \"quantum_cost\": " << r.best_cost
             << ", \"incumbent_cost\": " << r.incumbent
             << ", \"ref_cost\": " << r.ref_cost
             << ", \"quality\": " << r.quality
             << ", \"rerank_pruned\": " << r.pruned << "}"
             << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"plan_mean_quality\": " << plan_mean << ",\n"
         << "  \"adaptive_mean_quality\": " << adaptive_mean << ",\n"
         << "  \"adaptive_matches_or_beats_plan\": "
         << (matches_or_beats ? "true" : "false") << "\n"
         << "}\n";
    std::cout << "wrote BENCH_rerank_quality.json\n";
}

void
BM_AdaptiveRerankSolve(benchmark::State& state)
{
    const auto model = bench::ba_model(kSpins, kDegree, kSeeds[0]);
    const auto dev = device::make_device("ibm-montreal");
    const auto config = mode_config(true, state.range(0));
    for (auto _ : state) {
        auto solved = bench::shared_engine().solve(model, dev, config,
                                                   kShots, kSeeds[0]);
        benchmark::DoNotOptimize(solved.best_cost);
    }
    state.counters["budget"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AdaptiveRerankSolve)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

FQ_BENCH_MAIN(print_figure)
