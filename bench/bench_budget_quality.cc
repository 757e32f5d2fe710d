/**
 * @file
 * Budgeted-execution quality study: solution quality vs circuits executed
 * for the SolveTree engine's three modes on the p=1 BA benchmarks —
 *
 *   flat      — the paper's pipeline (one freeze, all 2^{m-1} siblings);
 *   partial   — same tree, best-first execution cut at --max-circuits
 *               (Skipper-style partial sub-problem execution);
 *   recursive — depth-2 recursive freezing under the same budgets.
 *
 * Quality is the decoded best cost normalized by a strong simulated-
 * annealing reference (ratio 1.0 = matched the classical incumbent).
 * Emits BENCH_budget_quality.json for the CI artifact trail, then runs a
 * google-benchmark timing of one budgeted solve.
 */
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ising/sa_solver.h"

namespace {

using namespace fq;

constexpr int kSpins = 24;
constexpr int kDegree = 3; // BA3: dense enough that the budget curve separates
constexpr int kShots = 4096;
const std::uint64_t kSeeds[] = {11, 12, 13};

struct ModeResult
{
    std::string mode;
    long long budget = 0; ///< 0 = unlimited
    int circuits = 0;     ///< mean leaves executed
    double quality = 0.0;   ///< mean quantum decode / sa_reference
    double best_cost = 0.0; ///< mean quantum decode cost
    double incumbent = 0.0; ///< mean overall incumbent (presolve included)
    double ref_cost = 0.0;
};

frozenqubits::DriverConfig
mode_config(const std::string& mode, long long budget)
{
    frozenqubits::DriverConfig config;
    if (mode == "recursive") {
        config.num_freeze = 2;
        config.max_depth = 2; // 16 leaves of width n - 4
    } else {
        config.num_freeze = 3; // 4 canonical leaves of width n - 3
    }
    config.max_circuits = budget;
    return config;
}

ModeResult
run_mode(const std::string& mode, long long budget,
         const device::Device& dev)
{
    ModeResult result;
    result.mode = mode;
    result.budget = budget;
    const auto config = mode_config(mode, budget);

    for (std::uint64_t seed : kSeeds) {
        const auto model = bench::ba_model(kSpins, kDegree, seed);
        ising::SaConfig strong;
        strong.num_restarts = 8;
        strong.sweeps_per_restart = 1000;
        Rng sa_rng(combine_seeds(seed, hash_seed("budget-ref")));
        const auto ref = ising::solve_annealing(model, strong, sa_rng);

        const auto solved =
            bench::shared_engine().solve(model, dev, config, kShots, seed);
        result.circuits += solved.leaves_executed;
        // Mode comparison uses the QUANTUM decode; the overall incumbent
        // (classical-presolve floored) is recorded alongside.
        result.best_cost += solved.best_quantum_cost;
        result.incumbent += solved.best_cost;
        result.ref_cost += ref.best_cost;
        result.quality += solved.best_quantum_cost / ref.best_cost;
    }
    const double n = static_cast<double>(std::size(kSeeds));
    result.circuits = static_cast<int>(result.circuits / std::size(kSeeds));
    result.best_cost /= n;
    result.incumbent /= n;
    result.ref_cost /= n;
    result.quality /= n;
    return result;
}

void
print_figure()
{
    bench::banner("budget quality",
                  "solution quality vs circuits executed: flat vs partial "
                  "vs recursive freezing under a circuit budget");
    const auto dev = device::make_device("ibm-montreal");

    std::vector<ModeResult> results;
    results.push_back(run_mode("flat", 0, dev));
    for (long long budget : {1, 2, 3})
        results.push_back(run_mode("partial", budget, dev));
    for (long long budget : {2, 4, 8, 16})
        results.push_back(run_mode("recursive", budget, dev));

    Table t("quality vs circuits (n=" + Table::num(kSpins) +
            " BA3, mean over " + Table::num(std::size(kSeeds)) +
            " seeds; quality = best cost / SA reference)");
    t.set_header({"mode", "budget", "circuits", "best cost", "SA ref",
                  "quality"});
    for (const auto& r : results)
        t.add_row({r.mode, r.budget == 0 ? "all" : Table::num(r.budget),
                   Table::num(r.circuits), Table::num(r.best_cost, 2),
                   Table::num(r.ref_cost, 2), Table::num(r.quality, 4)});
    bench::emit(t);

    // The acceptance comparison: recursive depth-2 at budget B vs flat
    // partial execution at the same budget.
    const auto find = [&](const std::string& mode, long long budget) {
        for (const auto& r : results)
            if (r.mode == mode && r.budget == budget)
                return r;
        return ModeResult{};
    };
    const auto flat2 = find("partial", 2);
    const auto rec2 = find("recursive", 2);
    const auto flat4 = find("flat", 0); // 4 circuits executed
    const auto rec4 = find("recursive", 4);
    std::cout << "recursive vs flat at 2 circuits: "
              << Table::num(rec2.quality, 4) << " vs "
              << Table::num(flat2.quality, 4)
              << "\nrecursive vs flat at 4 circuits: "
              << Table::num(rec4.quality, 4) << " vs "
              << Table::num(flat4.quality, 4) << "\n";

    std::ofstream json("BENCH_budget_quality.json");
    json << "{\n"
         << "  \"benchmark\": \"budget_quality\",\n"
         << "  \"workload\": {\"graph\": \"ba3\", \"n\": " << kSpins
         << ", \"p\": 1, \"shots\": " << kShots
         << ", \"seeds\": " << std::size(kSeeds) << "},\n"
         << "  \"series\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        json << "    {\"mode\": \"" << r.mode << "\", \"budget\": "
             << r.budget << ", \"circuits\": " << r.circuits
             << ", \"quantum_cost\": " << r.best_cost
             << ", \"incumbent_cost\": " << r.incumbent
             << ", \"ref_cost\": " << r.ref_cost
             << ", \"quality\": " << r.quality << "}"
             << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"recursive_vs_flat_quality_at_2_circuits\": ["
         << rec2.quality << ", " << flat2.quality << "],\n"
         << "  \"recursive_vs_flat_quality_at_4_circuits\": ["
         << rec4.quality << ", " << flat4.quality << "],\n"
         << "  \"recursive_matches_flat_at_equal_circuits\": "
         << (rec4.quality >= flat4.quality - 1e-9 ? "true" : "false")
         << "\n}\n";
    std::cout << "wrote BENCH_budget_quality.json\n";
}

void
BM_BudgetedSolve(benchmark::State& state)
{
    const auto model = bench::ba_model(kSpins, kDegree, kSeeds[0]);
    const auto dev = device::make_device("ibm-montreal");
    auto config = mode_config("partial", state.range(0));
    for (auto _ : state) {
        auto solved = bench::shared_engine().solve(model, dev, config,
                                                   kShots, kSeeds[0]);
        benchmark::DoNotOptimize(solved.best_cost);
    }
    state.counters["circuits"] =
        static_cast<double>(state.range(0));
}
BENCHMARK(BM_BudgetedSolve)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

FQ_BENCH_MAIN(print_figure)
