/**
 * @file
 * Multi-tenant serving study: K concurrent solve requests multiplexed over
 * ONE ExecutionEngine by the SolveService (shared executor waves, shared
 * template cache) versus the same K solves run serially on
 * the same engine. With a warm shared cache the comparison isolates the
 * wave-batching benefit: serial solves fork-join per request (pool
 * occupancy bounded by each request's own leaf count), while the service
 * fills waves with leaves from every tenant. Emits BENCH_multitenant.json
 * for the CI artifact trail, then runs google-benchmark timings of both
 * modes.
 *
 * Per-request results are bit-identical between the modes (the service's
 * determinism contract); only the wall clock may differ.
 */
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/solve_service.h"

namespace {

using namespace fq;

constexpr int kSpins = 20;
constexpr int kDegree = 3;   // BA3
constexpr int kTenants = 4;  // K concurrent solves
constexpr int kShots = 4096;
constexpr int kRepeats = 3;  // best-of wall clock per mode
constexpr std::uint64_t kSeedBase = 71;

using Clock = std::chrono::steady_clock;

double
ms_since(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

frozenqubits::DriverConfig
tenant_config()
{
    frozenqubits::DriverConfig config;
    config.num_freeze = 2; // 2 executable 18-qubit leaves per tenant
    return config;
}

std::vector<ising::IsingModel>
tenant_models()
{
    std::vector<ising::IsingModel> models;
    for (int k = 0; k < kTenants; ++k)
        models.push_back(bench::ba_model(kSpins, kDegree, kSeedBase + k));
    return models;
}

double
serial_wall_ms(engine::ExecutionEngine& eng,
               const std::vector<ising::IsingModel>& models,
               const device::Device& dev)
{
    const auto config = tenant_config();
    const auto start = Clock::now();
    for (std::size_t k = 0; k < models.size(); ++k) {
        auto solved =
            eng.solve(models[k], dev, config, kShots, kSeedBase + k);
        benchmark::DoNotOptimize(solved.best_cost);
    }
    return ms_since(start);
}

double
batched_wall_ms(engine::ExecutionEngine& eng,
                const std::vector<ising::IsingModel>& models,
                const device::Device& dev, double* pool_fill = nullptr,
                double* occupancy = nullptr)
{
    const auto config = tenant_config();
    const auto start = Clock::now();
    engine::SolveService service(eng);
    std::vector<engine::SolveService::Ticket> tickets;
    tickets.reserve(models.size());
    for (std::size_t k = 0; k < models.size(); ++k)
        tickets.push_back(
            service.submit(models[k], dev, config, kShots, kSeedBase + k));
    service.drain();
    const double wall = ms_since(start);
    if (pool_fill)
        *pool_fill = service.stats().mean_pool_fill;
    if (occupancy) {
        *occupancy = 0.0;
        for (const auto& ticket : tickets)
            *occupancy += service.diagnostics(ticket.id()).wave_occupancy /
                          static_cast<double>(tickets.size());
    }
    return wall;
}

void
print_figure()
{
    bench::banner("multitenant throughput",
                  "K concurrent solves batched into shared executor waves "
                  "vs run serially on the same engine (warm shared cache)");
    const auto dev = device::make_device("ibm-montreal");
    const auto models = tenant_models();
    auto& eng = bench::shared_engine();

    // Warm the shared caches (templates + fused programs) so both modes
    // measure execution, not first-touch compilation — and one throwaway
    // batched round so neither mode pays first-touch thread setup.
    (void)serial_wall_ms(eng, models, dev);
    (void)batched_wall_ms(eng, models, dev);

    double serial_best = 0.0, batched_best = 0.0;
    double pool_fill = 0.0, occupancy = 0.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
        const double serial = serial_wall_ms(eng, models, dev);
        double fill = 0.0, occ = 0.0;
        const double batched =
            batched_wall_ms(eng, models, dev, &fill, &occ);
        if (rep == 0 || serial < serial_best)
            serial_best = serial;
        if (rep == 0 || batched < batched_best) {
            batched_best = batched;
            pool_fill = fill;
            occupancy = occ;
        }
    }

    const double serial_tput = 1000.0 * kTenants / serial_best;
    const double batched_tput = 1000.0 * kTenants / batched_best;
    Table t("K=" + Table::num(kTenants) + " concurrent n=" +
            Table::num(kSpins) + " BA" + Table::num(kDegree) +
            " solves, " + Table::num(eng.num_threads()) +
            " threads (best of " + Table::num(kRepeats) + ")");
    t.set_header({"mode", "wall ms", "solves/s", "pool fill",
                  "tenant occupancy"});
    t.add_row({"serial", Table::num(serial_best, 1),
               Table::num(serial_tput, 2), "-", "-"});
    t.add_row({"batched", Table::num(batched_best, 1),
               Table::num(batched_tput, 2), Table::num(pool_fill, 2),
               Table::num(occupancy, 2)});
    bench::emit(t);
    std::cout << "batched vs serial speedup: "
              << Table::factor(serial_best / batched_best) << "\n";

    std::ofstream json("BENCH_multitenant.json");
    json << "{\n"
         << "  \"benchmark\": \"multitenant\",\n"
         << "  \"workload\": {\"graph\": \"ba" << kDegree
         << "\", \"n\": " << kSpins << ", \"tenants\": " << kTenants
         << ", \"shots\": " << kShots << ", \"freeze\": 2, \"threads\": "
         << eng.num_threads() << ", \"repeats\": " << kRepeats << "},\n"
         << "  \"serial_wall_ms\": " << serial_best << ",\n"
         << "  \"batched_wall_ms\": " << batched_best << ",\n"
         << "  \"serial_solves_per_s\": " << serial_tput << ",\n"
         << "  \"batched_solves_per_s\": " << batched_tput << ",\n"
         << "  \"speedup\": " << serial_best / batched_best << ",\n"
         << "  \"mean_pool_fill\": " << pool_fill << ",\n"
         << "  \"mean_tenant_occupancy\": " << occupancy << ",\n"
         << "  \"batched_ge_serial\": "
         << (batched_tput >= serial_tput ? "true" : "false") << "\n"
         << "}\n";
    std::cout << "wrote BENCH_multitenant.json\n";
}

void
BM_SerialSolves(benchmark::State& state)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto models = tenant_models();
    auto& eng = bench::shared_engine();
    for (auto _ : state)
        benchmark::DoNotOptimize(serial_wall_ms(eng, models, dev));
}
BENCHMARK(BM_SerialSolves)->Unit(benchmark::kMillisecond);

void
BM_BatchedService(benchmark::State& state)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto models = tenant_models();
    auto& eng = bench::shared_engine();
    for (auto _ : state)
        benchmark::DoNotOptimize(batched_wall_ms(eng, models, dev));
}
BENCHMARK(BM_BatchedService)->Unit(benchmark::kMillisecond);

} // namespace

FQ_BENCH_MAIN(print_figure)
