/**
 * @file
 * Simulator-kernel micro-benchmark: the fused QAOA fast path (diagonal
 * weight tables + cached energy tables + strided/paired kernels) against
 * the pre-fusion naive path (per-gate branchy O(2^n) passes + per-state
 * model re-evaluation), on the workload that dominates FrozenQubits
 * end-to-end time — the classical optimizer loop re-simulating one p=2,
 * n=20 BA-graph QAOA circuit shape at changing angles.
 *
 * The naive path is reproduced HERE verbatim (the pre-fusion library
 * loops) so the comparison stays honest as the library gets faster.
 *
 * Emits BENCH_sim_kernels.json (machine-readable: per-path ms/eval,
 * speedups, max amplitude deviation) so the perf trajectory is tracked
 * across PRs, then runs the registered google-benchmark timings.
 */
#include "bench_common.h"

#include <chrono>
#include <complex>
#include <fstream>

#include "optimizer/landscape.h"
#include "qaoa/multilayer.h"
#include "qaoa/qaoa_builder.h"
#include "sim/backend.h"
#include "sim/kernels.h"
#include "sim/qaoa_kernel.h"
#include "sim/simd.h"
#include "sim/statevector.h"

namespace {

using namespace fq;
using Amp = std::complex<double>;
using Clock = std::chrono::steady_clock;

constexpr int kQubits = 20;
constexpr int kLayers = 2;

double
ms_since(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

// ------------------------------------------------- pre-fusion naive path --

/** Branchy per-state gate loops — the pre-fusion Statevector internals. */
void
naive_apply(std::vector<Amp>& amps, const circuit::Gate& g)
{
    using circuit::GateType;
    const double theta = g.angle.coefficient;
    const std::uint64_t bit = std::uint64_t(1) << g.q0;
    const std::uint64_t dim = amps.size();
    switch (g.type) {
      case GateType::H: {
        const double r = 1.0 / std::sqrt(2.0);
        for (std::uint64_t s = 0; s < dim; ++s) {
            if (s & bit)
                continue;
            const Amp a0 = amps[s], a1 = amps[s | bit];
            amps[s] = r * (a0 + a1);
            amps[s | bit] = r * (a0 - a1);
        }
        break;
      }
      case GateType::RZ: {
        const Amp p0 = std::polar(1.0, -theta / 2.0);
        const Amp p1 = std::polar(1.0, theta / 2.0);
        for (std::uint64_t s = 0; s < dim; ++s)
            amps[s] *= (s & bit) ? p1 : p0;
        break;
      }
      case GateType::RX: {
        const double c = std::cos(theta / 2.0);
        const Amp is{0.0, -std::sin(theta / 2.0)};
        for (std::uint64_t s = 0; s < dim; ++s) {
            if (s & bit)
                continue;
            const Amp a0 = amps[s], a1 = amps[s | bit];
            amps[s] = c * a0 + is * a1;
            amps[s | bit] = is * a0 + c * a1;
        }
        break;
      }
      case GateType::CX: {
        const std::uint64_t cb = std::uint64_t(1) << g.q0;
        const std::uint64_t tb = std::uint64_t(1) << g.q1;
        for (std::uint64_t s = 0; s < dim; ++s)
            if ((s & cb) && !(s & tb))
                std::swap(amps[s], amps[s | tb]);
        break;
      }
      default:
        break; // QAOA circuits hold only H/RZ/RX/CX (+ measures)
    }
}

/** One pre-fusion optimizer evaluation: build, bind, simulate, evaluate. */
double
naive_evaluation(const ising::IsingModel& model,
                 const std::vector<double>& gammas,
                 const std::vector<double>& betas, std::vector<Amp>& amps)
{
    qaoa::BuildOptions opts;
    opts.num_layers = static_cast<int>(gammas.size());
    opts.include_measurements = false;
    const auto bound =
        qaoa::build_qaoa_circuit(model, opts).bind(gammas, betas);
    amps.assign(std::uint64_t(1) << model.num_spins(), {0.0, 0.0});
    amps[0] = {1.0, 0.0};
    for (const auto& g : bound.gates())
        naive_apply(amps, g);
    // Pre-fusion energy: re-evaluate the model for every state.
    double ev = 0.0;
    for (std::uint64_t s = 0; s < amps.size(); ++s) {
        const double p = std::norm(amps[s]);
        if (p > 0.0)
            ev += p * model.evaluate_state(s);
    }
    return ev;
}

/** Deterministic pseudo-optimizer angle trajectory. */
std::vector<std::vector<double>>
angle_trajectory(int count, int layers, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> points;
    for (int k = 0; k < count; ++k) {
        std::vector<double> point;
        for (int l = 0; l < 2 * layers; ++l)
            point.push_back(rng.uniform(-1.5, 1.5));
        points.push_back(std::move(point));
    }
    return points;
}

struct LoopTiming
{
    double ms_per_eval = 0.0;
    double checksum = 0.0; ///< keeps the work observable
};

LoopTiming
time_naive_loop(const ising::IsingModel& model, int evals)
{
    const auto points = angle_trajectory(evals, kLayers, 7);
    std::vector<Amp> amps;
    const auto start = Clock::now();
    double checksum = 0.0;
    for (const auto& point : points) {
        const std::vector<double> gammas(point.begin(),
                                         point.begin() + kLayers);
        const std::vector<double> betas(point.begin() + kLayers,
                                        point.end());
        checksum += naive_evaluation(model, gammas, betas, amps);
    }
    return {ms_since(start) / evals, checksum};
}

LoopTiming
time_fused_loop(const ising::IsingModel& model, int evals)
{
    // Table compilation is INCLUDED: the evaluator is constructed inside
    // the timed region, exactly as the optimizer pays it.
    const auto points = angle_trajectory(evals, kLayers, 7);
    const auto start = Clock::now();
    qaoa::QaoaEvaluator evaluator(model, kLayers);
    double checksum = 0.0;
    for (const auto& point : points)
        checksum += evaluator.energy_flat(point);
    return {ms_since(start) / evals, checksum};
}

/** Max |amp_fused - amp_naive| across a few optimizer points. */
double
max_amplitude_deviation(const ising::IsingModel& model)
{
    qaoa::BuildOptions opts;
    opts.num_layers = kLayers;
    opts.include_measurements = false;
    const auto circuit = qaoa::build_qaoa_circuit(model, opts);
    const sim::FusedProgram program(circuit);
    sim::Statevector fused_state;
    std::vector<Amp> naive;
    double worst = 0.0;
    for (const auto& point : angle_trajectory(3, kLayers, 11)) {
        const std::vector<double> gammas(point.begin(),
                                         point.begin() + kLayers);
        const std::vector<double> betas(point.begin() + kLayers,
                                        point.end());
        program.run(gammas, betas, fused_state);
        naive_evaluation(model, gammas, betas, naive);
        for (std::uint64_t s = 0; s < naive.size(); ++s)
            worst = std::max(worst,
                             std::abs(naive[s] - fused_state.amplitude(s)));
    }
    return worst;
}

// ----------------------------------------------- backend head-to-head  ----

struct BackendComparison
{
    double scalar_ms_per_run = 0.0;
    double simd_ms_per_run = 0.0;
    double speedup = 0.0;
    double max_deviation = 0.0; ///< |amp_simd - amp_scalar|, worst state
    bool counts_identical = false;
};

/** Scalar vs vectorized backend on the SAME compiled p=2 n=20 BA leaf
 *  program: per-run wall time, amplitude deviation, and a fixed-seed
 *  sampling check (the determinism contract is bit-identical counts). */
BackendComparison
compare_backends(const ising::IsingModel& model, int runs)
{
    qaoa::BuildOptions opts;
    opts.num_layers = kLayers;
    opts.include_measurements = false;
    const sim::FusedProgram program(qaoa::build_qaoa_circuit(model, opts));
    const auto points = angle_trajectory(runs, kLayers, 13);
    const auto& registry = sim::BackendRegistry::instance();

    BackendComparison cmp;
    sim::Statevector state;
    for (const sim::BackendKind kind :
         {sim::BackendKind::ScalarFused, sim::BackendKind::VectorizedFused}) {
        const auto& backend = registry.get(kind);
        // Warm once so page faults stay out of the timed region.
        program.run({points[0].begin(), points[0].begin() + kLayers},
                    {points[0].begin() + kLayers, points[0].end()}, state,
                    backend);
        const auto start = Clock::now();
        for (const auto& point : points)
            program.run({point.begin(), point.begin() + kLayers},
                        {point.begin() + kLayers, point.end()}, state,
                        backend);
        const double ms = ms_since(start) / runs;
        (kind == sim::BackendKind::ScalarFused ? cmp.scalar_ms_per_run
                                               : cmp.simd_ms_per_run) = ms;
    }
    cmp.speedup = cmp.scalar_ms_per_run / cmp.simd_ms_per_run;

    // Exactness: same angles through both backends, worst-state deviation
    // plus bit-identical fixed-seed counts.
    sim::Statevector scalar_state, simd_state;
    cmp.counts_identical = true;
    for (const auto& point : angle_trajectory(3, kLayers, 17)) {
        const std::vector<double> gammas(point.begin(),
                                         point.begin() + kLayers);
        const std::vector<double> betas(point.begin() + kLayers,
                                        point.end());
        program.run(gammas, betas, scalar_state, registry.scalar());
        program.run(gammas, betas, simd_state, registry.vectorized());
        for (std::uint64_t s = 0; s < scalar_state.dimension(); ++s)
            cmp.max_deviation = std::max(
                cmp.max_deviation, std::abs(scalar_state.amplitude(s) -
                                            simd_state.amplitude(s)));
        Rng a(29), b(29);
        if (scalar_state.sample(4096, a) != simd_state.sample(4096, b))
            cmp.counts_identical = false;
    }
    return cmp;
}

// -------------------------------------------------- single-kernel micros --

struct KernelTiming
{
    double naive_ms = 0.0;
    double strided_ms = 0.0;
};

template <typename NaiveFn, typename StridedFn>
KernelTiming
time_kernel(NaiveFn&& naive, StridedFn&& strided, int reps)
{
    KernelTiming t;
    std::vector<Amp> amps(std::uint64_t(1) << kQubits,
                          {0.5 / kQubits, 0.25 / kQubits});
    auto start = Clock::now();
    for (int k = 0; k < reps; ++k)
        naive(amps);
    t.naive_ms = ms_since(start) / reps;
    start = Clock::now();
    for (int k = 0; k < reps; ++k)
        strided(amps);
    t.strided_ms = ms_since(start) / reps;
    return t;
}

// ------------------------------------------------------------- reporting --

void
print_figure()
{
    bench::banner("sim-kernel microbenchmark",
                  "fused diagonal layers + cached energy tables vs the "
                  "naive per-gate path, p=2 n=20 BA optimizer loop");

    const auto model = bench::ba_model(kQubits, 1, 3);

    const auto naive = time_naive_loop(model, 6);
    const auto fused = time_fused_loop(model, 60);
    const double speedup = naive.ms_per_eval / fused.ms_per_eval;
    const double deviation = max_amplitude_deviation(model);
    const auto backends = compare_backends(model, 40);
    const auto features = sim::simd::detect_cpu_features();

    // Cached vs naive expectation on one prepared state.
    qaoa::QaoaEvaluator evaluator(model, kLayers);
    evaluator.energy({0.4, 0.2}, {0.3, 0.1});
    const auto& state = evaluator.state();
    auto start = Clock::now();
    double ev_naive = 0.0;
    for (int k = 0; k < 5; ++k)
        ev_naive = state.expectation_ising(model);
    const double naive_ev_ms = ms_since(start) / 5;
    start = Clock::now();
    double ev_cached = 0.0;
    for (int k = 0; k < 50; ++k)
        ev_cached = evaluator.energy_table().expectation(state);
    const double cached_ev_ms = ms_since(start) / 50;

    // Per-gate strided-vs-branchy micros.
    const auto rx = time_kernel(
        [](std::vector<Amp>& a) {
            naive_apply(a, circuit::Gate::rotation(
                               circuit::GateType::RX, 7,
                               circuit::Parameter::constant(0.3)));
        },
        [](std::vector<Amp>& a) {
            sim::kernels::apply_rx(a.data(), a.size(), 7, 0.3);
        },
        10);
    const auto cx = time_kernel(
        [](std::vector<Amp>& a) {
            naive_apply(a, circuit::Gate::two_qubit(circuit::GateType::CX,
                                                    3, 11));
        },
        [](std::vector<Amp>& a) {
            sim::kernels::apply_cx(a.data(), a.size(), 3, 11);
        },
        10);

    Table t("p=2, n=20 BA-graph QAOA optimizer loop (per evaluation)");
    t.set_header({"path", "ms/eval", "speedup"});
    t.add_row({"naive (pre-fusion gates + per-state EV)",
               Table::num(naive.ms_per_eval, 2), "1.0x"});
    t.add_row({"fused (weight tables + cached EV)",
               Table::num(fused.ms_per_eval, 2),
               Table::num(speedup, 1) + "x"});
    bench::emit(t);

    Table b("backend head-to-head, p=2 n=20 BA leaf (per program run)");
    b.set_header({"backend", "ms/run", "speedup"});
    b.add_row({sim::backend_kind_name(sim::BackendKind::ScalarFused),
               Table::num(backends.scalar_ms_per_run, 2), "1.0x"});
    b.add_row({std::string(
                   sim::backend_kind_name(sim::BackendKind::VectorizedFused)) +
                   " (" + sim::BackendRegistry::vector_isa() + ")",
               Table::num(backends.simd_ms_per_run, 2),
               Table::num(backends.speedup, 2) + "x"});
    bench::emit(b);

    Table k("kernel micros, n=20 (per application)");
    k.set_header({"kernel", "naive ms", "strided ms", "speedup"});
    k.add_row({"RX", Table::num(rx.naive_ms, 2),
               Table::num(rx.strided_ms, 2),
               Table::num(rx.naive_ms / rx.strided_ms, 2) + "x"});
    k.add_row({"CX", Table::num(cx.naive_ms, 2),
               Table::num(cx.strided_ms, 2),
               Table::num(cx.naive_ms / cx.strided_ms, 2) + "x"});
    k.add_row({"expectation", Table::num(naive_ev_ms, 2),
               Table::num(cached_ev_ms, 2),
               Table::num(naive_ev_ms / cached_ev_ms, 2) + "x"});
    bench::emit(k);

    std::cout << "max |amp_fused - amp_naive| over optimizer points: "
              << deviation << (deviation <= 1e-12 ? "  (exact)" : "  (DRIFT!)")
              << "\nmax |amp_simd - amp_scalar|: " << backends.max_deviation
              << (backends.max_deviation <= 1e-12 ? "  (exact)" : "  (DRIFT!)")
              << "\nfixed-seed counts scalar vs simd: "
              << (backends.counts_identical ? "bit-identical" : "DIVERGED")
              << "\nEV agreement: naive " << ev_naive << " vs cached "
              << ev_cached << "\n";

    // Machine-readable record for the perf trajectory.
    std::ofstream json("BENCH_sim_kernels.json");
    json << "{\n"
         << "  \"benchmark\": \"sim_kernels\",\n"
         << "  \"workload\": {\"graph\": \"ba1\", \"n\": " << kQubits
         << ", \"p\": " << kLayers << "},\n"
         << "  \"optimizer_loop\": {\n"
         << "    \"naive_ms_per_eval\": " << naive.ms_per_eval << ",\n"
         << "    \"fused_ms_per_eval\": " << fused.ms_per_eval << ",\n"
         << "    \"speedup\": " << speedup << "\n"
         << "  },\n"
         << "  \"kernels\": {\n"
         << "    \"rx\": {\"naive_ms\": " << rx.naive_ms
         << ", \"strided_ms\": " << rx.strided_ms << "},\n"
         << "    \"cx\": {\"naive_ms\": " << cx.naive_ms
         << ", \"strided_ms\": " << cx.strided_ms << "},\n"
         << "    \"expectation\": {\"naive_ms\": " << naive_ev_ms
         << ", \"cached_ms\": " << cached_ev_ms << "}\n"
         << "  },\n"
         << "  \"backends\": {\n"
         << "    \"scalar\": {\"name\": \""
         << sim::backend_kind_name(sim::BackendKind::ScalarFused)
         << "\", \"ms_per_run\": " << backends.scalar_ms_per_run << "},\n"
         << "    \"simd\": {\"name\": \""
         << sim::backend_kind_name(sim::BackendKind::VectorizedFused)
         << "\", \"isa\": \"" << sim::BackendRegistry::vector_isa()
         << "\", \"ms_per_run\": " << backends.simd_ms_per_run << "},\n"
         << "    \"speedup\": " << backends.speedup << ",\n"
         << "    \"max_amplitude_deviation\": " << backends.max_deviation
         << ",\n"
         << "    \"counts_bit_identical\": "
         << (backends.counts_identical ? "true" : "false") << "\n"
         << "  },\n"
         << "  \"cpu_features\": {\"avx\": " << (features.avx ? "true" : "false")
         << ", \"fma\": " << (features.fma ? "true" : "false")
         << ", \"avx2\": " << (features.avx2 ? "true" : "false")
         << ", \"avx512f\": " << (features.avx512f ? "true" : "false")
         << "},\n"
         << "  \"max_amplitude_deviation\": " << deviation << ",\n"
         << "  \"amplitudes_exact_1e12\": "
         << (deviation <= 1e-12 ? "true" : "false") << "\n"
         << "}\n";
    // Close before any gate exit: std::exit skips destructors, and an
    // unflushed record would come out empty exactly when the gate fails.
    json.close();
    std::cout << "wrote BENCH_sim_kernels.json\n";

    // Give the CI smoke job teeth: a fused-vs-naive drift past the 1e-12
    // contract fails the binary (after the JSON lands for debugging).
    if (deviation > 1e-12) {
        std::cerr << "FATAL: fused amplitudes drifted " << deviation
                  << " from the naive path (contract: 1e-12)\n";
        std::exit(1);
    }
    if (backends.max_deviation > 1e-12 || !backends.counts_identical) {
        std::cerr << "FATAL: vectorized backend broke the exactness "
                     "contract (deviation "
                  << backends.max_deviation << ", counts "
                  << (backends.counts_identical ? "identical" : "diverged")
                  << ")\n";
        std::exit(1);
    }
}

// ------------------------------------------- registered benchmark loops  --

void
BM_FusedOptimizerEval(benchmark::State& state)
{
    const auto model =
        bench::ba_model(static_cast<int>(state.range(0)), 1, 3);
    qaoa::QaoaEvaluator evaluator(model, kLayers);
    const auto points = angle_trajectory(16, kLayers, 7);
    std::size_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            evaluator.energy_flat(points[k % points.size()]));
        ++k;
    }
}
BENCHMARK(BM_FusedOptimizerEval)->Arg(16)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void
BM_NaiveOptimizerEval(benchmark::State& state)
{
    const auto model =
        bench::ba_model(static_cast<int>(state.range(0)), 1, 3);
    const auto points = angle_trajectory(16, kLayers, 7);
    std::vector<Amp> amps;
    std::size_t k = 0;
    for (auto _ : state) {
        const auto& point = points[k % points.size()];
        const std::vector<double> gammas(point.begin(),
                                         point.begin() + kLayers);
        const std::vector<double> betas(point.begin() + kLayers,
                                        point.end());
        benchmark::DoNotOptimize(
            naive_evaluation(model, gammas, betas, amps));
        ++k;
    }
}
BENCHMARK(BM_NaiveOptimizerEval)->Arg(16)->Unit(benchmark::kMillisecond);

void
BM_BackendProgramRun(benchmark::State& state)
{
    const auto model =
        bench::ba_model(static_cast<int>(state.range(0)), 1, 3);
    qaoa::BuildOptions opts;
    opts.num_layers = kLayers;
    opts.include_measurements = false;
    const sim::FusedProgram program(qaoa::build_qaoa_circuit(model, opts));
    const auto& backend = sim::BackendRegistry::instance().get(
        state.range(1) != 0 ? sim::BackendKind::VectorizedFused
                            : sim::BackendKind::ScalarFused);
    const auto points = angle_trajectory(16, kLayers, 7);
    sim::Statevector sv;
    std::size_t k = 0;
    for (auto _ : state) {
        const auto& point = points[k % points.size()];
        program.run({point.begin(), point.begin() + kLayers},
                    {point.begin() + kLayers, point.end()}, sv, backend);
        benchmark::DoNotOptimize(sv.data());
        ++k;
    }
    state.SetLabel(backend.name());
}
BENCHMARK(BM_BackendProgramRun)
    ->Args({20, 0})
    ->Args({20, 1})
    ->Unit(benchmark::kMillisecond);

void
BM_FusedLandscapeScan(benchmark::State& state)
{
    const auto model = bench::ba_model(12, 1, 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            optimizer::scan_qaoa_landscape(model, kLayers, 8, 8, 3.14,
                                           3.14));
    }
}
BENCHMARK(BM_FusedLandscapeScan)->Unit(benchmark::kMillisecond);

} // namespace

FQ_BENCH_MAIN(print_figure)
