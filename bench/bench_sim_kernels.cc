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
 * Also times one freeze leaf's weight-table build (the per-leaf table
 * bind) at 16/18/20 qubits and gates its weights, bit for bit, against
 * the per-term per-state sum, and the per-leaf histogram: noisy sampling
 * into counts at 16/18 qubits (warm and cold CDF), the decode argmin over
 * one leaf histogram and one ~4,000-state histogram copy.
 *
 * Emits BENCH_sim_kernels.json (machine-readable: per-path ms/eval,
 * speedups, max amplitude deviation, table-build ms) so the perf
 * trajectory is tracked across PRs, then runs the registered
 * google-benchmark timings.
 */
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstring>
#include <fstream>

#include "common/bitops.h"
#include "frozenqubits/freeze.h"
#include "frozenqubits/hotspot.h"
#include "optimizer/landscape.h"
#include "qaoa/analytic_p1.h"
#include "qaoa/multilayer.h"
#include "qaoa/qaoa_builder.h"
#include "sim/backend.h"
#include "sim/counts.h"
#include "sim/kernels.h"
#include "sim/noise_model.h"
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

// ------------------------------------------------------ table build  ----

/** Terms of one freeze leaf: a BA3 +-1 instance of width + 2 spins with
 *  its two top hotspots frozen, so the leaf carries +-1 couplings plus
 *  the integer linear terms the frozen neighbours leave behind. */
std::vector<circuit::ParityTerm>
freeze_leaf_terms(int width)
{
    const auto model = bench::ba_model(width + 2, 3, 3);
    Rng rng(0);
    const auto spots = frozenqubits::select_hotspots(
        model, 2, frozenqubits::HotspotPolicy::MaxDegree, rng);
    const auto leaf = frozenqubits::freeze_all(model, spots)[1].model;
    std::vector<circuit::ParityTerm> terms;
    for (int i = 0; i < leaf.num_spins(); ++i)
        terms.push_back({std::uint64_t(1) << i, -leaf.linear(i)});
    for (const auto& term : leaf.quadratic_terms())
        terms.push_back({(std::uint64_t(1) << term.i) |
                             (std::uint64_t(1) << term.j),
                         -term.coefficient});
    return terms;
}

/** FNV-1a over the bit patterns of @p weight(s) for every state. */
template <typename WeightFn>
std::uint64_t
weight_digest(std::uint64_t dim, const WeightFn& weight)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t s = 0; s < dim; ++s) {
        const double w = weight(s);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &w, sizeof(bits));
        for (int k = 0; k < 8; ++k) {
            h ^= (bits >> (8 * k)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

struct TableBuildTiming
{
    int width = 0;
    double ms = 0.0;         ///< best of the timed builds
    bool exact_digest = false; ///< table == per-term sum, bit for bit
};

/** Freeze-leaf table build (LUT form, as every leaf binds it): best wall
 *  time, and its weights' digest against the per-term per-state sum. */
TableBuildTiming
time_table_build(int width, int reps)
{
    const auto terms = freeze_leaf_terms(width);
    TableBuildTiming t;
    t.width = width;
    t.ms = 1e300;
    for (int k = 0; k < reps; ++k) {
        const auto start = Clock::now();
        const sim::DiagonalTable table(terms, width, /*build_lut=*/true);
        t.ms = std::min(t.ms, ms_since(start));
        if (k > 0)
            continue;
        const auto built = weight_digest(
            table.dimension(), [&](std::uint64_t s) { return table.weight(s); });
        const auto naive =
            weight_digest(table.dimension(), [&](std::uint64_t s) {
                double w = 0.0;
                for (const auto& term : terms)
                    if (term.coefficient != 0.0)
                        w += (popcount64(s & term.mask) & 1)
                                 ? -term.coefficient
                                 : term.coefficient;
                return w;
            });
        t.exact_digest = built == naive;
    }
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
    std::vector<TableBuildTiming> table_builds;
    for (const int width : {16, 18, 20})
        table_builds.push_back(time_table_build(width, 5));
    const bool tables_exact =
        std::all_of(table_builds.begin(), table_builds.end(),
                    [](const auto& t) { return t.exact_digest; });

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

    Table tb("freeze-leaf weight-table build (LUT form, best of 5)");
    tb.set_header({"width", "ms", "weights vs per-term sum"});
    for (const auto& t : table_builds)
        tb.add_row({std::to_string(t.width), Table::num(t.ms, 3),
                    t.exact_digest ? "bit-identical" : "DIVERGED"});
    bench::emit(tb);

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
         << "  \"table_build\": {";
    for (const auto& t : table_builds)
        json << "\"n" << t.width << "_ms\": " << t.ms << ", ";
    json << "\"weights_bit_identical\": " << (tables_exact ? "true" : "false")
         << "},\n"
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
    if (!tables_exact) {
        std::cerr << "FATAL: weight-table build diverged from the per-term "
                     "per-state sum on an exact (+-1 / integer) leaf\n";
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

/** One freeze leaf's weight-table build in LUT form (the per-leaf table
 *  bind): arg = leaf width; BA3 +-1 couplings plus integer linear terms. */
void
BM_TableBuild(benchmark::State& state)
{
    const int width = static_cast<int>(state.range(0));
    const auto terms = freeze_leaf_terms(width);
    for (auto _ : state) {
        const sim::DiagonalTable table(terms, width, /*build_lut=*/true);
        benchmark::DoNotOptimize(table.dimension());
    }
    state.SetLabel(std::to_string(terms.size()) + " terms");
}
BENCHMARK(BM_TableBuild)->Arg(16)->Arg(18)->Arg(20)
    ->Unit(benchmark::kMillisecond);

/** Per-leaf p=1 angle search (grid 32, the engine default) on one leaf of
 *  freezing the 4 top hotspots of a BA3 instance: arg 16 = n=20 freeze-4,
 *  arg 18 = n=22 freeze-4. */
void
BM_OptimizeP1(benchmark::State& state)
{
    const int width = static_cast<int>(state.range(0));
    const auto model = bench::ba_model(width + 4, 3, 3);
    Rng rng(0);
    const auto spots = frozenqubits::select_hotspots(
        model, 4, frozenqubits::HotspotPolicy::MaxDegree, rng);
    const auto leaf = frozenqubits::freeze_all(model, spots)[1].model;
    for (auto _ : state)
        benchmark::DoNotOptimize(qaoa::optimize_p1(leaf, 32));
    state.SetLabel(std::to_string(leaf.num_spins()) + " spins, " +
                   std::to_string(leaf.num_quadratic_terms()) + " terms");
}
BENCHMARK(BM_OptimizeP1)->Arg(16)->Arg(18)->Unit(benchmark::kMillisecond);

/** An entangled, non-uniform state of @p width qubits to sample from. */
sim::Statevector
sampling_state(int width)
{
    sim::Statevector sv(width);
    for (int q = 0; q < width; ++q)
        sv.apply_h(q);
    for (int q = 0; q + 1 < width; ++q)
        sv.apply_rzz(q, q + 1, 0.7);
    for (int q = 0; q < width; ++q)
        sv.apply_rx(q, 0.4);
    return sv;
}

/** One leaf's noisy sampling into a histogram: 4096 shots, survival 0.6,
 *  2% readout flips per qubit; arg = leaf width. The sampling CDF is warm
 *  after the first iteration, so this times the draws, the readout flips
 *  and the histogram build. */
void
BM_SampleNoisyCounts(benchmark::State& state)
{
    const int width = static_cast<int>(state.range(0));
    const auto sv = sampling_state(width);
    const std::vector<double> flips(static_cast<std::size_t>(width), 0.02);
    Rng rng(11);
    std::size_t distinct = 0;
    for (auto _ : state) {
        const auto counts = sim::sample_noisy_counts(sv, 0.6, flips, 4096, rng);
        distinct = counts.num_distinct();
        benchmark::DoNotOptimize(distinct);
    }
    state.SetLabel(std::to_string(distinct) + " distinct states");
}
BENCHMARK(BM_SampleNoisyCounts)->Arg(16)->Arg(18)
    ->Unit(benchmark::kMicrosecond);

/** BM_SampleNoisyCounts with a cold CDF, as a leaf samples: writing through
 *  data() invalidates it each iteration, so this also times the CDF and
 *  guide-table build. */
void
BM_SampleNoisyCountsCold(benchmark::State& state)
{
    const int width = static_cast<int>(state.range(0));
    auto sv = sampling_state(width);
    const std::vector<double> flips(static_cast<std::size_t>(width), 0.02);
    Rng rng(11);
    std::size_t distinct = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sv.data());
        const auto counts = sim::sample_noisy_counts(sv, 0.6, flips, 4096, rng);
        distinct = counts.num_distinct();
        benchmark::DoNotOptimize(distinct);
    }
    state.SetLabel(std::to_string(distinct) + " distinct states");
}
BENCHMARK(BM_SampleNoisyCountsCold)->Arg(16)->Arg(18)
    ->Unit(benchmark::kMicrosecond);

/** A leaf's decode argmin (Counts::best, what the reducer's fold ranks by)
 *  over one 4096-shot noisy histogram of a freeze leaf: arg 16 = n=20
 *  freeze-4, arg 18 = n=22 freeze-4, as in BM_OptimizeP1. */
void
BM_DecodeHistogram(benchmark::State& state)
{
    const int width = static_cast<int>(state.range(0));
    const auto model = bench::ba_model(width + 4, 3, 3);
    Rng rng(0);
    const auto spots = frozenqubits::select_hotspots(
        model, 4, frozenqubits::HotspotPolicy::MaxDegree, rng);
    const auto leaf = frozenqubits::freeze_all(model, spots)[1].model;
    const std::vector<double> flips(static_cast<std::size_t>(width), 0.02);
    const auto counts = sim::sample_noisy_counts(sampling_state(width), 0.6,
                                                 flips, 4096, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(counts.best(leaf));
    state.SetLabel(std::to_string(counts.num_distinct()) + " states, " +
                   std::to_string(leaf.num_quadratic_terms()) + " terms");
}
BENCHMARK(BM_DecodeHistogram)->Arg(16)->Arg(18)
    ->Unit(benchmark::kMicrosecond);

/** Copying one leaf's histogram (what a reducer finish or a checkpoint
 *  capture pays per leaf): 4096 uniform shots over 18 qubits, ~4,000
 *  distinct states. */
void
BM_CountsCopy(benchmark::State& state)
{
    Rng rng(12);
    std::vector<std::uint64_t> samples(4096);
    for (auto& s : samples)
        s = rng() & low_bits_mask(18);
    const auto counts = sim::Counts::from_samples(18, samples);
    for (auto _ : state) {
        sim::Counts copy = counts;
        benchmark::DoNotOptimize(copy);
    }
    state.SetLabel(std::to_string(counts.num_distinct()) +
                   " distinct states");
}
BENCHMARK(BM_CountsCopy)->Unit(benchmark::kMicrosecond);

} // namespace

FQ_BENCH_MAIN(print_figure)
