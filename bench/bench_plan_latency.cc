/**
 * @file
 * Cold-start planning latency study: what the parametric family tier buys.
 * For each (n, p) BA family one member's template lookup
 * (TemplateCache::get_or_bind) is timed at both template tiers:
 *
 *   cold compile — fresh cache: get_or_bind pays the full structural
 *     pipeline (circuit build + transpile + noise quantities);
 *   family-warm bind — the family structure is resident: get_or_bind is a
 *     hash plus an O(E) labeled verification — no transpiler involvement.
 *
 * The leaf's fused program (FusedProgram::from_model, 2^n weight tables)
 * is excluded from both arms on purpose: it is a per-leaf execution-time
 * artifact built identically whatever the tier, so including it would
 * only dilute the planning-path comparison. Emits BENCH_plan_latency.json
 * and FAILS (exit 1) unless the family-warm bind is at least 5x faster
 * than the cold compile on the p=2 n=20 BA family.
 */
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/template_cache.h"
#include "transpiler/pipeline.h"

namespace {

using namespace fq;

constexpr int kDegree = 2;      ///< BA attachment factor
constexpr int kRepeats = 7;     ///< best-of per tier
constexpr std::uint64_t kSeed = 71;

/** The acceptance-gated configuration. */
constexpr int kGateN = 20;
constexpr int kGateP = 2;
constexpr double kRequiredSpeedup = 5.0;

using Clock = std::chrono::steady_clock;

double
us_since(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

/** Same labeled structure as @p base, re-randomized coefficients. */
ising::IsingModel
with_new_values(const ising::IsingModel& base, std::uint64_t seed)
{
    auto model = base;
    Rng rng(seed);
    for (const auto& term : model.quadratic_terms())
        model.add_quadratic(term.i, term.j,
                            rng.uniform(-1.0, 1.0) - term.coefficient);
    return model;
}

struct TierLatencies
{
    double cold_us = 0.0;
    double bind_us = 0.0;
    double speedup() const { return cold_us / bind_us; }
};

/** One member's template lookup at the planning layer; the returned
 *  tier reports how it was satisfied. */
engine::TemplateTier
materialize(engine::TemplateCache& cache, const ising::IsingModel& model,
            const device::Device& dev,
            const transpiler::CompileOptions& compile,
            const qaoa::BuildOptions& build)
{
    return cache.get_or_bind(model, dev, compile, build).tier;
}

TierLatencies
measure(int n, int p, const device::Device& dev)
{
    const auto base = bench::ba_model(n, kDegree, kSeed);
    qaoa::BuildOptions build;
    build.num_layers = p;
    transpiler::CompileOptions compile;

    TierLatencies out;

    // Cold: a fresh cache per repetition — every rep pays the transpile.
    for (int rep = 0; rep < kRepeats; ++rep) {
        engine::TemplateCache cache;
        const auto member = with_new_values(
            base, kSeed + static_cast<std::uint64_t>(100 + rep));
        const auto start = Clock::now();
        const auto tier = materialize(cache, member, dev, compile, build);
        const double us = us_since(start);
        if (tier != engine::TemplateTier::Compile)
            std::abort(); // cold lookups must pay the structural compile
        if (rep == 0 || us < out.cold_us)
            out.cold_us = us;
    }

    // Family-warm: one persistent cache, structure resident, fresh values
    // each repetition — the tier the 2^m sibling fan-out lives in.
    engine::TemplateCache warm;
    (void)materialize(warm, base, dev, compile, build);
    for (int rep = 0; rep < kRepeats; ++rep) {
        const auto member = with_new_values(
            base, kSeed + static_cast<std::uint64_t>(200 + rep));
        const auto start = Clock::now();
        const auto tier = materialize(warm, member, dev, compile, build);
        const double us = us_since(start);
        if (tier != engine::TemplateTier::Bind)
            std::abort(); // warm-family lookups must never transpile
        if (rep == 0 || us < out.bind_us)
            out.bind_us = us;
    }

    return out;
}

void
print_figure()
{
    bench::banner("plan latency",
                  "cold-start planning cost per template tier: "
                  "O(transpile) compile vs O(parameter-patch) bind");
    const auto dev = device::make_device("ibm-montreal");

    struct Row
    {
        int n = 0;
        int p = 0;
        TierLatencies tiers;
    };
    std::vector<Row> rows;
    for (int n : {12, 16, 20})
        for (int p : {1, 2})
            rows.push_back({n, p, measure(n, p, dev)});

    Table t("BA" + Table::num(kDegree) + " families on ibm-montreal, best of " +
            Table::num(kRepeats) + " (weight-table builds excluded: "
            "identical across tiers)");
    t.set_header({"n", "p", "cold compile us", "family bind us",
                  "cold/bind"});
    bool pass = false;
    double gate_speedup = 0.0;
    for (const auto& row : rows) {
        t.add_row({Table::num(row.n), Table::num(row.p),
                   Table::num(row.tiers.cold_us, 1),
                   Table::num(row.tiers.bind_us, 1),
                   Table::num(row.tiers.speedup(), 1)});
        if (row.n == kGateN && row.p == kGateP) {
            gate_speedup = row.tiers.speedup();
            pass = gate_speedup >= kRequiredSpeedup;
        }
    }
    bench::emit(t);
    std::cout << "acceptance: p=" << kGateP << " n=" << kGateN
              << " BA bind speedup " << gate_speedup << "x (required >= "
              << kRequiredSpeedup << "x): " << (pass ? "PASS" : "FAIL")
              << "\n";

    std::ofstream json("BENCH_plan_latency.json");
    json << "{\n"
         << "  \"benchmark\": \"plan_latency\",\n"
         << "  \"workload\": {\"graph\": \"ba" << kDegree
         << "\", \"device\": \"ibm-montreal\", \"repeats\": " << kRepeats
         << "},\n"
         << "  \"series\": [\n";
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const auto& row = rows[k];
        json << "    {\"n\": " << row.n << ", \"p\": " << row.p
             << ", \"cold_compile_us\": " << row.tiers.cold_us
             << ", \"family_bind_us\": " << row.tiers.bind_us
             << ", \"speedup\": " << row.tiers.speedup() << "}"
             << (k + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"gate\": {\"n\": " << kGateN << ", \"p\": " << kGateP
         << ", \"required_speedup\": " << kRequiredSpeedup
         << ", \"speedup\": " << gate_speedup << ", \"pass\": "
         << (pass ? "true" : "false") << "}\n"
         << "}\n";
    // Close before any gate exit: std::exit skips destructors, and an
    // unflushed record would come out empty exactly when the gate fails.
    json.close();
    std::cout << "wrote BENCH_plan_latency.json\n";

    if (!pass)
        std::exit(1);
}

void
BM_ColdStructuralCompile(benchmark::State& state)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto base = bench::ba_model(16, kDegree, kSeed);
    qaoa::BuildOptions build;
    build.num_layers = 2;
    transpiler::CompileOptions compile;
    std::uint64_t rep = 0;
    for (auto _ : state) {
        engine::TemplateCache cache;
        const auto member = with_new_values(base, kSeed + 300 + rep++);
        benchmark::DoNotOptimize(
            materialize(cache, member, dev, compile, build));
    }
}
BENCHMARK(BM_ColdStructuralCompile)->Unit(benchmark::kMicrosecond);

void
BM_FamilyWarmBind(benchmark::State& state)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto base = bench::ba_model(16, kDegree, kSeed);
    qaoa::BuildOptions build;
    build.num_layers = 2;
    transpiler::CompileOptions compile;
    engine::TemplateCache cache;
    (void)cache.get_or_bind(base, dev, compile, build);
    std::uint64_t rep = 0;
    for (auto _ : state) {
        const auto member = with_new_values(base, kSeed + 400 + rep++);
        benchmark::DoNotOptimize(
            materialize(cache, member, dev, compile, build));
    }
}
BENCHMARK(BM_FamilyWarmBind)->Unit(benchmark::kMicrosecond);

} // namespace

FQ_BENCH_MAIN(print_figure)
