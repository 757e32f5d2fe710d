/**
 * @file
 * Backend registry tests: scalar-vs-vectorized parity at kernel edge
 * widths (1-qubit leaves, odd mixer walls, uncompressed tables), the
 * 63/64-bit low_bits_mask boundary, bit-identical sampled counts across
 * backends for every executed leaf of a plan, plan-time backend selection
 * (pure function of width; thread-count invariant), runtime kernel
 * dispatch (the CPUID-selected table vs the portable table pinned in the
 * same binary: bitwise amplitudes, energy folds, counts and whole
 * solves), aligned amplitude storage, and the template cache's
 * full-footprint byte accounting for fused programs.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "common/aligned.h"
#include "common/bitops.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "engine/solve_tree.h"
#include "engine/template_cache.h"
#include "qaoa/analytic_p1.h"
#include "qaoa/qaoa_builder.h"
#include "sim/backend.h"
#include "sim/noise_model.h"
#include "sim/qaoa_kernel.h"
#include "sim/simd.h"
#include "sim/statevector.h"
#include "solve_test_util.h"

namespace fq::test {

/** Pins the vectorized backend to @p table for this object's lifetime.
 *  Swap only while nothing simulates: the engines a test builds inside
 *  the scope start their threads after the pin and join them before it
 *  lifts. */
class ScopedVectorKernels
{
  public:
    explicit ScopedVectorKernels(const sim::simd::KernelTable& table)
        : previous_(sim::BackendRegistry::instance().vector_kernels_.exchange(
              &table))
    {
    }
    ~ScopedVectorKernels()
    {
        sim::BackendRegistry::instance().vector_kernels_.store(previous_);
    }
    ScopedVectorKernels(const ScopedVectorKernels&) = delete;
    ScopedVectorKernels& operator=(const ScopedVectorKernels&) = delete;

  private:
    const sim::simd::KernelTable* previous_;
};

} // namespace fq::test

namespace {

using namespace fq;
using fq::test::ba_model;
using fq::test::expect_solves_identical;
using fq::test::ScopedVectorKernels;

/** Single-spin instance (the 1-qubit leaf edge case). */
ising::IsingModel
single_spin_model()
{
    ising::IsingModel model(1);
    model.set_linear(0, 0.7);
    return model;
}

/** Run @p program on the scalar backend and on the vectorized backend,
 *  once with the dispatched kernel table and once with the portable
 *  table pinned. Scalar and vectorized amplitudes agree within 1e-12;
 *  the two vectorized runs agree bit for bit on amplitudes and on the
 *  energy fold; fixed-seed counts are bit-identical across all three. */
void
expect_program_parity(const sim::FusedProgram& program,
                      const ising::IsingModel& model,
                      const std::vector<double>& gammas,
                      const std::vector<double>& betas, std::uint64_t seed)
{
    SCOPED_TRACE("width " + std::to_string(model.num_spins()));
    const auto& registry = sim::BackendRegistry::instance();
    const auto& simd = registry.vectorized();
    const sim::EnergyTable energies(model);
    sim::Statevector scalar_state, simd_state, portable_state;
    program.run(gammas, betas, scalar_state, registry.scalar());
    program.run(gammas, betas, simd_state, simd);
    const double simd_ev = simd.expectation(energies, simd_state);
    double portable_ev = 0.0;
    {
        const ScopedVectorKernels pin(sim::simd::portable_kernels());
        program.run(gammas, betas, portable_state, simd);
        portable_ev = simd.expectation(energies, portable_state);
    }

    ASSERT_EQ(scalar_state.dimension(), simd_state.dimension());
    for (std::uint64_t s = 0; s < scalar_state.dimension(); ++s)
        EXPECT_NEAR(std::abs(scalar_state.amplitude(s) -
                             simd_state.amplitude(s)),
                    0.0, 1e-12)
            << "state " << s;
    ASSERT_EQ(simd_state.dimension(), portable_state.dimension());
    EXPECT_EQ(std::memcmp(simd_state.data(), portable_state.data(),
                          simd_state.dimension() * sizeof(*simd_state.data())),
              0);
    EXPECT_EQ(std::memcmp(&simd_ev, &portable_ev, sizeof(double)), 0)
        << simd_ev << " vs " << portable_ev;

    // The acceptance contract is stronger than amplitude closeness:
    // fixed-seed sampling must agree BIT FOR BIT across backends and
    // across kernel tables.
    Rng sample_scalar(seed ^ 0xabcdef12u), sample_simd(seed ^ 0xabcdef12u),
        sample_portable(seed ^ 0xabcdef12u);
    const auto counts = scalar_state.sample(4096, sample_scalar);
    EXPECT_EQ(counts, simd_state.sample(4096, sample_simd));
    EXPECT_EQ(counts, portable_state.sample(4096, sample_portable));
}

/** expect_program_parity on a depth-@p num_layers program for @p model
 *  at random angles. */
void
expect_backend_parity(const ising::IsingModel& model, int num_layers,
                      std::uint64_t seed)
{
    qaoa::BuildOptions build;
    build.num_layers = num_layers;
    const sim::FusedProgram program(
        qaoa::build_qaoa_circuit(model, build));

    Rng angles(seed);
    std::vector<double> gammas, betas;
    for (int l = 0; l < num_layers; ++l) {
        gammas.push_back(angles.uniform(-1.5, 1.5));
        betas.push_back(angles.uniform(-1.5, 1.5));
    }
    expect_program_parity(program, model, gammas, betas, seed);
}

TEST(Backend, ParityAcrossWidthsIncludingEdges)
{
    // 1-qubit leaf: the mixer wall is a bare odd tail, the diagonal table
    // has two states.
    expect_backend_parity(single_spin_model(), 1, 11);
    expect_backend_parity(single_spin_model(), 2, 12);
    // Odd widths exercise odd mixer walls (unpaired tail qubit); width 2
    // and 3 exercise the lo==1 quad path the vector kernels fall back on.
    for (int n : {2, 3, 4, 5, 6, 11, 13})
        for (int p : {1, 2})
            expect_backend_parity(ba_model(n, 1, 100 + n), p,
                                  1000 + n * 10 + p);
}

TEST(Backend, ParityOnUncompressedTables)
{
    // Force the raw (uncompressed) weight-table path on both backends —
    // the vectorized kernel has a separate diag_apply_raw routine that
    // must match the scalar one bit for bit too.
    const auto model = ba_model(12, 2, 77);
    qaoa::BuildOptions build;
    build.num_layers = 2;
    const sim::FusedProgram program(
        qaoa::build_qaoa_circuit(model, build), /*build_luts=*/false);

    expect_program_parity(program, model, {0.35, -0.6}, {0.8, 0.25}, 5);
}

TEST(Backend, EnergyFoldMatchesScalarExpectation)
{
    const auto model = ba_model(12, 2, 5);
    qaoa::BuildOptions build;
    build.num_layers = 2;
    const sim::FusedProgram program(
        qaoa::build_qaoa_circuit(model, build));
    const sim::EnergyTable table(model);

    sim::Statevector state;
    program.run({0.4, 0.7}, {0.3, 0.9}, state);

    const auto& registry = sim::BackendRegistry::instance();
    const double scalar_ev = registry.scalar().expectation(table, state);
    const double simd_ev = registry.vectorized().expectation(table, state);
    EXPECT_NEAR(scalar_ev, simd_ev, 1e-12);
}

TEST(Backend, LowBitsMaskBoundary)
{
    // The mirror decode flips sampled states against low_bits_mask(n);
    // the 63/64-bit boundary must not shift off the top bit.
    EXPECT_EQ(low_bits_mask(63), ~std::uint64_t{0} >> 1);
    EXPECT_EQ(low_bits_mask(64), ~std::uint64_t{0});
    EXPECT_EQ(low_bits_mask(1), 1ull);
    EXPECT_EQ(low_bits_mask(0), 0ull);
}

TEST(Backend, SelectionIsAPureFunctionOfWidth)
{
    for (int n = 1; n <= sim::kMaxSimQubits; ++n)
        EXPECT_EQ(sim::select_backend(n),
                  n >= sim::kAutoVectorizeMinQubits
                      ? sim::BackendKind::VectorizedFused
                      : sim::BackendKind::ScalarFused)
            << "width " << n;
}

TEST(Backend, RegistryServesBothKinds)
{
    const auto& registry = sim::BackendRegistry::instance();
    EXPECT_EQ(registry.get(sim::BackendKind::ScalarFused).kind(),
              sim::BackendKind::ScalarFused);
    EXPECT_EQ(registry.get(sim::BackendKind::VectorizedFused).kind(),
              sim::BackendKind::VectorizedFused);
}

TEST(Backend, PlanRecordsBackendPerLeafAtPlanTime)
{
    const auto model = ba_model(14, 1, 9);
    const auto dev = device::make_device("ibm-montreal");
    bool scalar = false, simd = false;
    // 12-spin leaves run vectorized, 9-spin leaves scalar.
    for (int num_freeze : {2, 5}) {
        frozenqubits::DriverConfig config;
        config.num_freeze = num_freeze;
        engine::TemplateCache cache;
        Rng rng(config.seed);
        const auto tree =
            engine::build_solve_tree(model, dev, config, cache, rng);
        ASSERT_FALSE(tree.leaves.empty());
        for (const auto& leaf : tree.leaves) {
            const int width = tree.leaf_width(leaf.leaf_id);
            EXPECT_EQ(leaf.backend, sim::select_backend(width));
            EXPECT_EQ(leaf.fuse, width <= sim::kMaxSimQubits);
            scalar = scalar || leaf.backend == sim::BackendKind::ScalarFused;
            simd = simd || leaf.backend == sim::BackendKind::VectorizedFused;
        }
    }
    EXPECT_TRUE(scalar);
    EXPECT_TRUE(simd);
}

TEST(Backend, SolvesBitIdenticalAcrossBackends)
{
    // Oracle: every executed leaf of a plan, run through BOTH backends
    // and sampled on its own plan-time stream, yields identical counts —
    // and the engine's leaf execution (on the leaf's plan-time backend)
    // reproduces them.
    const auto model = ba_model(14, 1, 9);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.max_depth = 2;
    const int shots = 2048;

    engine::TemplateCache cache;
    Rng rng(config.seed);
    const auto tree =
        engine::build_solve_tree(model, dev, config, cache, rng);
    const auto schedule = engine::make_schedule(model, tree, config);
    ASSERT_FALSE(schedule.executed.empty());

    const auto& registry = sim::BackendRegistry::instance();
    engine::BatchExecutor::Scratch scratch;
    for (int leaf_id : schedule.executed) {
        const auto& leaf = tree.leaves[static_cast<std::size_t>(leaf_id)];
        const auto& sub =
            tree.nodes[static_cast<std::size_t>(leaf.node)].sub;
        const auto tuned = qaoa::optimize_p1(
            leaf.proxy ? *leaf.proxy : sub.model, config.p1_grid_resolution);
        const auto program = cache.get_or_fuse(sub.model, leaf.build);
        const auto sample = [&](const sim::Backend& backend) {
            sim::Statevector state;
            program->run({tuned.angles.gamma}, {tuned.angles.beta}, state,
                         backend);
            Rng leaf_rng(leaf.rng_seed);
            return sim::sample_noisy_counts(
                       state, leaf.tpl->attenuation.global_state_survival(),
                       leaf.tpl->readout_flip, shots, leaf_rng)
                .histogram();
        };
        const auto scalar = sample(registry.scalar());
        EXPECT_EQ(scalar, sample(registry.vectorized()))
            << "leaf " << leaf_id;
        EXPECT_EQ(scalar, engine::simulate_scheduled_leaf(
                              cache, tree, leaf_id, dev, config, shots,
                              scratch)
                              .histogram())
            << "leaf " << leaf_id;
    }
}

TEST(Backend, BackendChoiceIsThreadCountInvariant)
{
    // The backend is fixed at plan time by leaf width, so serial and
    // oversubscribed engines run the same kernels and sample
    // identically.
    const auto model = ba_model(14, 1, 21);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    config.max_depth = 2;

    engine::ExecutionEngine serial(1);
    engine::ExecutionEngine parallel(4);
    const auto a = serial.solve(model, dev, config, 1024, 17);
    const auto b = parallel.solve(model, dev, config, 1024, 17);
    expect_solves_identical(a, b);

    const auto& diag = parallel.last_diagnostics();
    EXPECT_GT(diag.leaves_scalar_backend + diag.leaves_simd_backend, 0);
}

// ------------------------------------------------------------------------
// Runtime dispatch: the CPUID-selected kernel table against the portable
// table pinned in the same binary (expect_program_parity above covers
// whole programs). On a host without AVX2 both sides run the portable
// table; DispatchPicksAvx2WhenCpuHasIt keeps a silent fallback on an
// AVX2 host from passing unnoticed.

TEST(KernelDispatch, DispatchPicksAvx2WhenCpuHasIt)
{
    const auto cpu = sim::simd::detect_cpu_features();
    EXPECT_STREQ(sim::BackendRegistry::vector_isa(),
                 cpu.avx2 ? "avx2" : "portable");
    EXPECT_STREQ(sim::simd::select_kernels(cpu).isa,
                 sim::BackendRegistry::vector_isa());
    // A CPU without AVX2 gets the baseline table.
    EXPECT_EQ(&sim::simd::select_kernels(sim::simd::CpuFeatures{}),
              &sim::simd::portable_kernels());
    EXPECT_STREQ(sim::simd::portable_kernels().isa, "portable");
    {
        const ScopedVectorKernels pin(sim::simd::portable_kernels());
        EXPECT_STREQ(sim::BackendRegistry::vector_isa(), "portable");
    }
    EXPECT_STREQ(sim::BackendRegistry::vector_isa(),
                 cpu.avx2 ? "avx2" : "portable");
}

TEST(KernelDispatch, EveryKernelMatchesPortableBitwiseOnRandomInputs)
{
    // Kernel-level probe on random amplitudes, phases and energies, at
    // lengths that exercise every vector body and every scalar tail.
    const auto& dispatched =
        sim::simd::select_kernels(sim::simd::detect_cpu_features());
    const auto& portable = sim::simd::portable_kernels();
    using Amp = sim::simd::Amp;
    const auto bitwise_equal = [](const std::vector<Amp>& a,
                                  const std::vector<Amp>& b) {
        return std::memcmp(a.data(), b.data(), a.size() * sizeof(Amp)) == 0;
    };
    Rng rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        const int width = 4 + trial % 12;
        const std::uint64_t dim = std::uint64_t(1) << width;
        std::vector<Amp> amps(dim);
        std::vector<double> energies(dim);
        for (std::uint64_t s = 0; s < dim; ++s) {
            amps[s] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
            energies[s] = rng.uniform(-20.0, 20.0);
        }
        SCOPED_TRACE("trial " + std::to_string(trial));

        // energy_fold, also on prefixes with 1-3 tail states.
        for (std::uint64_t len : {dim, dim - 1, dim - 3}) {
            const double x =
                dispatched.energy_fold(amps.data(), energies.data(), len);
            const double y =
                portable.energy_fold(amps.data(), energies.data(), len);
            EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
                << "energy_fold length " << len;
        }

        // diag_apply_lut over a random level index (odd length too).
        std::vector<Amp> phases(37);
        for (auto& ph : phases)
            ph = std::polar(1.0, rng.uniform(-3.0, 3.0));
        std::vector<std::uint16_t> index(dim);
        for (auto& k : index)
            k = static_cast<std::uint16_t>(rng.uniform_int(0, 36));
        for (std::uint64_t len : {dim, dim - 1}) {
            auto x = amps, y = amps;
            dispatched.diag_apply_lut(x.data(), index.data(), phases.data(),
                                      len);
            portable.diag_apply_lut(y.data(), index.data(), phases.data(),
                                    len);
            EXPECT_TRUE(bitwise_equal(x, y)) << "diag_apply_lut " << len;
        }

        // Mixer kernels on every qubit and a spread of qubit pairs.
        const double theta = rng.uniform(-3.0, 3.0);
        for (int q = 0; q < width; ++q) {
            auto x = amps, y = amps;
            dispatched.mixer_rx(x.data(), dim, q, theta);
            portable.mixer_rx(y.data(), dim, q, theta);
            EXPECT_TRUE(bitwise_equal(x, y)) << "mixer_rx q" << q;
            const int other = (q + 1 + trial) % width;
            if (other == q)
                continue;
            x = amps;
            y = amps;
            dispatched.mixer_rx_pair(x.data(), dim, q, other, theta);
            portable.mixer_rx_pair(y.data(), dim, q, other, theta);
            EXPECT_TRUE(bitwise_equal(x, y))
                << "mixer_rx_pair q" << q << "," << other;
        }
    }
}

TEST(KernelDispatch, SolveIdenticalWithPortablePinned)
{
    // A BA n=20 freeze-4 instance: 16-qubit leaves, all on the vectorized
    // backend, folded by a 4-thread engine.
    const auto model = ba_model(20, 2, 31);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 4;

    engine::ExecutionEngine dispatched_engine(4);
    const auto dispatched =
        dispatched_engine.solve(model, dev, config, 2048, 41);
    const auto& diag = dispatched_engine.last_diagnostics();
    EXPECT_EQ(diag.num_subproblems, 16);
    EXPECT_EQ(diag.leaves_scalar_backend, 0);
    EXPECT_GT(diag.leaves_simd_backend, 0);
    const ScopedVectorKernels pin(sim::simd::portable_kernels());
    engine::ExecutionEngine portable_engine(4);
    expect_solves_identical(
        dispatched, portable_engine.solve(model, dev, config, 2048, 41));
}

TEST(StatevectorAlignment, ConstructionAndResetPreserveAlignment)
{
    const auto aligned = [](const sim::Statevector& sv) {
        return reinterpret_cast<std::uintptr_t>(sv.data()) %
                   kAmplitudeAlignment ==
               0;
    };
    for (int n : {1, 2, 3, 7, 12, 16}) {
        sim::Statevector sv(n);
        EXPECT_TRUE(aligned(sv)) << "construction width " << n;
        sv.reset(n);
        EXPECT_TRUE(aligned(sv)) << "reset width " << n;
        sv.reset_uniform(n);
        EXPECT_TRUE(aligned(sv)) << "reset_uniform width " << n;
    }
    // The engine's scratch pattern: one buffer re-shaped across widths
    // (grow and shrink) must stay aligned through every resize.
    sim::Statevector scratch;
    for (int n : {4, 12, 6, 1, 16, 2}) {
        scratch.reset(n);
        EXPECT_TRUE(aligned(scratch)) << "scratch resize to " << n;
    }
}

TEST(TemplateCacheAccounting, FusedProgramsAreOwnedByTheCaller)
{
    // get_or_fuse stores nothing: two calls for one model build two
    // distinct programs with bit-identical tables, and the cache holds
    // no bytes for either.
    engine::TemplateCache cache;
    const auto model = ba_model(8, 1, 3);
    qaoa::BuildOptions build;

    bool hit = true;
    const auto program = cache.get_or_fuse(model, build, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.bytes(), 0u);

    hit = true;
    const auto again = cache.get_or_fuse(model, build, &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(again.get(), program.get());
    EXPECT_EQ(cache.bytes(), 0u);
    EXPECT_EQ(cache.stats().family_binds, 2u);

    // Bit-identical tables: same table footprint, and the same amplitudes
    // bit for bit at arbitrary angles.
    ASSERT_EQ(again->num_tables(), program->num_tables());
    EXPECT_EQ(again->table_bytes(), program->table_bytes());
    sim::Statevector a, b;
    program->run({0.37}, {-1.21}, a);
    again->run({0.37}, {-1.21}, b);
    ASSERT_EQ(a.dimension(), b.dimension());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.dimension() * sizeof(*a.data())),
              0);
}

} // namespace
