/**
 * @file
 * Backend registry tests: scalar-vs-vectorized parity at kernel edge
 * widths (1-qubit leaves, odd mixer walls, uncompressed tables), the
 * 63/64-bit low_bits_mask boundary, bit-identical sampled counts across
 * backends for every executed leaf of a plan, plan-time backend selection
 * (pure function of width; thread-count invariant), aligned amplitude
 * storage, and the
 * template cache's full-footprint byte accounting for fused programs.
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

namespace {

using namespace fq;
using fq::test::ba_model;
using fq::test::expect_solves_identical;

/** Single-spin instance (the 1-qubit leaf edge case). */
ising::IsingModel
single_spin_model()
{
    ising::IsingModel model(1);
    model.set_linear(0, 0.7);
    return model;
}

/** Run one compiled program on both backends at random angles; assert
 *  amplitudes within 1e-12 and sampled counts bit-identical. */
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

    const auto& registry = sim::BackendRegistry::instance();
    sim::Statevector scalar_state, simd_state;
    program.run(gammas, betas, scalar_state, registry.scalar());
    program.run(gammas, betas, simd_state, registry.vectorized());

    ASSERT_EQ(scalar_state.dimension(), simd_state.dimension());
    for (std::uint64_t s = 0; s < scalar_state.dimension(); ++s)
        EXPECT_NEAR(std::abs(scalar_state.amplitude(s) -
                             simd_state.amplitude(s)),
                    0.0, 1e-12)
            << "state " << s << " width " << model.num_spins();

    // The acceptance contract is stronger than amplitude closeness:
    // fixed-seed sampling must agree BIT FOR BIT across backends.
    Rng sample_scalar(seed ^ 0xabcdef12u), sample_simd(seed ^ 0xabcdef12u);
    EXPECT_EQ(scalar_state.sample(4096, sample_scalar),
              simd_state.sample(4096, sample_simd))
        << "counts diverged at width " << model.num_spins();
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

    const std::vector<double> gammas{0.35, -0.6}, betas{0.8, 0.25};
    const auto& registry = sim::BackendRegistry::instance();
    sim::Statevector scalar_state, simd_state;
    program.run(gammas, betas, scalar_state, registry.scalar());
    program.run(gammas, betas, simd_state, registry.vectorized());

    ASSERT_EQ(scalar_state.dimension(), simd_state.dimension());
    for (std::uint64_t s = 0; s < scalar_state.dimension(); ++s)
        EXPECT_NEAR(std::abs(scalar_state.amplitude(s) -
                             simd_state.amplitude(s)),
                    0.0, 1e-12);
    Rng a(5), b(5);
    EXPECT_EQ(scalar_state.sample(2048, a), simd_state.sample(2048, b));
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

TEST(Backend, RegistryServesBothKindsAndReportsIsa)
{
    const auto& registry = sim::BackendRegistry::instance();
    EXPECT_EQ(registry.get(sim::BackendKind::ScalarFused).kind(),
              sim::BackendKind::ScalarFused);
    EXPECT_EQ(registry.get(sim::BackendKind::VectorizedFused).kind(),
              sim::BackendKind::VectorizedFused);
    EXPECT_STREQ(sim::BackendRegistry::vector_isa(),
                 sim::simd::compiled_isa());
    // Whatever ISA this binary was compiled for must be runnable here —
    // an AVX2 binary on a non-AVX2 host would die in the kernels anyway.
    EXPECT_TRUE(sim::simd::compiled_isa_supported());
    // Feature detection itself must be safe to call anywhere.
    (void)sim::simd::detect_cpu_features();
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
        const auto program = cache.get_or_fuse(sub.model, leaf.build,
                                               nullptr, leaf.family.get());
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
    EXPECT_EQ(cache.stats().sim_fusions, 2u);

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
