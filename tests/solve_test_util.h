/**
 * @file
 * Shared helpers for the engine/service/wave-loop suites. The bit-identity
 * comparator lives here ONCE so that when SampledSolve grows a field,
 * every determinism suite starts enforcing it in the same commit —
 * duplicated copies silently kept passing while proving less.
 */
#ifndef FQ_TESTS_SOLVE_TEST_UTIL_H
#define FQ_TESTS_SOLVE_TEST_UTIL_H

#include <gtest/gtest.h>

#include "device/catalog.h"
#include "engine/wave_loop.h"
#include "frozenqubits/driver.h"
#include "graph/generators.h"
#include "ising/ising_model.h"
#include "qaoa/analytic_p1.h"
#include "qaoa/qaoa_builder.h"
#include "sim/noise_model.h"
#include "transpiler/pipeline.h"

namespace fq::test {

/** Random ±1-weighted Barabási–Albert MaxCut instance. */
inline ising::IsingModel
ba_model(int n, int d, std::uint64_t seed)
{
    Rng rng(seed);
    auto g = graph::barabasi_albert(n, d, rng);
    graph::assign_random_pm1_weights(g, rng);
    return ising::IsingModel::from_graph(g);
}

/** Field-by-field bit-identity of two sampled solves — the determinism
 *  acceptance comparator (histograms and anytime trace included). */
inline void
expect_solves_identical(const frozenqubits::SampledSolve& a,
                        const frozenqubits::SampledSolve& b)
{
    EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
    EXPECT_EQ(a.best_assignment, b.best_assignment);
    EXPECT_EQ(a.from_subproblem, b.from_subproblem);
    EXPECT_DOUBLE_EQ(a.best_quantum_cost, b.best_quantum_cost);
    EXPECT_EQ(a.best_quantum_leaf, b.best_quantum_leaf);
    EXPECT_EQ(a.leaves_total, b.leaves_total);
    EXPECT_EQ(a.leaves_executed, b.leaves_executed);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.deadline_trimmed, b.deadline_trimmed);
    ASSERT_EQ(a.distributions.size(), b.distributions.size());
    for (std::size_t s = 0; s < a.distributions.size(); ++s)
        EXPECT_EQ(a.distributions[s].histogram(),
                  b.distributions[s].histogram());
    ASSERT_EQ(a.anytime.size(), b.anytime.size());
    for (std::size_t p = 0; p < a.anytime.size(); ++p) {
        EXPECT_EQ(a.anytime[p].circuits, b.anytime[p].circuits);
        EXPECT_DOUBLE_EQ(a.anytime[p].incumbent_cost,
                         b.anytime[p].incumbent_cost);
        EXPECT_EQ(a.anytime[p].leaf, b.anytime[p].leaf);
    }
}

/** Field-by-field equality of the counters record the solo engine and the
 *  SolveService share — solo and served runs of one request must report
 *  the same values. */
inline void
expect_counters_identical(const engine::RequestCounters& a,
                          const engine::RequestCounters& b)
{
    EXPECT_EQ(a.leaves_tier_bind, b.leaves_tier_bind);
    EXPECT_EQ(a.leaves_tier_compile, b.leaves_tier_compile);
    EXPECT_EQ(a.kind_leaves_executed, b.kind_leaves_executed);
    EXPECT_EQ(a.kind_leaves_pruned, b.kind_leaves_pruned);
    EXPECT_EQ(a.kind_budget_units, b.kind_budget_units);
    EXPECT_EQ(a.reranks, b.reranks);
    EXPECT_EQ(a.rerank_pruned, b.rerank_pruned);
    EXPECT_EQ(a.rerank_promoted, b.rerank_promoted);
    EXPECT_EQ(a.rerank_demoted, b.rerank_demoted);
    EXPECT_EQ(a.checkpoints, b.checkpoints);
    EXPECT_EQ(a.resumed_from, b.resumed_from);
    EXPECT_EQ(a.deadline_trimmed, b.deadline_trimmed);
    EXPECT_EQ(a.leaves_remote, b.leaves_remote);
    EXPECT_EQ(a.leaves_local, b.leaves_local);
    EXPECT_EQ(a.leaves_redispatched, b.leaves_redispatched);
    EXPECT_EQ(a.remote_bytes_sent, b.remote_bytes_sent);
    EXPECT_EQ(a.remote_bytes_received, b.remote_bytes_received);
    EXPECT_EQ(a.worker_dispatches, b.worker_dispatches);
}

/**
 * Compile oracle for one reported circuit arm: build @p model's circuit
 * under @p build, transpile it directly (no template cache) and derive
 * every stat from that compile. Whatever template path the engine took,
 * structure, duration and EPS must match exactly and the EVs to 1e-12;
 * only compile_time_ms may differ.
 */
inline void
expect_matches_compile_oracle(const frozenqubits::CircuitStats& got,
                              const ising::IsingModel& model,
                              const device::Device& dev,
                              const frozenqubits::DriverConfig& config,
                              const qaoa::BuildOptions& build)
{
    const auto compiled = transpiler::compile(
        qaoa::build_qaoa_circuit(model, build), dev, config.compile);
    const auto tuned = qaoa::optimize_p1(model, config.p1_grid_resolution);
    const auto ideal = qaoa::evaluate_p1(model, tuned.angles);
    const auto attenuation =
        sim::compute_attenuation(compiled.physical, dev.calibration);
    EXPECT_EQ(got.num_qubits, model.num_spins());
    EXPECT_EQ(got.pre_routing_cx, compiled.pre_routing_cx);
    EXPECT_EQ(got.post_routing_cx, compiled.metrics.cx_gates);
    EXPECT_EQ(got.swaps, compiled.swaps_inserted);
    EXPECT_EQ(got.depth, compiled.metrics.depth);
    EXPECT_EQ(got.duration_ns, compiled.metrics.duration_ns);
    EXPECT_EQ(got.eps, sim::expected_probability_of_success(
                           compiled.physical, dev.calibration));
    EXPECT_NEAR(got.ev_ideal, tuned.energy, 1e-12);
    EXPECT_NEAR(got.ev_noisy,
                sim::noisy_expectation(model, ideal.z, ideal.zz, attenuation,
                                       compiled.final_layout),
                1e-12);
}

} // namespace fq::test

#endif // FQ_TESTS_SOLVE_TEST_UTIL_H
