/**
 * @file
 * Domain example (finance, Table 1): binary portfolio optimization.
 *
 * Select a subset of assets trading expected return against risk:
 *   minimize  C(z) = -sum_i mu_i x_i + lambda * sum_ij sigma_ij x_i x_j,
 * with x_i = (1 - z_i)/2 in {0, 1}. Expanding in spin variables yields an
 * Ising Hamiltonian with NON-ZERO linear coefficients — the example
 * demonstrates the FrozenQubits path without flip symmetry: all 2^m
 * sub-problems are executed (plan_executions keeps every branch).
 *
 * Correlations in markets are factor-structured: a handful of assets load
 * on many others (index-like hubs), so the coupling graph is power-law —
 * again matching FrozenQubits' hotspot assumption.
 */
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "frozenqubits/freeze.h"
#include "frozenqubits/hotspot.h"
#include "graph/generators.h"
#include "ising/exact_solver.h"

namespace {

/** Build the portfolio Hamiltonian over a power-law correlation graph. */
fq::ising::IsingModel
portfolio_hamiltonian(int assets, double risk_aversion, fq::Rng& rng)
{
    using namespace fq;
    // Correlation structure: BA graph — hub assets co-move with many others.
    auto correlation = graph::barabasi_albert(assets, 1, rng);

    ising::IsingModel model(assets);
    double offset = 0.0;
    for (int i = 0; i < assets; ++i) {
        const double mu = rng.uniform(0.02, 0.12);        // expected return
        // -mu * x_i = -mu (1 - z_i)/2 -> +mu/2 z_i - mu/2.
        model.add_linear(i, mu / 2.0);
        offset -= mu / 2.0;
    }
    for (const auto& edge : correlation.edges()) {
        const double sigma = rng.uniform(0.01, 0.06) * risk_aversion;
        // sigma x_i x_j = sigma (1-z_i)(1-z_j)/4.
        model.add_quadratic(edge.u, edge.v, sigma / 4.0);
        model.add_linear(edge.u, -sigma / 4.0);
        model.add_linear(edge.v, -sigma / 4.0);
        offset += sigma / 4.0;
    }
    model.set_offset(offset);
    return model;
}

} // namespace

int
main()
{
    using namespace fq;

    Rng rng(987);
    const int assets = 14;
    const auto model = portfolio_hamiltonian(assets, 3.0, rng);
    std::cout << "portfolio Hamiltonian: " << model.summary() << "\n";
    std::cout << "flip-symmetric? "
              << (model.has_zero_linear_terms() ? "yes" : "no — all 2^m "
                 "sub-problems will be executed (no mirror pruning)")
              << "\n\n";

    const auto device = device::make_device("ibm-hanoi");
    engine::ExecutionEngine engine(/*num_threads=*/0); // 0 = all cores
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;

    const auto report = engine.run(model, device, config);
    Table t("baseline vs FrozenQubits (m=2) on ibm-hanoi");
    t.set_header({"arm", "circuits", "CXs", "depth", "EV(ideal)",
                  "EV(noisy)", "ARG"});
    t.add_row({"baseline", "1",
               Table::num(report.baseline.post_routing_cx),
               Table::num(report.baseline.depth),
               Table::num(report.baseline.ev_ideal, 3),
               Table::num(report.baseline.ev_noisy, 3),
               Table::num(report.arg_baseline, 2)});
    t.add_row({"FrozenQubits", Table::num(report.num_executed),
               Table::num(report.executed[0].post_routing_cx),
               Table::num(report.executed[0].depth),
               Table::num(report.ev_ideal_fq, 3),
               Table::num(report.ev_noisy_fq, 3),
               Table::num(report.arg_fq, 2)});
    t.print(std::cout);
    std::printf("no symmetry pruning: %d sub-problems, %d executed\n",
                report.num_subproblems, report.num_executed);
    std::printf("fidelity improvement: %.2fx\n\n", report.improvement());

    // Decode an actual portfolio with sampling.
    const auto solved =
        engine.solve(model, device, config, /*shots=*/8192, /*seed=*/55);
    const auto exact = ising::solve_exact(model);

    std::cout << "selected assets (x_i = 1): ";
    for (int i = 0; i < assets; ++i)
        if (solved.best_assignment[i] < 0) // z = -1 -> x = 1
            std::cout << i << " ";
    std::printf("\nportfolio cost: %.4f (exact optimum %.4f)\n",
                solved.best_cost, exact.min_cost);
    return 0;
}
