/**
 * @file
 * Domain example (transportation, Table 1 / Figure 1(b)): partitioning an
 * airport network. A synthetic hub-and-spoke route network is split into
 * two alliances so that as much traffic as possible crosses the boundary —
 * a weighted Max-Cut.
 *
 * Hub airports are exactly the hotspots FrozenQubits freezes: the example
 * shows the degree analysis, the CNOT budget with and without freezing
 * (m = 1..3), and an end-to-end solve cross-checked against simulated
 * annealing.
 */
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "frozenqubits/freeze.h"
#include "frozenqubits/hotspot.h"
#include "graph/generators.h"
#include "graph/powerlaw.h"
#include "ising/maxcut.h"
#include "ising/sa_solver.h"

int
main()
{
    using namespace fq;

    // A 22-airport network: 3 hub airports, spokes attached preferentially
    // (kept small enough for the dense ideal simulator).
    Rng rng(1300);
    auto network = graph::airport_network(22, 3, rng);
    graph::assign_random_pm1_weights(network, rng); // +-1 "traffic balance"

    const auto stats = graph::degree_stats(network, 3);
    Table degrees("airport network (Figure 1(b) structure)");
    degrees.set_header({"metric", "value"});
    degrees.add_row({"airports", Table::num(stats.num_nodes)});
    degrees.add_row({"routes", Table::num(stats.num_edges)});
    degrees.add_row({"average connections",
                     Table::num(stats.average_degree, 2)});
    degrees.add_row({"top-3 hub connections",
                     Table::num(stats.hotspot_average_degree, 2)});
    degrees.add_row({"hub/average ratio", Table::factor(stats.hotspot_ratio)});
    degrees.print(std::cout);

    const auto hamiltonian = ising::maxcut_hamiltonian(network);
    const auto device = device::make_device("ibm-auckland");
    // One engine for the whole sweep: the m=1..3 runs share its thread
    // pool, and the baseline arm compiles once (template cache).
    engine::ExecutionEngine engine(/*num_threads=*/0);

    // How much quantum circuit does each frozen hub save?
    Table budget("CNOT budget vs frozen hubs (ibm-auckland)");
    budget.set_header({"m", "executed circuits", "CXs", "depth", "ARG",
                       "gain"});
    for (int m = 1; m <= 3; ++m) {
        frozenqubits::DriverConfig config;
        config.num_freeze = m;
        const auto report = engine.run(hamiltonian, device, config);
        if (m == 1) {
            budget.add_row({"0 (baseline)", "1",
                            Table::num(report.baseline.post_routing_cx),
                            Table::num(report.baseline.depth),
                            Table::num(report.arg_baseline, 2), "1.00x"});
        }
        budget.add_row({Table::num(m), Table::num(report.num_executed),
                        Table::num(report.executed[0].post_routing_cx),
                        Table::num(report.executed[0].depth),
                        Table::num(report.arg_fq, 2),
                        Table::factor(report.improvement())});
    }
    budget.print(std::cout);

    // End-to-end sampled solve with two frozen hubs.
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;
    const auto solved =
        engine.solve(hamiltonian, device, config, /*shots=*/8192, /*seed=*/7);

    // Classical cross-check: simulated annealing.
    ising::SaConfig sa;
    Rng sa_rng(11);
    const auto annealed = ising::solve_annealing(hamiltonian, sa, sa_rng);

    std::printf("FrozenQubits cut: %.1f (cost %.1f)\n",
                ising::cut_from_cost(network, solved.best_cost),
                solved.best_cost);
    std::printf("annealer cut:     %.1f (cost %.1f)\n",
                ising::cut_from_cost(network, annealed.best_cost),
                annealed.best_cost);

    std::cout << "alliance A: ";
    for (int a = 0; a < network.num_nodes(); ++a)
        if (solved.best_assignment[a] > 0)
            std::cout << a << " ";
    std::cout << "\nalliance B: ";
    for (int a = 0; a < network.num_nodes(); ++a)
        if (solved.best_assignment[a] < 0)
            std::cout << a << " ";
    std::cout << "\n";
    return 0;
}
