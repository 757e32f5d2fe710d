/**
 * @file
 * Quickstart: the FrozenQubits workflow end to end on a small power-law
 * Max-Cut instance.
 *
 *   1. Generate a power-law (Barabasi-Albert) problem graph.
 *   2. Build its Ising Hamiltonian (Section 2.1).
 *   3. Freeze the hotspot spin -> two sub-problems (Figure 5).
 *   4. Execute the one surviving sub-circuit (symmetry pruning) on a
 *      simulated NISQ device and infer the mirror by bit flipping.
 *   5. Decode the best solution and compare against exact enumeration.
 *
 * Build:  cmake --build build --target quickstart
 * Run:    ./build/examples/quickstart
 */
#include <cstdio>
#include <iostream>

#include "device/catalog.h"
#include "engine/engine.h"
#include "frozenqubits/freeze.h"
#include "frozenqubits/hotspot.h"
#include "graph/generators.h"
#include "graph/powerlaw.h"
#include "ising/exact_solver.h"
#include "ising/maxcut.h"

int
main()
{
    using namespace fq;

    // 1. A 12-node power-law graph with +-1 edge weights.
    Rng rng(2023);
    auto graph = graph::barabasi_albert(12, 1, rng);
    graph::assign_random_pm1_weights(graph, rng);
    std::cout << "problem graph: " << graph.summary() << "\n";

    // 2. Max-Cut -> Ising (h = 0, so the search space is flip-symmetric).
    const auto hamiltonian = ising::maxcut_hamiltonian(graph);
    std::cout << "hamiltonian:   " << hamiltonian.summary() << "\n\n";

    // 3. Identify and freeze the hotspot.
    const auto hotspots = frozenqubits::select_hotspots(
        hamiltonian, 1, frozenqubits::HotspotPolicy::MaxDegree, rng);
    std::cout << "hotspot spin: z" << hotspots[0] << " (degree "
              << graph.degree(hotspots[0]) << ", average "
              << graph.average_degree() << ")\n";

    const auto subs = frozenqubits::freeze_all(hamiltonian, hotspots);
    for (std::size_t s = 0; s < subs.size(); ++s) {
        std::cout << "  sub-problem " << s << " (z" << hotspots[0] << " = "
                  << subs[s].frozen[0].value
                  << "): " << subs[s].model.summary() << "\n";
    }

    // 4. Solve on a simulated IBM device through the ExecutionEngine:
    //    sub-circuits are batched over a thread pool and the compiled
    //    template is cached for every later call on this engine. With
    //    symmetry pruning only ONE of the two sub-circuits runs; the other
    //    distribution is inferred.
    const auto device = device::make_device("ibm-montreal");
    engine::ExecutionEngine engine(/*num_threads=*/0); // 0 = all cores
    frozenqubits::DriverConfig config;
    config.num_freeze = 1;
    const auto solved =
        engine.solve(hamiltonian, device, config, /*shots=*/8192, /*seed=*/7);

    // 5. Compare with brute force.
    const auto exact = ising::solve_exact(hamiltonian);
    std::cout << "\nFrozenQubits best cost: " << solved.best_cost
              << "  (from sub-problem " << solved.from_subproblem << ")\n";
    std::cout << "exact minimum:          " << exact.min_cost << "\n";
    std::cout << "max-cut value:          "
              << ising::cut_from_cost(graph, solved.best_cost) << "\n";
    std::cout << "assignment:             ";
    for (auto z : solved.best_assignment)
        std::cout << (z > 0 ? '+' : '-');
    std::cout << "\n";

    // Show the fidelity comparison the paper's evaluation is built on.
    const auto report = engine.run(hamiltonian, device, config);
    std::printf("\nbaseline: %3d CXs, depth %3d, ARG %6.2f\n",
                report.baseline.post_routing_cx, report.baseline.depth,
                report.arg_baseline);
    std::printf("FQ(m=1):  %3d CXs, depth %3d, ARG %6.2f  (%.2fx better)\n",
                report.executed[0].post_routing_cx,
                report.executed[0].depth, report.arg_fq,
                report.improvement());
    const auto& diag = engine.last_diagnostics();
    std::printf("engine:   %.1f ms on %d thread(s), %d/%d sub-circuits "
                "executed\n",
                diag.wall_ms, diag.threads, diag.tasks_executed,
                diag.num_subproblems);
    return solved.best_cost == exact.min_cost ? 0 : 1;
}
