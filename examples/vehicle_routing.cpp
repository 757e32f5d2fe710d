/**
 * @file
 * Domain example (transportation, Table 1): a small vehicle-routing
 * assignment expressed as a QUBO and solved through the FrozenQubits
 * stack.
 *
 * Problem: assign each of R delivery requests to one of two vehicles so
 * that (a) requests pairs with overlapping time windows on the SAME
 * vehicle are penalized, and (b) pairs that share a depot corridor on
 * DIFFERENT vehicles waste driving and are rewarded when co-assigned.
 * One binary variable per request (x_r = which vehicle). Conflict
 * structure in real fleets is hub-dominated — a few depot-adjacent
 * requests conflict with many others — so the QUBO's coupling graph is
 * power-law and FrozenQubits applies directly.
 */
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "ising/exact_solver.h"
#include "ising/qubo.h"

int
main()
{
    using namespace fq;

    Rng rng(777);
    const int requests = 16;

    // Conflict structure: preferential attachment — depot-adjacent
    // requests (hubs) conflict with many others.
    const auto conflicts = graph::barabasi_albert(requests, 1, rng);

    ising::QuboModel qubo(requests);
    for (const auto& edge : conflicts.edges()) {
        if (rng.bernoulli(0.7)) {
            // Overlapping time windows: same vehicle is bad.
            // penalty * (x_u x_v + (1-x_u)(1-x_v))
            const double penalty = rng.uniform(1.0, 3.0);
            qubo.add_quadratic(edge.u, edge.v, 2.0 * penalty);
            qubo.add_linear(edge.u, -penalty);
            qubo.add_linear(edge.v, -penalty);
            qubo.add_constant(penalty);
        } else {
            // Shared corridor: same vehicle is good.
            const double reward = rng.uniform(0.5, 2.0);
            qubo.add_quadratic(edge.u, edge.v, -2.0 * reward);
            qubo.add_linear(edge.u, reward);
            qubo.add_linear(edge.v, reward);
            qubo.add_constant(-reward);
        }
    }

    const auto hamiltonian = qubo.to_ising();
    std::cout << "requests: " << requests
              << ", conflict edges: " << conflicts.num_edges() << "\n";
    std::cout << "Ising form: " << hamiltonian.summary() << "\n";
    std::cout << "max conflict degree: " << conflicts.max_degree()
              << " (avg " << conflicts.average_degree() << ")\n\n";

    const auto device = device::make_device("ibm-mumbai");
    engine::ExecutionEngine engine(/*num_threads=*/0); // 0 = all cores
    frozenqubits::DriverConfig config;
    config.num_freeze = 2;

    const auto report = engine.run(hamiltonian, device, config);
    Table t("baseline vs FrozenQubits(m=2) on ibm-mumbai");
    t.set_header({"arm", "CXs", "depth", "ARG"});
    t.add_row({"baseline", Table::num(report.baseline.post_routing_cx),
               Table::num(report.baseline.depth),
               Table::num(report.arg_baseline, 2)});
    t.add_row({"FrozenQubits", Table::num(report.executed[0].post_routing_cx),
               Table::num(report.executed[0].depth),
               Table::num(report.arg_fq, 2)});
    t.print(std::cout);
    std::printf("fidelity improvement: %.2fx\n\n", report.improvement());

    // Solve and decode the vehicle assignment.
    const auto solved =
        engine.solve(hamiltonian, device, config, /*shots=*/8192, /*seed=*/42);
    const auto exact = ising::solve_exact(hamiltonian);
    const auto assignment =
        ising::spins_to_binary(solved.best_assignment);

    std::cout << "vehicle A: ";
    for (int r = 0; r < requests; ++r)
        if (assignment[r] == 0)
            std::cout << r << " ";
    std::cout << "\nvehicle B: ";
    for (int r = 0; r < requests; ++r)
        if (assignment[r] == 1)
            std::cout << r << " ";
    std::printf("\nobjective: %.3f (exact optimum %.3f)\n",
                qubo.evaluate(assignment), exact.min_cost);
    return 0;
}
