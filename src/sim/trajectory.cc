#include "sim/trajectory.h"

#include <cmath>
#include <utility>
#include <vector>

#include "circuit/metrics.h"
#include "common/error.h"
#include "sim/qaoa_kernel.h"
#include "sim/statevector.h"

namespace fq::sim {

TrajectoryResult
simulate_trajectories(const circuit::Circuit& physical,
                      const device::Calibration& calibration,
                      const ising::IsingModel& logical_model,
                      const std::vector<int>& logical_to_physical,
                      const TrajectoryConfig& config, Rng& rng)
{
    const int n = physical.num_qubits();
    FQ_REQUIRE(n >= 1 && n <= 22, "trajectory sim limited to 22 qubits");
    FQ_REQUIRE(config.num_trajectories >= 1, "need at least one trajectory");
    FQ_REQUIRE(static_cast<int>(logical_to_physical.size()) ==
                   logical_model.num_spins(),
               "placement size mismatch");

    // Build the logical-frame Hamiltonian on physical wires so EVs can be
    // taken directly from the physical-register state.
    ising::IsingModel physical_model(n);
    for (int i = 0; i < logical_model.num_spins(); ++i)
        physical_model.set_linear(logical_to_physical[i],
                                  logical_model.linear(i));
    for (const auto& term : logical_model.quadratic_terms())
        physical_model.add_quadratic(logical_to_physical[term.i],
                                     logical_to_physical[term.j],
                                     term.coefficient);
    physical_model.set_offset(logical_model.offset());

    // Decoherence approximation: one idle depolarizing event per qubit with
    // probability 1 - exp(-T/T1), applied at the circuit end.
    const double duration_us =
        circuit::circuit_duration_ns(physical, calibration.durations()) /
        1000.0;

    TrajectoryResult result;
    std::vector<std::uint64_t> samples; // every trajectory's shots
    std::vector<double> readout_error(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q)
        readout_error[static_cast<std::size_t>(q)] =
            calibration.qubit(q).readout_error;
    double ev_sum = 0.0;

    // E[s] over the physical register, computed once and dotted with each
    // trajectory's probabilities — instead of re-evaluating the model for
    // every state of every trajectory.
    const EnergyTable energy(physical_model);

    Statevector sv;
    for (int traj = 0; traj < config.num_trajectories; ++traj) {
        sv.reset(n);
        for (const auto& g : physical.gates()) {
            using circuit::GateType;
            if (g.type == GateType::MEASURE || g.type == GateType::BARRIER)
                continue;
            sv.apply_gate(g);
            switch (g.type) {
              case GateType::CX:
              case GateType::SWAP: {
                double eps = calibration.cx_error(g.q0, g.q1);
                if (g.type == GateType::SWAP)
                    eps = 1.0 - std::pow(1.0 - eps, 3);
                if (rng.bernoulli(eps)) {
                    // Uniform non-identity two-qubit Pauli (15 choices).
                    const int pick =
                        1 + static_cast<int>(rng.uniform_int(15ull));
                    sv.apply_pauli(g.q0, pick & 3);
                    sv.apply_pauli(g.q1, (pick >> 2) & 3);
                    ++result.error_events;
                }
                break;
              }
              case GateType::RZ: // error-free
                break;
              default: {
                const double eps = calibration.qubit(g.q0).sq_error;
                if (rng.bernoulli(eps)) {
                    const int pick =
                        1 + static_cast<int>(rng.uniform_int(3ull));
                    sv.apply_pauli(g.q0, pick);
                    ++result.error_events;
                }
                break;
              }
            }
        }

        if (config.apply_decoherence) {
            for (int q = 0; q < n; ++q) {
                const double t1 = calibration.qubit(q).t1_us;
                const double p_idle = 1.0 - std::exp(-duration_us / t1);
                if (rng.bernoulli(p_idle)) {
                    const int pick =
                        1 + static_cast<int>(rng.uniform_int(3ull));
                    sv.apply_pauli(q, pick);
                    ++result.error_events;
                }
            }
        }

        ev_sum += energy.expectation(sv);

        auto drawn = sv.sample(config.shots_per_trajectory, rng);
        if (config.apply_readout_errors)
            flip_readout_bits(drawn, readout_error, rng);
        samples.insert(samples.end(), drawn.begin(), drawn.end());
    }
    result.counts = Counts::from_samples(n, std::move(samples));

    // Readout attenuation applies to the sampled counts automatically; for
    // the analytic EV average we fold it in explicitly so the two report
    // the same quantity.
    double ev = ev_sum / config.num_trajectories;
    if (config.apply_readout_errors) {
        // Approximate per-term readout attenuation via counts instead:
        // recompute EV from the sampled (already-flipped) distribution.
        ev = result.counts.expectation(physical_model);
    }
    result.expectation = ev;
    return result;
}

} // namespace fq::sim
