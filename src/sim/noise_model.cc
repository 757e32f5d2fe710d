#include "sim/noise_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "circuit/metrics.h"
#include "common/error.h"

namespace fq::sim {

double
NoiseAttenuation::z_survival(int physical_qubit) const
{
    FQ_REQUIRE(physical_qubit >= 0 &&
                   physical_qubit < static_cast<int>(gate_survival.size()),
               "physical qubit out of range");
    return gate_survival[physical_qubit] * decoherence[physical_qubit] *
           readout[physical_qubit];
}

double
NoiseAttenuation::global_state_survival() const
{
    double survival = 1.0;
    for (std::size_t q = 0; q < gate_survival.size(); ++q)
        if (active[q])
            survival *= gate_survival[q] * decoherence[q];
    return survival;
}

NoiseAttenuation
compute_attenuation(const circuit::Circuit& physical,
                    const device::Calibration& calibration)
{
    const int n = physical.num_qubits();
    FQ_REQUIRE(n <= calibration.num_qubits(),
               "circuit wider than calibrated device");

    NoiseAttenuation att;
    att.gate_survival.assign(n, 1.0);
    att.decoherence.assign(n, 1.0);
    att.readout.assign(n, 1.0);
    att.active.assign(n, 0);

    // Crosstalk exposure (kappa = 0 disables): a CX's effective error
    // grows with the expected number of simultaneously active drives on
    // qubits near its endpoints — simultaneous drives on neighboring
    // couplers interfere (Murali et al. ASPLOS'20; Xie et al. ASPLOS'22).
    // Exposure is estimated as (CX activity touching the endpoints'
    // neighborhood) / (two-qubit depth): the average number of concurrent
    // nearby drives per CX layer. Hotspot-centered circuits concentrate
    // activity around the hub — exactly the congestion FrozenQubits
    // eliminates, so this term is what lets the model reproduce the
    // paper's super-linear baseline fidelity decay.
    const double kappa = calibration.crosstalk_kappa();
    std::vector<double> cx_on_qubit(n, 0.0);
    std::vector<std::vector<int>> coupled_to(n);
    double cx_layers = 1.0;
    if (kappa > 0.0) {
        for (const auto& g : physical.gates()) {
            if (g.type == circuit::GateType::CX) {
                cx_on_qubit[g.q0] += 1.0;
                cx_on_qubit[g.q1] += 1.0;
            } else if (g.type == circuit::GateType::SWAP) {
                cx_on_qubit[g.q0] += 3.0;
                cx_on_qubit[g.q1] += 3.0;
            }
        }
        for (const auto& [a, b] : calibration.couplings()) {
            if (a < n && b < n) {
                coupled_to[a].push_back(b);
                coupled_to[b].push_back(a);
            }
        }
        cx_layers = std::max(1, circuit::cx_depth(physical));
    }
    auto effective_cx_error = [&](int a, int b) {
        double eps = calibration.cx_error(a, b);
        if (kappa > 0.0) {
            // Activity on qubits coupled to this gate's endpoints (gates
            // on the endpoints themselves serialize and cannot overlap).
            double nearby = 0.0;
            for (int q : coupled_to[a])
                if (q != b)
                    nearby += cx_on_qubit[q];
            for (int q : coupled_to[b])
                if (q != a)
                    nearby += cx_on_qubit[q];
            eps *= 1.0 + kappa * nearby / cx_layers;
        }
        return std::min(0.5, eps);
    };

    std::vector<double> log_survival(n, 0.0);
    for (const auto& g : physical.gates()) {
        using circuit::GateType;
        if (g.type != GateType::BARRIER) {
            att.active[g.q0] = 1;
            if (circuit::is_two_qubit(g.type))
                att.active[g.q1] = 1;
        }
        switch (g.type) {
          case GateType::CX: {
            const double eps = effective_cx_error(g.q0, g.q1);
            const double half = 0.5 * std::log(std::max(1e-12, 1.0 - eps));
            log_survival[g.q0] += half;
            log_survival[g.q1] += half;
            break;
          }
          case GateType::SWAP: {
            // Three CXs on the same pair.
            const double eps = effective_cx_error(g.q0, g.q1);
            const double half = 1.5 * std::log(std::max(1e-12, 1.0 - eps));
            log_survival[g.q0] += half;
            log_survival[g.q1] += half;
            break;
          }
          case GateType::RZ:      // virtual, error-free (Section 3.3)
          case GateType::BARRIER:
          case GateType::MEASURE: // handled via readout attenuation
            break;
          default: { // single-qubit physical gates
            const double eps = calibration.qubit(g.q0).sq_error;
            log_survival[g.q0] += std::log(std::max(1e-12, 1.0 - eps));
            break;
          }
        }
    }

    att.duration_ns =
        circuit::circuit_duration_ns(physical, calibration.durations());
    for (int q = 0; q < n; ++q) {
        att.gate_survival[q] = std::exp(log_survival[q]);
        const auto& props = calibration.qubit(q);
        const double t_us = std::min(props.t1_us, props.t2_us);
        att.decoherence[q] = std::exp(-(att.duration_ns / 1000.0) / t_us);
        att.readout[q] = 1.0 - 2.0 * props.readout_error;
    }
    return att;
}

double
noisy_expectation(const ising::IsingModel& logical_model,
                  const std::vector<double>& ideal_z,
                  const std::vector<double>& ideal_zz,
                  const NoiseAttenuation& attenuation,
                  const std::vector<int>& logical_to_physical)
{
    const int n = logical_model.num_spins();
    FQ_REQUIRE(static_cast<int>(ideal_z.size()) == n,
               "need one <Z> per spin");
    FQ_REQUIRE(ideal_zz.size() == logical_model.quadratic_terms().size(),
               "need one <ZZ> per quadratic term");
    FQ_REQUIRE(static_cast<int>(logical_to_physical.size()) == n,
               "need a physical qubit per logical qubit");

    double ev = logical_model.offset();
    for (int i = 0; i < n; ++i) {
        const double s = attenuation.z_survival(logical_to_physical[i]);
        ev += logical_model.linear(i) * s * ideal_z[i];
    }
    const auto& terms = logical_model.quadratic_terms();
    for (std::size_t t = 0; t < terms.size(); ++t) {
        const double si = attenuation.z_survival(
            logical_to_physical[terms[t].i]);
        const double sj = attenuation.z_survival(
            logical_to_physical[terms[t].j]);
        ev += terms[t].coefficient * si * sj * ideal_zz[t];
    }
    return ev;
}

double
expected_probability_of_success(const circuit::Circuit& physical,
                                const device::Calibration& calibration)
{
    return std::exp(
        log_expected_probability_of_success(physical, calibration));
}

double
log_expected_probability_of_success(const circuit::Circuit& physical,
                                    const device::Calibration& calibration)
{
    const int n = physical.num_qubits();
    FQ_REQUIRE(n <= calibration.num_qubits(),
               "circuit wider than calibrated device");

    double log_eps = 0.0;
    std::vector<bool> active(n, false);
    for (const auto& g : physical.gates()) {
        using circuit::GateType;
        switch (g.type) {
          case GateType::CX:
            log_eps += std::log(
                std::max(1e-12, 1.0 - calibration.cx_error(g.q0, g.q1)));
            active[g.q0] = active[g.q1] = true;
            break;
          case GateType::SWAP:
            log_eps += 3.0 * std::log(std::max(
                1e-12, 1.0 - calibration.cx_error(g.q0, g.q1)));
            active[g.q0] = active[g.q1] = true;
            break;
          case GateType::MEASURE:
            log_eps += std::log(std::max(
                1e-12, 1.0 - calibration.qubit(g.q0).readout_error));
            break;
          case GateType::RZ:
          case GateType::BARRIER:
            break;
          default:
            log_eps += std::log(
                std::max(1e-12, 1.0 - calibration.qubit(g.q0).sq_error));
            active[g.q0] = true;
            break;
        }
    }

    const double duration_us =
        circuit::circuit_duration_ns(physical, calibration.durations()) /
        1000.0;
    // One whole-circuit decoherence factor exp(-T/T_dec) with T_dec the
    // mean T1 of the active qubits. (A per-qubit product would drive EPS
    // to e^{-hundreds} at 500 qubits; the paper's Figure 16 magnitudes —
    // relative EPS up to ~5x10^5 — correspond to the single-factor form.)
    double t1_sum = 0.0;
    int active_count = 0;
    for (int q = 0; q < n; ++q) {
        if (active[q]) {
            t1_sum += calibration.qubit(q).t1_us;
            ++active_count;
        }
    }
    if (active_count > 0)
        log_eps += -duration_us / (t1_sum / active_count);
    return log_eps;
}

Counts
sample_noisy_counts(const Statevector& ideal, double state_survival,
                    const std::vector<double>& readout_flip_probability,
                    int shots, Rng& rng)
{
    FQ_REQUIRE(state_survival >= 0.0 && state_survival <= 1.0,
               "survival must be a probability");
    const int n = ideal.num_qubits();
    FQ_REQUIRE(static_cast<int>(readout_flip_probability.size()) == n,
               "need one readout error per qubit");

    // Draw the ideal-distribution shots in one batch (cheaper CDF reuse).
    const std::uint64_t survives = bernoulli_threshold(state_survival);
    int ideal_shots = 0;
    for (int k = 0; k < shots; ++k)
        ideal_shots += rng.bernoulli_below(survives);
    std::vector<std::uint64_t> samples = ideal.sample(ideal_shots, rng);
    const std::uint64_t mask = (std::uint64_t(1) << n) - 1;
    for (int k = ideal_shots; k < shots; ++k)
        samples.push_back(rng() & mask);

    flip_readout_bits(samples, readout_flip_probability, rng);
    return Counts::from_samples(n, std::move(samples));
}

double
approximation_ratio_gap(double ev_ideal, double ev_real)
{
    if (std::abs(ev_ideal) < 1e-12)
        return 0.0;
    return 100.0 * std::abs(ev_ideal - ev_real) / std::abs(ev_ideal);
}

double
approximation_ratio(double ev, double c_min)
{
    FQ_REQUIRE(c_min < 0.0, "AR defined for negative optimal cost");
    return ev / c_min;
}

} // namespace fq::sim
