#include "sim/statevector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bitops.h"
#include "common/error.h"
#include "sim/kernels.h"

namespace fq::sim {

namespace {

/**
 * The first index in [lo, hi) whose value is not below @p u, else hi:
 * std::lower_bound's answer on an ascending NaN-free range, found with a
 * conditional move per halving instead of a data-dependent branch.
 */
std::size_t
first_not_below(const double* values, std::size_t lo, std::size_t hi,
                double u)
{
    std::size_t n = hi - lo;
    if (n == 0)
        return lo;
    const double* base = values + lo;
    while (n > 1) {
        const std::size_t half = n / 2;
        base = base[half] < u ? base + half : base;
        n -= half;
    }
    return static_cast<std::size_t>(base - values) + (*base < u);
}

} // namespace

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits)
{
    FQ_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxSimQubits,
               "statevector limited to 1..26 qubits");
    amps_.assign(std::uint64_t(1) << num_qubits, {0.0, 0.0});
    amps_[0] = {1.0, 0.0};
}

void
Statevector::reset(int num_qubits)
{
    FQ_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxSimQubits,
               "statevector limited to 1..26 qubits");
    num_qubits_ = num_qubits;
    amps_.assign(std::uint64_t(1) << num_qubits, {0.0, 0.0});
    amps_[0] = {1.0, 0.0};
    cdf_valid_ = false;
}

void
Statevector::reset_uniform(int num_qubits)
{
    FQ_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxSimQubits,
               "statevector limited to 1..26 qubits");
    num_qubits_ = num_qubits;
    const double amp = std::pow(0.5, 0.5 * num_qubits);
    amps_.assign(std::uint64_t(1) << num_qubits, {amp, 0.0});
    cdf_valid_ = false;
}

Statevector::Amplitude
Statevector::amplitude(std::uint64_t state) const
{
    FQ_REQUIRE(state < dimension(), "basis state out of range");
    return amps_[state];
}

double
Statevector::probability(std::uint64_t state) const
{
    return std::norm(amplitude(state));
}

std::vector<double>
Statevector::probabilities() const
{
    std::vector<double> p(amps_.size());
    for (std::size_t s = 0; s < amps_.size(); ++s)
        p[s] = std::norm(amps_[s]);
    return p;
}

void
Statevector::check_qubit(int q) const
{
    FQ_REQUIRE(q >= 0 && q < num_qubits_, "qubit index out of range");
}

void
Statevector::apply_h(int q)
{
    check_qubit(q);
    kernels::apply_h(data(), dimension(), q);
}

void
Statevector::apply_x(int q)
{
    check_qubit(q);
    kernels::apply_x(data(), dimension(), q);
}

void
Statevector::apply_sx(int q)
{
    check_qubit(q);
    kernels::apply_sx(data(), dimension(), q);
}

void
Statevector::apply_rz(int q, double theta)
{
    check_qubit(q);
    kernels::apply_rz(data(), dimension(), q, theta);
}

void
Statevector::apply_rx(int q, double theta)
{
    check_qubit(q);
    kernels::apply_rx(data(), dimension(), q, theta);
}

void
Statevector::apply_ry(int q, double theta)
{
    check_qubit(q);
    kernels::apply_ry(data(), dimension(), q, theta);
}

void
Statevector::apply_cx(int control, int target)
{
    check_qubit(control);
    check_qubit(target);
    kernels::apply_cx(data(), dimension(), control, target);
}

void
Statevector::apply_swap(int a, int b)
{
    check_qubit(a);
    check_qubit(b);
    kernels::apply_swap(data(), dimension(), a, b);
}

void
Statevector::apply_rzz(int a, int b, double theta)
{
    check_qubit(a);
    check_qubit(b);
    kernels::apply_rzz(data(), dimension(), a, b, theta);
}

void
Statevector::apply_pauli(int q, int pauli)
{
    check_qubit(q);
    switch (pauli) {
      case 0:
        return;
      case 1:
        kernels::apply_x(data(), dimension(), q);
        return;
      case 2:
        kernels::apply_y(data(), dimension(), q);
        return;
      case 3:
        kernels::apply_z(data(), dimension(), q);
        return;
      default:
        FQ_REQUIRE(false, "pauli index must be 0..3");
    }
}

void
Statevector::apply_gate(const circuit::Gate& gate)
{
    using circuit::GateType;
    FQ_REQUIRE(!circuit::has_angle(gate.type) || gate.angle.is_constant(),
               "bind parameters before simulation");
    const double theta = gate.angle.coefficient;
    switch (gate.type) {
      case GateType::H: apply_h(gate.q0); break;
      case GateType::X: apply_x(gate.q0); break;
      case GateType::SX: apply_sx(gate.q0); break;
      case GateType::RZ: apply_rz(gate.q0, theta); break;
      case GateType::RX: apply_rx(gate.q0, theta); break;
      case GateType::RY: apply_ry(gate.q0, theta); break;
      case GateType::CX: apply_cx(gate.q0, gate.q1); break;
      case GateType::SWAP: apply_swap(gate.q0, gate.q1); break;
      case GateType::MEASURE: break;
      case GateType::BARRIER: break;
    }
}

void
Statevector::apply_circuit(const circuit::Circuit& c)
{
    FQ_REQUIRE(c.num_qubits() == num_qubits_,
               "circuit width must match state width");
    for (const auto& g : c.gates())
        apply_gate(g);
}

double
Statevector::expectation_ising(const ising::IsingModel& model) const
{
    FQ_REQUIRE(model.num_spins() == num_qubits_,
               "Hamiltonian width must match state width");
    double ev = 0.0;
    for (std::uint64_t s = 0; s < dimension(); ++s) {
        const double p = std::norm(amps_[s]);
        if (p > 0.0)
            ev += p * model.evaluate_state(s);
    }
    return ev;
}

std::vector<std::uint64_t>
Statevector::sample(int shots, Rng& rng) const
{
    FQ_REQUIRE(shots >= 0, "negative shot count");
    // Inverse-CDF sampling; the CDF and its guide table are built once per
    // state mutation and reused by every subsequent sample() call.
    if (!cdf_valid_) {
        const std::size_t size = amps_.size();
        cdf_.resize(size);
        guide_.resize(kGuideBuckets + 1);
        // bound is the next bucket's lower edge, then NaN once every
        // bucket is set: nothing compares >= NaN, so the hot loop tests
        // one predictable condition per state.
        std::size_t bucket = 0;
        double bound = 0.0;
        double acc = 0.0;
        for (std::size_t s = 0; s < size; ++s) {
            acc += std::norm(amps_[s]);
            cdf_[s] = acc;
            while (acc >= bound) {
                guide_[bucket++] = static_cast<std::uint32_t>(s);
                bound = bucket <= kGuideBuckets
                            ? static_cast<double>(bucket) / kGuideBuckets
                            : std::numeric_limits<double>::quiet_NaN();
            }
        }
        for (; bucket <= kGuideBuckets; ++bucket)
            guide_[bucket] = static_cast<std::uint32_t>(size);
        cdf_valid_ = true;
    }
    const double total = cdf_.back();
    // A finite total means every CDF value is finite and ascending, which
    // the guide needs; a NaN or infinite one searches the whole CDF.
    const bool guided = std::isfinite(total);
    const std::size_t last = cdf_.size() - 1;
    std::vector<std::uint64_t> out(static_cast<std::size_t>(shots));
    Rng local = rng; // kept in registers, as in flip_readout_bits
    for (int k = 0; k < shots; ++k) {
        const double u = local.uniform() * total;
        std::size_t at;
        if (!guided) {
            at = static_cast<std::size_t>(
                std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        } else if (u < 1.0) {
            // The first index with cdf >= u lies in [guide[b], guide[b+1]]
            // for b = floor(u * kGuideBuckets), exact as a power-of-two
            // scale.
            const auto b = static_cast<std::size_t>(u * kGuideBuckets);
            at = first_not_below(cdf_.data(), guide_[b], guide_[b + 1], u);
        } else {
            at = first_not_below(cdf_.data(), guide_[kGuideBuckets],
                                 cdf_.size(), u);
        }
        // Clamp: a draw of exactly u == total (or FP round-up past the
        // final cumulative value) must map to the last state, never one
        // past the end of the distribution.
        out[static_cast<std::size_t>(k)] = std::min(at, last);
    }
    rng = local;
    return out;
}

double
Statevector::norm() const
{
    double s = 0.0;
    for (const auto& a : amps_)
        s += std::norm(a);
    return std::sqrt(s);
}

double
Statevector::overlap(const Statevector& other) const
{
    FQ_REQUIRE(other.dimension() == dimension(),
               "overlap requires equal dimensions");
    Amplitude inner{0.0, 0.0};
    for (std::uint64_t s = 0; s < dimension(); ++s)
        inner += std::conj(amps_[s]) * other.amps_[s];
    return std::norm(inner);
}

Statevector
run_circuit(const circuit::Circuit& c)
{
    Statevector sv(c.num_qubits());
    sv.apply_circuit(c);
    return sv;
}

Statevector&
run_circuit(const circuit::Circuit& c, Statevector& scratch)
{
    scratch.reset(c.num_qubits());
    scratch.apply_circuit(c);
    return scratch;
}

} // namespace fq::sim
