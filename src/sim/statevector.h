/**
 * @file
 * Dense statevector simulator.
 *
 * The ideal-execution reference for EV_ideal (Section 4.3) and the oracle
 * against which the closed-form p=1 evaluator and the transpiler's
 * semantics-preservation are property-tested. Amplitudes are little-endian:
 * bit q of the basis-state index is qubit q, |0> = +1 in the z basis.
 * Practical up to ~22 qubits (2^22 complex doubles = 64 MiB).
 *
 * Gate application runs on the branch-free strided kernels in kernels.h;
 * the QAOA-aware fused fast path (diagonal-layer weight tables, cached
 * energy tables) lives in qaoa_kernel.h and writes through data().
 */
#ifndef FQ_SIM_STATEVECTOR_H
#define FQ_SIM_STATEVECTOR_H

#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "common/aligned.h"
#include "common/rng.h"
#include "ising/ising_model.h"

namespace fq::sim {

/**
 * Hard width cap shared by the statevector, the fused-program tables, and
 * the planner's fusable check — one constant so the planner can never mark
 * a sub-problem fusable that the table builders would reject.
 */
constexpr int kMaxSimQubits = 26;

/** Dense 2^N-amplitude quantum state. */
class Statevector
{
  public:
    using Amplitude = std::complex<double>;
    /** Amplitude storage is 64-byte aligned (common/aligned.h) so vector
     *  loads/stores in the SIMD backend never straddle a cache line and
     *  AVX-512-width accesses stay aligned. */
    using AmplitudeVector =
        std::vector<Amplitude, AlignedAllocator<Amplitude,
                                                kAmplitudeAlignment>>;

    /**
     * Empty scratch state (0 qubits, the single amplitude 1). Give it a
     * width with reset() before use; the amplitude buffer is then reused
     * across resets — the per-thread scratch pattern of the engine's
     * BatchExecutor.
     */
    Statevector() : num_qubits_(0), amps_(1, Amplitude{1.0, 0.0}) {}

    /** Initialize to |0...0>. */
    explicit Statevector(int num_qubits);

    /**
     * Reinitialize to |0...0> over @p num_qubits qubits without shrinking
     * the amplitude buffer's capacity (cheap when widths repeat).
     */
    void reset(int num_qubits);

    /**
     * Reinitialize to the uniform superposition H^{tensor n}|0...0> in one
     * pass — the state after a QAOA Hadamard wall, which the fused program
     * starts from without applying n gates.
     */
    void reset_uniform(int num_qubits);

    int num_qubits() const { return num_qubits_; }
    std::uint64_t dimension() const { return std::uint64_t(1) << num_qubits_; }

    Amplitude amplitude(std::uint64_t state) const;
    double probability(std::uint64_t state) const;
    std::vector<double> probabilities() const;

    /**
     * Raw amplitude storage (dimension() entries). The mutable overload
     * invalidates the cached sampling CDF, so external writers (the fused
     * QAOA program) compose correctly with sample().
     */
    Amplitude* data()
    {
        cdf_valid_ = false;
        return amps_.data();
    }
    const Amplitude* data() const { return amps_.data(); }

    /// @name Gate application (constant angles)
    /// @{
    void apply_h(int q);
    void apply_x(int q);
    void apply_sx(int q);
    void apply_rz(int q, double theta);
    void apply_rx(int q, double theta);
    void apply_ry(int q, double theta);
    void apply_cx(int control, int target);
    void apply_swap(int a, int b);
    /** Fused e^{-i(theta/2) Z_a Z_b} two-qubit diagonal. */
    void apply_rzz(int a, int b, double theta);
    /** Apply a Pauli (0=I, 1=X, 2=Y, 3=Z) — used by the trajectory sim. */
    void apply_pauli(int q, int pauli);
    /// @}

    /** Apply one gate; MEASURE and BARRIER are ignored. */
    void apply_gate(const circuit::Gate& gate);

    /** Apply every gate of a bound (non-parametric) circuit. */
    void apply_circuit(const circuit::Circuit& c);

    /** <C> = sum_s |amp_s|^2 C(s) for a diagonal Ising Hamiltonian. */
    double expectation_ising(const ising::IsingModel& model) const;

    /**
     * Draw @p shots basis states from the Born distribution. The cumulative
     * distribution is computed on the first call and reused across repeated
     * sample() calls on an unchanged state (any mutation invalidates it).
     * Each draw is the first state whose cumulative probability reaches
     * u * total; a guide table over [0, 1) narrows that search to one
     * bucket without changing the state it finds.
     *
     * Concurrency: const but caching — concurrent sample() calls on ONE
     * instance need external synchronization. The engine gives each worker
     * its own scratch state, so nothing in-tree shares one.
     */
    std::vector<std::uint64_t> sample(int shots, Rng& rng) const;

    /** L2 norm (should stay 1 within rounding). */
    double norm() const;

    /**
     * Fidelity |<self|other>|^2 with another state of equal dimension.
     * Used by equivalence tests.
     */
    double overlap(const Statevector& other) const;

  private:
    /** The strided kernels index out of bounds on a bad qubit; guard every
     *  public gate entry (the old branchy loops silently no-op'd). */
    void check_qubit(int q) const;

    int num_qubits_;
    AmplitudeVector amps_;
    /** Guide-table buckets: a power of two, so the bucket bounds
     *  b / kGuideBuckets are exact doubles. */
    static constexpr std::size_t kGuideBuckets = 4096;

    /** Sampling CDF cache; rebuilt lazily after any mutation. */
    mutable std::vector<double> cdf_;
    /** Built with cdf_: guide_[b] is the first index whose CDF value is at
     *  least b / kGuideBuckets (cdf_.size() when none is). */
    mutable std::vector<std::uint32_t> guide_;
    mutable bool cdf_valid_ = false;
};

/**
 * Run a bound circuit from |0...0> and return the final state.
 * Measurements are ignored (use sample()).
 */
Statevector run_circuit(const circuit::Circuit& c);

/**
 * Run a bound circuit into @p scratch (reset to the circuit's width first),
 * avoiding a fresh 2^N allocation per call. Returns @p scratch.
 */
Statevector& run_circuit(const circuit::Circuit& c, Statevector& scratch);

} // namespace fq::sim

#endif // FQ_SIM_STATEVECTOR_H
