/**
 * @file
 * Pluggable leaf-simulation backends.
 *
 * FrozenQubits turns one instance into 2^m structurally identical
 * sub-circuits, so leaf simulation throughput is the serving system's
 * dominant cost. A Backend supplies the three hot operations of the fused
 * QAOA path — diagonal-layer application, the mixer wall, and the energy
 * fold — so FusedProgram::run can execute on interchangeable kernel sets:
 *
 *   ScalarFusedBackend     — today's scalar fused loops (kernels.h +
 *                            DiagonalTable::apply), the reference;
 *   VectorizedFusedBackend — the explicitly vectorized kernels in
 *                            sim/simd.h (AVX2 on CPUs that have it,
 *                            portable unrolled raw-double loops
 *                            otherwise; picked once per process).
 *
 * Determinism contract: which backend a leaf runs on is part of the PLAN,
 * not the execution — the engine records a BackendKind per leaf at plan
 * time (select_backend, a pure function of the leaf width), so thread
 * count, wave packing, and solo-vs-service execution cannot change the
 * kernels a leaf sees. Both backends keep the same per-amplitude
 * expression tree, so sampled counts are bit-identical under fixed seeds
 * and amplitudes agree to <= 1e-12; tests run every leaf through both as
 * each other's oracle. The vectorized backend's ISA is NOT part of the
 * plan: its AVX2 and portable kernel tables agree bit for bit, so a plan
 * runs the same on every host.
 *
 * The registry is the seam for future backends (GPU, tensor-network):
 * they slot in as new BackendKind values with their own width rule.
 */
#ifndef FQ_SIM_BACKEND_H
#define FQ_SIM_BACKEND_H

#include <atomic>
#include <complex>
#include <cstdint>
#include <vector>

namespace fq::test {
class ScopedVectorKernels;
} // namespace fq::test

namespace fq::sim {

namespace simd {
struct KernelTable;
} // namespace simd

class DiagonalTable;
class EnergyTable;
class Statevector;

/** Concrete kernel set a leaf executes on (recorded in the plan). */
enum class BackendKind : std::uint8_t
{
    ScalarFused = 0,
    VectorizedFused = 1,
};

/** Printable kind name: "scalar" / "simd". */
const char* backend_kind_name(BackendKind kind);

/**
 * Width rule threshold: leaves at least this wide run vectorized. Below
 * it a statevector fits in a few cache lines and the scalar loop's lower
 * fixed overhead wins; at and above it the vector kernels' throughput
 * dominates. Part of the plan (changing it changes plans, not results —
 * backends agree bitwise on counts).
 */
constexpr int kAutoVectorizeMinQubits = 10;

/** The plan-time backend choice: a PURE function of the leaf width, so
 *  every thread count and scheduling order derives the same plan. */
BackendKind select_backend(int num_qubits);

/**
 * One set of fused-path kernels. Stateless and const: one instance is
 * shared by every worker thread (all mutable state lives in the caller's
 * scratch statevector).
 */
class Backend
{
  public:
    using Amp = std::complex<double>;

    virtual ~Backend() = default;

    virtual BackendKind kind() const = 0;
    /** Stable short name for diagnostics/bench output. */
    virtual const char* name() const = 0;

    /** Multiply amps[s] by e^{i scale weight(s)} per @p table. */
    virtual void apply_diagonal(const DiagonalTable& table, Amp* amps,
                                double scale) const = 0;

    /** Apply RX(theta) to every qubit of a mixer wall (paired passes plus
     *  an odd-width tail), matching the scalar wall's pass order. */
    virtual void apply_mixer_wall(Amp* amps, std::uint64_t dim,
                                  const std::vector<int>& qubits,
                                  double theta) const = 0;

    /** <C> = sum_s |amp_s|^2 E[s] against @p table. */
    virtual double expectation(const EnergyTable& table,
                               const Statevector& state) const = 0;
};

/**
 * Process-wide backend instances. Backends are stateless, so the registry
 * is a lookup table, not a factory; get() never fails (every BackendKind
 * has an instance compiled in). Construction picks the vectorized
 * backend's kernel table once, from simd::detect_cpu_features(): AVX2
 * where the CPU and OS support it, the portable table otherwise (and
 * always off x86).
 */
class BackendRegistry
{
  public:
    static const BackendRegistry& instance();

    const Backend& get(BackendKind kind) const;
    const Backend& scalar() const;
    const Backend& vectorized() const;

    /** ISA of the kernel table the vectorized backend dispatches to:
     *  "avx2" or "portable". */
    static const char* vector_isa();

  private:
    // Test-only seam, defined in tests/test_backend.cc: pins the
    // vectorized backend to another kernel table for a scope, so the
    // parity suite runs both tables in one binary.
    friend class fq::test::ScopedVectorKernels;

    BackendRegistry();
    const Backend* scalar_ = nullptr;
    const Backend* vectorized_ = nullptr;
    mutable std::atomic<const simd::KernelTable*> vector_kernels_;
};

} // namespace fq::sim

#endif // FQ_SIM_BACKEND_H
