/**
 * @file
 * Explicitly vectorized statevector kernels and CPU-feature detection —
 * the micro-layer under VectorizedFusedBackend (sim/backend.h).
 *
 * Each kernel here is the data-parallel twin of a scalar loop in
 * qaoa_kernel.cc / kernels.h, written over raw doubles instead of
 * std::complex so the compiler never emits the __muldc3 NaN-recovery
 * branch that the complex operator* drags into every multiply, and so the
 * inner loops are straight-line SIMD-friendly code:
 *
 *   diag_apply_lut  — one LUT-compressed diagonal layer: gather the phase
 *                     per state through the uint16 level index and complex-
 *                     multiply 2-4 amplitudes per vector iteration;
 *   diag_apply_raw  — the uncompressed fallback (per-state sincos bounds
 *                     it; kept for tables past the 4096-level cap);
 *   mixer_rx_pair   — RX(theta) tensor RX(theta), the mixer wall's unit of
 *                     work, vectorized over the contiguous inner run of the
 *                     three-level quad decomposition;
 *   mixer_rx        — the odd-width tail qubit of a mixer wall;
 *   energy_fold     — sum_s |amp_s|^2 E[s] with independent accumulators.
 *
 * Dispatch is at run time, once per process: every kernel with a vector
 * body exists twice in the one binary — a portable unrolled raw-double
 * body and an AVX2 body (per-function target("avx2"), no FMA, no FP
 * contraction) — gathered in one KernelTable per ISA. BackendRegistry
 * picks the table from detect_cpu_features() (cpuid + the OS xsave
 * check) at construction. Non-x86 builds compile the portable table only.
 *
 * Numerical contract: the vectorized expressions reassociate nothing
 * inside one amplitude update (same expression tree as the scalar path up
 * to the complex-arithmetic identities), so amplitudes match the scalar
 * backend to <= 1e-12 and sampled counts are bit-identical under fixed
 * seeds; only energy_fold reassociates (four accumulators), which
 * perturbs expectation values at the 1e-15 level and touches no sampling
 * path. The AVX2 and portable tables are bit-identical to EACH OTHER on
 * every kernel, energy_fold included (same accumulators, same combine
 * order), so results never depend on the host's ISA.
 */
#ifndef FQ_SIM_SIMD_H
#define FQ_SIM_SIMD_H

#include <complex>
#include <cstdint>

namespace fq::sim::simd {

using Amp = std::complex<double>;

/** Runtime CPU capabilities relevant to the vector kernels. */
struct CpuFeatures
{
    bool avx = false;
    bool fma = false;
    bool avx2 = false;
    bool avx512f = false;
};

/** Query cpuid (x86) for vector features, including the OS xsave check
 *  that ymm/zmm state is actually saved. All-false on non-x86. */
CpuFeatures detect_cpu_features();

/** amps[s] *= e^{i scale weights[s]} for all s (uncompressed tables;
 *  per-state sincos bounds it, so it has no vector body). */
void diag_apply_raw(Amp* amps, const double* weights, double scale,
                    std::uint64_t dim);

/** One ISA's set of vector kernels. Stateless function pointers, shared
 *  by every thread. */
struct KernelTable
{
    /** "avx2" or "portable". */
    const char* isa;

    /** amps[s] *= phases[level_index[s]] for all s in [0, dim). */
    void (*diag_apply_lut)(Amp* amps, const std::uint16_t* level_index,
                           const Amp* phases, std::uint64_t dim);

    /** RX(theta) on qubits qa and qb in one pass (see
     *  kernels::apply_rx_pair for the quadrant algebra). */
    void (*mixer_rx_pair)(Amp* amps, std::uint64_t dim, int qa, int qb,
                          double theta);

    /** RX(theta) on one qubit (mixer-wall odd tail). */
    void (*mixer_rx)(Amp* amps, std::uint64_t dim, int q, double theta);

    /** sum_s |amps[s]|^2 energies[s] over four interleaved accumulators
     *  (states = 0, 1, 2, 3 mod 4), combined (0 + 1) + (2 + 3). */
    double (*energy_fold)(const Amp* amps, const double* energies,
                          std::uint64_t dim);
};

/** The baseline kernels: run on every CPU. */
const KernelTable& portable_kernels();

/** The fastest table @p cpu can run: AVX2 when it has AVX2 (and this is
 *  an x86 build), else portable_kernels(). */
const KernelTable& select_kernels(const CpuFeatures& cpu);

} // namespace fq::sim::simd

#endif // FQ_SIM_SIMD_H
