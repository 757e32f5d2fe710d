#include "sim/simd.h"

#include <cmath>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define FQ_SIMD_X86 1
#include <cpuid.h>
#include <immintrin.h>
// AVX2 bodies are compiled per function, so nothing else in this file (nor
// any inline from a header) is built for AVX2. The target is avx2 alone:
// without fma the compiler cannot contract a*b + c, so every body keeps
// the expression tree it shares with its portable twin.
#define FQ_AVX2 __attribute__((target("avx2")))
#endif

namespace fq::sim::simd {

// ------------------------------------------------------------------------
// CPU feature detection

#if defined(FQ_SIMD_X86)

namespace {

/** XCR0: which register state the OS saves/restores (xmm/ymm/zmm). */
std::uint64_t
read_xcr0()
{
    std::uint32_t eax = 0, edx = 0;
    __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
    return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

} // namespace

CpuFeatures
detect_cpu_features()
{
    CpuFeatures f;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return f;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    const bool cpu_avx = (ecx & (1u << 28)) != 0;
    const bool cpu_fma = (ecx & (1u << 12)) != 0;
    // A CPU flag alone is not enough: the OS must save the wider register
    // file across context switches (XCR0 bits 1-2 for ymm, 5-7 for zmm).
    const std::uint64_t xcr0 = osxsave ? read_xcr0() : 0;
    const bool os_ymm = (xcr0 & 0x06) == 0x06;
    const bool os_zmm = (xcr0 & 0xe6) == 0xe6;
    f.avx = cpu_avx && os_ymm;
    f.fma = cpu_fma && os_ymm;
    unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
    if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) {
        f.avx2 = f.avx && (ebx7 & (1u << 5)) != 0;
        f.avx512f = os_zmm && (ebx7 & (1u << 16)) != 0;
    }
    return f;
}

#else // non-x86 (or non-GNU toolchain): no cpuid, report baseline.

CpuFeatures
detect_cpu_features()
{
    return CpuFeatures{};
}

#endif

// ------------------------------------------------------------------------
// Kernels
//
// All loops run over raw doubles (amps viewed as interleaved re/im) so the
// complex multiplies are open-coded — no __muldc3, no NaN-recovery branch
// — and each amplitude's update keeps the same expression tree as the
// scalar backend (bit-stable counts under fixed seeds). Each AVX2 body
// computes exactly what its portable twin computes, lane for lane, so the
// two tables agree bit for bit.

namespace {

/** amps[t] *= phases[level_index[t]] for t in [s, dim): the scalar tail
 *  after a vector loop. */
inline void
lut_tail(double* A, const std::uint16_t* level_index, const double* P,
         std::uint64_t s, std::uint64_t dim)
{
    for (; s < dim; ++s) {
        const std::uint64_t k = level_index[s];
        const double pr = P[2 * k], pi = P[2 * k + 1];
        const double ar = A[2 * s], ai = A[2 * s + 1];
        A[2 * s] = ar * pr - ai * pi;
        A[2 * s + 1] = ar * pi + ai * pr;
    }
}

/** total + sum_{t in [s, dim)} |amp_t|^2 E[t]: the scalar tail after a
 *  vector loop. */
inline double
fold_tail(const double* A, const double* energies, std::uint64_t s,
          std::uint64_t dim, double total)
{
    for (; s < dim; ++s)
        total += (A[2 * s] * A[2 * s] + A[2 * s + 1] * A[2 * s + 1]) *
                 energies[s];
    return total;
}

/** One RX-tensor-RX quadrant update over raw doubles. Indices are in
 *  DOUBLE units (2 * basis state). Mirrors kernels::apply_rx_pair:
 *  new00 = cc*a00 + ics*(a01 + a10) + mss*a11, ics = -i cs, mss = -ss. */
inline void
rx_quad_update(double* A, std::uint64_t i00, std::uint64_t i01,
               std::uint64_t i10, std::uint64_t i11, double cc, double cs,
               double ss)
{
    const double a00r = A[i00], a00i = A[i00 + 1];
    const double a01r = A[i01], a01i = A[i01 + 1];
    const double a10r = A[i10], a10i = A[i10 + 1];
    const double a11r = A[i11], a11i = A[i11 + 1];
    const double sor = a01r + a10r, soi = a01i + a10i; // a01 + a10
    const double sdr = a00r + a11r, sdi = a00i + a11i; // a00 + a11
    A[i00] = cc * a00r + cs * soi - ss * a11r;
    A[i00 + 1] = cc * a00i - cs * sor - ss * a11i;
    A[i01] = cc * a01r + cs * sdi - ss * a10r;
    A[i01 + 1] = cc * a01i - cs * sdr - ss * a10i;
    A[i10] = cc * a10r + cs * sdi - ss * a01r;
    A[i10 + 1] = cc * a10i - cs * sdr - ss * a01i;
    A[i11] = cc * a11r + cs * soi - ss * a00r;
    A[i11 + 1] = cc * a11i - cs * sor - ss * a00i;
}

/** One RX pair update over raw doubles (double-unit indices). */
inline void
rx_pair_update(double* A, std::uint64_t i0, std::uint64_t i1, double c,
               double s)
{
    const double a0r = A[i0], a0i = A[i0 + 1];
    const double a1r = A[i1], a1i = A[i1 + 1];
    A[i0] = c * a0r + s * a1i;
    A[i0 + 1] = c * a0i - s * a1r;
    A[i1] = c * a1r + s * a0i;
    A[i1 + 1] = c * a1i - s * a0r;
}

namespace portable {

void
diag_apply_lut(Amp* amps, const std::uint16_t* level_index,
               const Amp* phases, std::uint64_t dim)
{
    double* A = reinterpret_cast<double*>(amps);
    const double* P = reinterpret_cast<const double*>(phases);
    std::uint64_t s = 0;
    for (; s + 2 <= dim; s += 2) {
        const std::uint64_t k0 = level_index[s], k1 = level_index[s + 1];
        const double p0r = P[2 * k0], p0i = P[2 * k0 + 1];
        const double p1r = P[2 * k1], p1i = P[2 * k1 + 1];
        const double a0r = A[2 * s], a0i = A[2 * s + 1];
        const double a1r = A[2 * s + 2], a1i = A[2 * s + 3];
        A[2 * s] = a0r * p0r - a0i * p0i;
        A[2 * s + 1] = a0r * p0i + a0i * p0r;
        A[2 * s + 2] = a1r * p1r - a1i * p1i;
        A[2 * s + 3] = a1r * p1i + a1i * p1r;
    }
    lut_tail(A, level_index, P, s, dim);
}

void
mixer_rx_pair(Amp* amps, std::uint64_t dim, int qa, int qb, double theta)
{
    const std::uint64_t ma = std::uint64_t(1) << qa;
    const std::uint64_t mb = std::uint64_t(1) << qb;
    const std::uint64_t lo = ma < mb ? ma : mb;
    const std::uint64_t hi = ma < mb ? mb : ma;
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const double cc = c * c, cs = c * s, ss = s * s;
    double* A = reinterpret_cast<double*>(amps);
    for (std::uint64_t a = 0; a < dim; a += hi << 1)
        for (std::uint64_t b = a; b < a + hi; b += lo << 1)
            for (std::uint64_t q = b; q < b + lo; ++q)
                rx_quad_update(A, 2 * q, 2 * (q | lo), 2 * (q | hi),
                               2 * (q | lo | hi), cc, cs, ss);
}

void
mixer_rx(Amp* amps, std::uint64_t dim, int q, double theta)
{
    const std::uint64_t bit = std::uint64_t(1) << q;
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    double* A = reinterpret_cast<double*>(amps);
    for (std::uint64_t outer = 0; outer < dim; outer += bit << 1)
        for (std::uint64_t inner = 0; inner < bit; ++inner) {
            const std::uint64_t i0 = outer | inner;
            rx_pair_update(A, 2 * i0, 2 * (i0 | bit), c, s);
        }
}

double
energy_fold(const Amp* amps, const double* energies, std::uint64_t dim)
{
    const double* A = reinterpret_cast<const double*>(amps);
    std::uint64_t s = 0;
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
    for (; s + 4 <= dim; s += 4) {
        acc0 += (A[2 * s] * A[2 * s] + A[2 * s + 1] * A[2 * s + 1]) *
                energies[s];
        acc1 += (A[2 * s + 2] * A[2 * s + 2] +
                 A[2 * s + 3] * A[2 * s + 3]) *
                energies[s + 1];
        acc2 += (A[2 * s + 4] * A[2 * s + 4] +
                 A[2 * s + 5] * A[2 * s + 5]) *
                energies[s + 2];
        acc3 += (A[2 * s + 6] * A[2 * s + 6] +
                 A[2 * s + 7] * A[2 * s + 7]) *
                energies[s + 3];
    }
    return fold_tail(A, energies, s, dim, (acc0 + acc1) + (acc2 + acc3));
}

constexpr KernelTable kTable{"portable", diag_apply_lut, mixer_rx_pair,
                             mixer_rx, energy_fold};

} // namespace portable

#if defined(FQ_SIMD_X86)

namespace avx2 {

/** Multiply each packed complex by -i: (r, i) -> (i, -r). */
FQ_AVX2 inline __m256d
mul_neg_i(__m256d v)
{
    const __m256d signs = _mm256_setr_pd(1.0, -1.0, 1.0, -1.0);
    return _mm256_mul_pd(_mm256_permute_pd(v, 0x5), signs);
}

FQ_AVX2 void
diag_apply_lut(Amp* amps, const std::uint16_t* level_index,
               const Amp* phases, std::uint64_t dim)
{
    double* A = reinterpret_cast<double*>(amps);
    const double* P = reinterpret_cast<const double*>(phases);
    std::uint64_t s = 0;
    for (; s + 2 <= dim; s += 2) {
        const __m128d p0 = _mm_loadu_pd(P + 2 * level_index[s]);
        const __m128d p1 = _mm_loadu_pd(P + 2 * level_index[s + 1]);
        const __m256d ph = _mm256_set_m128d(p1, p0);
        const __m256d a = _mm256_loadu_pd(A + 2 * s);
        // (ar + i ai)(pr + i pi): addsub of [ar*pr, ai*pr] and
        // [ai*pi, ar*pi] gives [ar*pr - ai*pi, ai*pr + ar*pi].
        const __m256d pr = _mm256_movedup_pd(ph);
        const __m256d pi = _mm256_permute_pd(ph, 0xf);
        const __m256d asw = _mm256_permute_pd(a, 0x5);
        _mm256_storeu_pd(A + 2 * s,
                         _mm256_addsub_pd(_mm256_mul_pd(a, pr),
                                          _mm256_mul_pd(asw, pi)));
    }
    lut_tail(A, level_index, P, s, dim);
}

FQ_AVX2 void
mixer_rx_pair(Amp* amps, std::uint64_t dim, int qa, int qb, double theta)
{
    const std::uint64_t ma = std::uint64_t(1) << qa;
    const std::uint64_t mb = std::uint64_t(1) << qb;
    const std::uint64_t lo = ma < mb ? ma : mb;
    const std::uint64_t hi = ma < mb ? mb : ma;
    // The innermost run of the quad decomposition is lo contiguous complex
    // values, walked two complex (one ymm) at a time; a run of one has no
    // vector body.
    if (lo < 2)
        return portable::mixer_rx_pair(amps, dim, qa, qb, theta);
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const double cc = c * c, cs = c * s, ss = s * s;
    double* A = reinterpret_cast<double*>(amps);
    const __m256d vcc = _mm256_set1_pd(cc);
    const __m256d vcs = _mm256_set1_pd(cs);
    const __m256d vss = _mm256_set1_pd(ss);
    for (std::uint64_t a = 0; a < dim; a += hi << 1)
        for (std::uint64_t b = a; b < a + hi; b += lo << 1)
            for (std::uint64_t q = b; q < b + lo; q += 2) {
                double* p00 = A + 2 * q;
                double* p01 = A + 2 * (q | lo);
                double* p10 = A + 2 * (q | hi);
                double* p11 = A + 2 * (q | lo | hi);
                const __m256d v00 = _mm256_loadu_pd(p00);
                const __m256d v01 = _mm256_loadu_pd(p01);
                const __m256d v10 = _mm256_loadu_pd(p10);
                const __m256d v11 = _mm256_loadu_pd(p11);
                const __m256d jso = mul_neg_i(_mm256_add_pd(v01, v10));
                const __m256d jsd = mul_neg_i(_mm256_add_pd(v00, v11));
                _mm256_storeu_pd(
                    p00, _mm256_sub_pd(
                             _mm256_add_pd(_mm256_mul_pd(vcc, v00),
                                           _mm256_mul_pd(vcs, jso)),
                             _mm256_mul_pd(vss, v11)));
                _mm256_storeu_pd(
                    p01, _mm256_sub_pd(
                             _mm256_add_pd(_mm256_mul_pd(vcc, v01),
                                           _mm256_mul_pd(vcs, jsd)),
                             _mm256_mul_pd(vss, v10)));
                _mm256_storeu_pd(
                    p10, _mm256_sub_pd(
                             _mm256_add_pd(_mm256_mul_pd(vcc, v10),
                                           _mm256_mul_pd(vcs, jsd)),
                             _mm256_mul_pd(vss, v01)));
                _mm256_storeu_pd(
                    p11, _mm256_sub_pd(
                             _mm256_add_pd(_mm256_mul_pd(vcc, v11),
                                           _mm256_mul_pd(vcs, jso)),
                             _mm256_mul_pd(vss, v00)));
            }
}

FQ_AVX2 void
mixer_rx(Amp* amps, std::uint64_t dim, int q, double theta)
{
    const std::uint64_t bit = std::uint64_t(1) << q;
    if (bit < 2)
        return portable::mixer_rx(amps, dim, q, theta);
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    double* A = reinterpret_cast<double*>(amps);
    const __m256d vc = _mm256_set1_pd(c);
    const __m256d vs = _mm256_set1_pd(s);
    for (std::uint64_t outer = 0; outer < dim; outer += bit << 1)
        for (std::uint64_t inner = 0; inner < bit; inner += 2) {
            double* p0 = A + 2 * (outer | inner);
            double* p1 = A + 2 * ((outer | inner) | bit);
            const __m256d v0 = _mm256_loadu_pd(p0);
            const __m256d v1 = _mm256_loadu_pd(p1);
            _mm256_storeu_pd(p0,
                             _mm256_add_pd(_mm256_mul_pd(vc, v0),
                                           _mm256_mul_pd(vs, mul_neg_i(v1))));
            _mm256_storeu_pd(p1,
                             _mm256_add_pd(_mm256_mul_pd(vc, v1),
                                           _mm256_mul_pd(vs, mul_neg_i(v0))));
        }
}

FQ_AVX2 double
energy_fold(const Amp* amps, const double* energies, std::uint64_t dim)
{
    const double* A = reinterpret_cast<const double*>(amps);
    std::uint64_t s = 0;
    __m256d acc = _mm256_setzero_pd();
    for (; s + 4 <= dim; s += 4) {
        const __m256d v0 = _mm256_loadu_pd(A + 2 * s);     // r0 i0 r1 i1
        const __m256d v1 = _mm256_loadu_pd(A + 2 * s + 4); // r2 i2 r3 i3
        // hadd of the squares interleaves the lanes: [p0, p2, p1, p3].
        const __m256d probs = _mm256_hadd_pd(_mm256_mul_pd(v0, v0),
                                             _mm256_mul_pd(v1, v1));
        const __m256d e = _mm256_permute4x64_pd(
            _mm256_loadu_pd(energies + s), _MM_SHUFFLE(3, 1, 2, 0));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(probs, e));
    }
    // The lanes hold the portable accumulators in the order
    // [acc0, acc2, acc1, acc3]; combine them as (acc0 + acc1) + (acc2 +
    // acc3), like the portable body.
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    return fold_tail(A, energies, s, dim,
                     (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]));
}

constexpr KernelTable kTable{"avx2", diag_apply_lut, mixer_rx_pair,
                             mixer_rx, energy_fold};

} // namespace avx2

#endif // FQ_SIMD_X86

} // namespace

void
diag_apply_raw(Amp* amps, const double* weights, double scale,
               std::uint64_t dim)
{
    // Per-state sincos dominates — no vector win without a vector math
    // library; open-coded complex multiply still skips __muldc3.
    double* A = reinterpret_cast<double*>(amps);
    for (std::uint64_t s = 0; s < dim; ++s) {
        const double phase = scale * weights[s];
        const double pr = std::cos(phase), pi = std::sin(phase);
        const double ar = A[2 * s], ai = A[2 * s + 1];
        A[2 * s] = ar * pr - ai * pi;
        A[2 * s + 1] = ar * pi + ai * pr;
    }
}

const KernelTable&
portable_kernels()
{
    return portable::kTable;
}

const KernelTable&
select_kernels(const CpuFeatures& cpu)
{
#if defined(FQ_SIMD_X86)
    if (cpu.avx2)
        return avx2::kTable;
#endif
    (void)cpu;
    return portable::kTable;
}

} // namespace fq::sim::simd
