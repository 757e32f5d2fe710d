/**
 * @file
 * Closed-form single-layer (p = 1) QAOA expectation values for arbitrary
 * Ising Hamiltonians, after Ozaeta, van Dam and McMahon (arXiv:2012.03421):
 *
 *   <Z_i>    = sin(2b) sin(2g h_i) prod_{k != i} cos(2g J_ik)
 *   <Z_i Z_j> = (sin(4b)/2) sin(2g J_ij)
 *                 [cos(2g h_i) prod_{k != i,j} cos(2g J_ik)
 *                  + cos(2g h_j) prod_{k != i,j} cos(2g J_jk)]
 *             - (sin^2(2b)/2)
 *                 [cos(2g (h_i+h_j)) prod_{k != i,j} cos(2g (J_ik+J_jk))
 *                  - cos(2g (h_i-h_j)) prod_{k != i,j} cos(2g (J_ik-J_jk))]
 *
 * with J_ik = 0 for uncoupled pairs (cos(0) = 1 drops out of products).
 * Everything but sin(2b) and sin(4b) depends on gamma alone, so the cost
 * splits: one gamma row is O(sum of term-neighborhood sizes), and each beta
 * on that row is O(n + E) multiplies. A grid search therefore costs
 * rows x neighborhoods + cells x (n + E), and 500-qubit instances (the
 * Section 6 practical-scale study) evaluate in microseconds where a
 * statevector would need 2^500 amplitudes. Property-tested against the
 * dense simulator for random instances.
 *
 * Results are bit-for-bit fixed: every product keeps one order (the
 * golden values in tests/test_qaoa.cc pin it), because the last bits can
 * move the search's argmin and with it every sampled count downstream.
 * Building with -ffast-math or FP contraction (-mfma) would break them.
 */
#ifndef FQ_QAOA_ANALYTIC_P1_H
#define FQ_QAOA_ANALYTIC_P1_H

#include <vector>

#include "ising/ising_model.h"

namespace fq::qaoa {

/** The 2p QAOA parameters for p = 1. */
struct P1Angles
{
    double gamma = 0.0;
    double beta = 0.0;
};

/** Per-term expectation values at given angles. */
struct P1Expectations
{
    /** <Z_i> for every spin. */
    std::vector<double> z;
    /** <Z_i Z_j> aligned with model.quadratic_terms() order. */
    std::vector<double> zz;
    /** <C> = offset + sum h_i <Z_i> + sum J_ij <Z_i Z_j>. */
    double energy = 0.0;
};

/** Evaluate all per-term expectations and the energy at @p angles. */
P1Expectations evaluate_p1(const ising::IsingModel& model,
                           const P1Angles& angles);

/** Energy only (skips storing per-term values). */
double evaluate_p1_energy(const ising::IsingModel& model,
                          const P1Angles& angles);

/**
 * Optimize (gamma, beta) by dense grid search followed by local refinement
 * around the best cell. Returns the minimizing angles and energy. Grid
 * covers gamma, beta in [0, pi) x [0, pi), sufficient for one period of
 * integer-weight instances. Evaluates grid^2 + 4 * refine cells; the
 * returned energy equals evaluate_p1_energy at the returned angles, bit
 * for bit.
 */
struct P1OptimizationResult
{
    P1Angles angles;
    double energy = 0.0;
    int evaluations = 0;
};

P1OptimizationResult optimize_p1(const ising::IsingModel& model,
                                 int grid_resolution = 48,
                                 int refine_iterations = 24);

} // namespace fq::qaoa

#endif // FQ_QAOA_ANALYTIC_P1_H
