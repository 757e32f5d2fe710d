/**
 * @file
 * Multi-layer (p >= 2) QAOA evaluation. Closed forms stop at p=1, so
 * deeper circuits are evaluated on the dense statevector (<= ~20 qubits)
 * and tuned with Nelder–Mead over the 2p angles seeded from the p=1
 * optimum. Used by the layers ablation: deeper circuits raise the ideal
 * EV but multiply the CNOT count per layer, and under hardware noise the
 * paper's Section 2.2 expectation — more layers exacerbate errors — shows
 * up as a p=1-vs-p=2 fidelity crossover.
 *
 * The optimizer loop runs on QaoaEvaluator — the cached-expectation entry
 * point: the parametric circuit is fused once into per-state weight tables
 * (sim/qaoa_kernel.h), the energy table is built once, and every
 * evaluation is then one fused re-simulation plus a dot product instead of
 * a gate-by-gate run plus a full per-state model re-evaluation.
 */
#ifndef FQ_QAOA_MULTILAYER_H
#define FQ_QAOA_MULTILAYER_H

#include <vector>

#include "ising/ising_model.h"
#include "sim/qaoa_kernel.h"
#include "sim/statevector.h"

namespace fq::qaoa {

/** Per-term expectations of a prepared state. */
struct StateExpectations
{
    std::vector<double> z;  ///< <Z_i>
    std::vector<double> zz; ///< aligned with model.quadratic_terms()
    double energy = 0.0;    ///< includes the offset
};

/** Compute per-term expectations of @p state under @p model. */
StateExpectations state_expectations(const ising::IsingModel& model,
                                     const sim::Statevector& state);

/**
 * Cached fast evaluator for the QAOA optimizer loop. Construction builds
 * the p-layer fused program (sim::FusedProgram::from_model) and the
 * model's energy table; energy() is then the per-iteration cost the
 * classical optimizer actually pays. One evaluator owns one scratch
 * statevector — share across iterations, not across threads.
 */
class QaoaEvaluator
{
  public:
    QaoaEvaluator(const ising::IsingModel& model, int num_layers);

    int num_layers() const { return num_layers_; }
    int num_qubits() const { return program_.num_qubits(); }

    /** Ideal <C> at the given angles (offset included). */
    double energy(const std::vector<double>& gammas,
                  const std::vector<double>& betas);

    /** Ideal <C> from the flat [gammas..., betas...] optimizer layout. */
    double energy_flat(const std::vector<double>& point);

    /** The state left by the most recent energy() call. */
    const sim::Statevector& state() const { return scratch_; }

    /** Evaluations served since construction. */
    int evaluations() const { return evaluations_; }

    const sim::FusedProgram& program() const { return program_; }
    const sim::EnergyTable& energy_table() const { return energy_table_; }

  private:
    int num_layers_;
    sim::FusedProgram program_;
    sim::EnergyTable energy_table_;
    sim::Statevector scratch_;
    int evaluations_ = 0;
};

/** Result of multi-layer angle optimization. */
struct MultilayerResult
{
    std::vector<double> gammas;
    std::vector<double> betas;
    double energy = 0.0;
    int evaluations = 0;
};

/**
 * Tune a p-layer QAOA for @p model (statevector-based; N <= 20). Layers
 * are seeded by linear interpolation of the p=1 optimum, the standard
 * warm-start heuristic.
 */
MultilayerResult optimize_multilayer(const ising::IsingModel& model,
                                     int num_layers,
                                     int max_evaluations = 600);

/** Ideal per-term expectations at given multi-layer angles. */
StateExpectations evaluate_multilayer(const ising::IsingModel& model,
                                      const std::vector<double>& gammas,
                                      const std::vector<double>& betas);

} // namespace fq::qaoa

#endif // FQ_QAOA_MULTILAYER_H
