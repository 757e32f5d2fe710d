/**
 * @file
 * QAOA-aware fast simulation path: fused diagonal kernels and cached
 * per-state tables.
 *
 * FrozenQubits turns one instance into 2^m structurally identical
 * sub-problems, and the classical optimizer evaluates the SAME circuit
 * shape hundreds of times with different angles — so the hot loop is
 * "re-simulate one known structure". The naive path pays |E|+|V| branchy
 * O(2^n) passes per cost layer plus an O(2^n (n+|E|)) energy evaluation
 * per iteration. This module compiles the structure once:
 *
 *   DiagonalTable — per-state weight table w[s] for one fused diagonal
 *     layer (circuit/fusion.h), so applying the layer at ANY angle is one
 *     pass amps[s] *= polar(1, scale * w[s]). Tables whose weights are
 *     exact sums (parity_sums_exact: every +-1-weighted benchmark class)
 *     and take few distinct values compress to a level LUT: the per-state
 *     work drops to one uint16 load and one complex multiply, with
 *     |levels| sincos calls per application.
 *
 *   EnergyTable — E[s] = model.evaluate_state(s) computed once; every
 *     expectation is then a dot product with the probabilities.
 *
 *   FusedProgram — the executable form of a p-layer QAOA circuit: a
 *     one-pass uniform init, then per layer one diagonal op applied
 *     through its table and one mixer wall on the paired-RX kernel (half
 *     the memory traffic). from_model builds it straight from the Ising
 *     model's terms; the circuit constructors fuse an arbitrary circuit
 *     (circuit/fusion.h) and serve as the test oracle for it. run() is
 *     const and thread-safe: one program can serve many threads, each
 *     writing its own scratch Statevector.
 *
 * Both tables come from one doubling build: w[0] is the sum of all
 * coefficients, and the upper half of each prefix 2^(k+1) is its lower
 * half minus the change of flipping bit k. That change is linear in the
 * lower bits for one- and two-bit terms, so a build costs O(2^n) plus
 * small per-bit delta tables instead of one O(2^n) pass per term; a term
 * of three or more bits adds an O(2^k) pass at each of its bits k above
 * the lowest two.
 *
 * A leaf's program needs no cached form: the paper's 2^m sub-circuits
 * differ only in their (J, h) values, and those values ARE the program's
 * terms. Only the transpiled template (engine/template_cache.h) keeps a
 * compile-once, edit-per-sibling form (Section 3.7.1).
 */
#ifndef FQ_SIM_QAOA_KERNEL_H
#define FQ_SIM_QAOA_KERNEL_H

#include <cstdint>
#include <vector>

#include "circuit/fusion.h"
#include "ising/ising_model.h"
#include "sim/statevector.h"

namespace fq::sim {

class Backend;

/**
 * True when sum_t c_t * parity_sign(s & mask_t) (plus @p base) is exact
 * in double for every state and every summation order: all coefficients
 * are finite integer multiples of one 2^-q (q <= 30) and
 * 2 * sum|c| * 2^q <= 2^52. Every table built from such terms is
 * bit-identical to the term-by-term per-state sum, signed zeros included;
 * other tables keep the raw double form and may differ in the last bits.
 */
bool parity_sums_exact(const std::vector<circuit::ParityTerm>& terms,
                       double base = 0.0);

/** parity_sums_exact over @p model's linear and quadratic terms and its
 *  offset — the inputs of every table built for it. */
bool parity_sums_exact(const ising::IsingModel& model);

/**
 * Per-state weight table for one fused diagonal layer:
 * phase(s) = scale * weight(s). Immutable after construction.
 */
class DiagonalTable
{
  public:
    /**
     * Build the table for @p terms over @p num_qubits qubits. With
     * @p build_lut set, exact weights (parity_sums_exact) collapsing to at
     * most kMaxLevels distinct values are stored as (ascending levels,
     * per-state level index); the raw table is kept otherwise. Skip the
     * LUT for one-shot use — its build cost only amortizes when the table
     * is applied many times. Non-finite coefficients, a non-finite
     * sum|c| or a mask past the register throw fq::Error.
     */
    DiagonalTable(const std::vector<circuit::ParityTerm>& terms,
                  int num_qubits, bool build_lut);

    /** Multiply amps[s] by e^{i * scale * weight(s)} for all s. */
    void apply(Statevector::Amplitude* amps, double scale) const;

    /** weight(s) regardless of storage form (tests / diagnostics). */
    double weight(std::uint64_t state) const;

    std::uint64_t dimension() const { return dimension_; }
    bool compressed() const { return !levels_.empty(); }
    std::size_t num_levels() const { return levels_.size(); }

    /// @name Raw storage views (backend kernels; see sim/backend.h)
    /// @{
    /** Distinct weight values, ascending (empty unless compressed()). */
    const std::vector<double>& levels() const { return levels_; }
    /** Per-state level slot (empty unless compressed()). */
    const std::vector<std::uint16_t>& level_index() const
    {
        return level_index_;
    }
    /** Per-state weights (empty when compressed()). */
    const std::vector<double>& raw_weights() const { return weights_; }
    /// @}

    /** Bytes held by the table storage. */
    std::size_t bytes() const
    {
        return weights_.size() * sizeof(double) +
               levels_.size() * sizeof(double) +
               level_index_.size() * sizeof(std::uint16_t);
    }

    /** LUT size cap; above this the raw weight table is kept. */
    static constexpr std::size_t kMaxLevels = 4096;

  private:
    std::uint64_t dimension_ = 0;
    std::vector<double> weights_;            ///< raw form (empty when LUT)
    std::vector<double> levels_;             ///< distinct weights
    std::vector<std::uint16_t> level_index_; ///< per-state level slot
};

/**
 * Cached per-state energies E[s] = model.evaluate_state(s), built once by
 * the O(2^n) doubling build and reused for every expectation (one dot
 * product) — versus re-evaluating the model O(n+|E|) per state per
 * optimizer iteration. Non-finite coefficients throw fq::Error.
 */
class EnergyTable
{
  public:
    explicit EnergyTable(const ising::IsingModel& model);

    int num_qubits() const { return num_qubits_; }
    const std::vector<double>& values() const { return values_; }

    /** <C> = sum_s |amp_s|^2 E[s]; widths must match. */
    double expectation(const Statevector& state) const;

  private:
    int num_qubits_ = 0;
    std::vector<double> values_;
};

/**
 * A fused circuit compiled for repeated execution. Construction pays the
 * table builds; run() then costs one pass per diagonal layer, half a pass
 * per mixer qubit, and a strided pass per residual gate.
 */
class FusedProgram
{
  public:
    /**
     * The program of qaoa::build_qaoa_circuit(@p model) with
     * @p num_layers layers, built without the circuit: a uniform start,
     * then per layer one gamma-scaled diagonal op and one beta-scaled
     * mixer wall (RX coefficient 2) on every qubit. All diagonal ops share
     * one table over the model's negated terms, linear 0..n-1 then
     * quadratic_terms(), which is the builder's gate order, so its weights
     * equal the fused circuit's bit for bit. Measurements and barriers do
     * nothing in simulation, and the table build skips zero coefficients,
     * so no build option changes the result.
     */
    static FusedProgram from_model(const ising::IsingModel& model,
                                   int num_layers, bool build_luts = true);

    /** Compile @p fused. @p build_luts: see DiagonalTable. */
    explicit FusedProgram(const circuit::FusedCircuit& fused,
                          bool build_luts = true);

    /** Convenience: fuse @p c, then compile. */
    explicit FusedProgram(const circuit::Circuit& c, bool build_luts = true);

    int num_qubits() const { return num_qubits_; }

    /**
     * Run from |0...0> with concrete per-layer parameters into @p out
     * (reset to this program's width first). Thread-safe: const, all
     * mutable state lives in @p out.
     */
    void run(const std::vector<double>& gammas,
             const std::vector<double>& betas, Statevector& out) const;

    /**
     * Same, but the diagonal-layer and mixer-wall passes execute on
     * @p backend's kernels (sim/backend.h). The no-backend overload above
     * runs on the scalar reference backend, so existing callers keep
     * their exact numerics.
     */
    void run(const std::vector<double>& gammas,
             const std::vector<double>& betas, Statevector& out,
             const Backend& backend) const;

    /// @name Structure diagnostics
    /// @{
    int num_diagonal_ops() const { return num_diagonal_ops_; }
    int num_mixer_ops() const { return num_mixer_ops_; }
    /** Distinct weight tables (shared across repeated layers). */
    std::size_t num_tables() const { return tables_.size(); }
    const DiagonalTable& table(std::size_t k) const { return tables_.at(k); }
    /** Total bytes held by the weight tables. */
    std::size_t table_bytes() const
    {
        std::size_t total = 0;
        for (const auto& table : tables_)
            total += table.bytes();
        return total;
    }
    bool starts_uniform() const { return uniform_start_; }
    /// @}

  private:
    struct Op
    {
        circuit::FusedOp::Kind kind;
        circuit::Gate gate{};                 // Kind::Gate
        circuit::Parameter::Kind scale_kind = // Diagonal / Mixer
            circuit::Parameter::Kind::Constant;
        int scale_layer = 0;
        double mixer_coefficient = 0.0; // Mixer
        std::vector<int> qubits;        // Mixer
        std::size_t table = 0;          // Diagonal
    };

    FusedProgram() = default;
    void compile(const circuit::FusedCircuit& fused, bool build_luts);
    static double resolve_scale(circuit::Parameter::Kind kind, int layer,
                                const std::vector<double>& gammas,
                                const std::vector<double>& betas);

    int num_qubits_ = 0;
    bool uniform_start_ = false; ///< leading H wall -> one-pass init
    std::vector<Op> ops_;
    std::vector<DiagonalTable> tables_;
    int num_diagonal_ops_ = 0;
    int num_mixer_ops_ = 0;
};

} // namespace fq::sim

#endif // FQ_SIM_QAOA_KERNEL_H
