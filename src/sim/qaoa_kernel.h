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
 *     pass amps[s] *= polar(1, scale * w[s]). Tables whose weights take
 *     few distinct values (every +-1-weighted benchmark class) compress to
 *     a level LUT: the per-state work drops to one uint16 load and one
 *     complex multiply, with |levels| sincos calls per application.
 *
 *   EnergyTable — E[s] = model.evaluate_state(s) computed once; every
 *     expectation is then a dot product with the probabilities.
 *
 *   FusedProgram — a compiled fused circuit: leading Hadamard wall becomes
 *     a one-pass uniform init, diagonal layers apply through their tables,
 *     mixer walls run on the paired-RX kernel (half the memory traffic),
 *     and everything else goes through the strided kernels. run() is
 *     const and thread-safe: the engine shares one program across worker
 *     threads, each writing its own scratch Statevector.
 *
 * The engine's TemplateCache owns FusedPrograms keyed by (structure,
 * coefficients, build options), extending the paper's compile-once
 * template editing (Section 3.7.1) down into the simulator.
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
 * Per-state weight table for one fused diagonal layer:
 * phase(s) = scale * weight(s). Immutable after construction.
 */
class DiagonalTable
{
  public:
    /**
     * Build the table for @p terms over @p num_qubits qubits. With
     * @p build_lut set, weights collapsing to at most kMaxLevels distinct
     * values are stored as (levels, per-state level index); the raw table
     * is kept otherwise. Skip the LUT for one-shot use — its build cost
     * only amortizes when the table is applied many times.
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
    /** Distinct weight values (empty unless compressed()). */
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
 * Cached per-state energies E[s] = model.evaluate_state(s), built once in
 * O((|V|+|E|) 2^n) branch-free passes and reused for every expectation
 * (one dot product) — versus re-evaluating the model O(n+|E|) per state
 * per optimizer iteration.
 */
class EnergyTable
{
  public:
    explicit EnergyTable(const ising::IsingModel& model);

    /**
     * Re-fill this table in place for @p model (same width required) —
     * the parameter-patch fast path for family-shaped workloads: the
     * 2^n buffer is reused instead of reallocated, and the result is
     * bit-identical to constructing EnergyTable(model) from scratch.
     */
    void rebind(const ising::IsingModel& model);

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
    /** Compile @p fused. @p build_luts: see DiagonalTable. */
    explicit FusedProgram(const circuit::FusedCircuit& fused,
                          bool build_luts = true);

    /** Convenience: fuse @p c with default options, then compile. */
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
    int gates_fused() const { return gates_fused_; }
    /** Distinct weight tables (shared across repeated layers). */
    std::size_t num_tables() const { return tables_.size(); }
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
    int gates_fused_ = 0;
};

} // namespace fq::sim

#endif // FQ_SIM_QAOA_KERNEL_H
