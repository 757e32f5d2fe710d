/**
 * @file
 * Diagonal-layer fusion pass.
 *
 * A QAOA cost layer is |E| CX-RZ-CX sandwiches plus up to |V| linear RZs —
 * all diagonal in the computational basis, so their combined action on a
 * basis state s is a single phase. This pass coalesces maximal runs of
 * diagonal gates (plain RZs and CX(a,b)-RZ(b)-CX(a,b) ZZ sandwiches) into
 * one DiagonalLayer op per run, represented as Z-parity terms:
 *
 *   phase(s) = scale * sum_t coefficient_t * parity_sign(s & mask_t),
 *
 * where parity_sign is +1 for even parity of the masked bits and -1 for
 * odd, and scale is 1 for constant-angle runs or the run's shared symbolic
 * parameter (gamma_l / beta_l). Applying the layer for ANY angle is then
 * one pass `amps[s] *= polar(1, scale * w[s])` over a per-state weight
 * table that depends only on circuit structure and coefficients — the
 * simulator side (sim/qaoa_kernel.h) compiles that table once, so every
 * optimizer iteration reuses it.
 *
 * The pass also recognizes mixer walls — maximal runs of RX gates sharing
 * one angle parameter on distinct qubits — so the simulator can apply them
 * with two-qubit-per-pass kernels. Everything else passes through as
 * ordinary gates; fusion never changes circuit semantics.
 *
 * QAOA programs are built straight from the model
 * (sim::FusedProgram::from_model); this pass compiles arbitrary circuits
 * and is the test oracle that from_model must match bit for bit.
 */
#ifndef FQ_CIRCUIT_FUSION_H
#define FQ_CIRCUIT_FUSION_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"

namespace fq::circuit {

/**
 * One Z-parity phase contribution: coefficient * parity_sign(state & mask).
 * A one-bit mask is an RZ, a two-bit mask a fused ZZ sandwich.
 */
struct ParityTerm
{
    std::uint64_t mask = 0;
    double coefficient = 0.0;
};

/** One op of a fused circuit. */
struct FusedOp
{
    enum class Kind : std::uint8_t {
        Diagonal, ///< run of diagonal gates -> parity terms * scale
        Mixer,    ///< run of RX gates sharing one angle on distinct qubits
        Gate,     ///< passthrough
    };

    Kind kind = Kind::Gate;

    /** Kind::Gate — the original gate. */
    Gate gate{};

    /**
     * Kind::Diagonal — the run's shared angle scale: Constant runs apply
     * with scale 1; Gamma/Beta runs scale by the layer's parameter value.
     * Kind::Mixer — the per-qubit RX angle (coefficient * parameter).
     */
    Parameter::Kind scale_kind = Parameter::Kind::Constant;
    int scale_layer = 0;
    /** Kind::Mixer — coefficient of the shared RX angle. */
    double mixer_coefficient = 0.0;

    /** Kind::Diagonal — accumulated parity terms (unique masks). */
    std::vector<ParityTerm> terms;

    /** Kind::Mixer — target qubits, in circuit order. */
    std::vector<int> qubits;

    /** Source gates this op absorbed (1 for passthrough). */
    int fused_gates = 1;
};

/** Fusion result: an op sequence semantically equal to the source. */
struct FusedCircuit
{
    int num_qubits = 0;
    std::vector<FusedOp> ops;
    /** Gate count of the source circuit (MEASURE/BARRIER included). */
    int source_gates = 0;

    int num_diagonal_ops() const;
    int num_mixer_ops() const;
    /** Source gates absorbed into Diagonal/Mixer ops. */
    int gates_fused() const;
};

/**
 * Fuse @p c. Works on parametric and bound circuits alike: a run of
 * diagonal gates joins one Diagonal op when every member shares the same
 * (parameter kind, layer) — constants with constants, gamma_l with gamma_l
 * — so the run collapses to one weight table times one scalar. Runs with
 * mixed parameters split into adjacent Diagonal ops (diagonals commute, so
 * this is exact). MEASURE and BARRIER pass through and end the current run.
 */
FusedCircuit fuse_diagonals(const Circuit& c);

} // namespace fq::circuit

#endif // FQ_CIRCUIT_FUSION_H
