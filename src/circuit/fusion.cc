#include "circuit/fusion.h"

#include <unordered_map>

namespace fq::circuit {

namespace {

/**
 * One recognized diagonal unit: a plain RZ (1-bit mask) or a ZZ sandwich
 * (2-bit mask), with the phase convention
 *
 *   RZ(q, theta)  = diag(e^{-i theta/2}, e^{+i theta/2})
 *     -> phase(s) = -(theta/2) * parity_sign(s & (1<<q)),
 *   CX RZ(theta) CX = RZZ(theta)
 *     -> phase(s) = -(theta/2) * parity_sign(s & (1<<a | 1<<b)),
 *
 * so the parity coefficient is -coefficient/2 in both cases, with theta =
 * coefficient * (1 | gamma_l | beta_l).
 */
struct DiagonalUnit
{
    std::uint64_t mask = 0;
    Parameter angle{};
    int gates = 0; ///< source gates consumed (1 or 3)
};

/** Try to match a diagonal unit starting at gate index @p i. */
bool
match_diagonal(const std::vector<Gate>& gates, std::size_t i,
               DiagonalUnit* unit)
{
    const Gate& g = gates[i];
    if (g.type == GateType::RZ) {
        unit->mask = std::uint64_t(1) << g.q0;
        unit->angle = g.angle;
        unit->gates = 1;
        return true;
    }
    if (g.type == GateType::CX && i + 2 < gates.size()) {
        const Gate& rz = gates[i + 1];
        const Gate& cx = gates[i + 2];
        if (rz.type == GateType::RZ && rz.q0 == g.q1 &&
            cx.type == GateType::CX && cx.q0 == g.q0 && cx.q1 == g.q1) {
            unit->mask = (std::uint64_t(1) << g.q0) |
                         (std::uint64_t(1) << g.q1);
            unit->angle = rz.angle;
            unit->gates = 3;
            return true;
        }
    }
    return false;
}

/** True when @p angle can join a Diagonal op with the given scale. */
bool
joins_scale(const Parameter& angle, Parameter::Kind kind, int layer)
{
    if (angle.kind != kind)
        return false;
    return angle.is_constant() || angle.layer == layer;
}

class Builder
{
  public:
    explicit Builder(const Circuit& c) : out_{}
    {
        out_.num_qubits = c.num_qubits();
        out_.source_gates = static_cast<int>(c.size());
    }

    void
    add_diagonal_unit(const DiagonalUnit& unit)
    {
        if (current_ == nullptr ||
            !joins_scale(unit.angle, current_->scale_kind,
                         current_->scale_layer)) {
            flush();
            FusedOp op;
            op.kind = FusedOp::Kind::Diagonal;
            op.scale_kind = unit.angle.kind;
            op.scale_layer = unit.angle.layer;
            op.fused_gates = 0;
            out_.ops.push_back(std::move(op));
            current_ = &out_.ops.back();
            mask_slot_.clear();
        }
        // Accumulate onto an existing term with the same mask (duplicate
        // RZs on a qubit, parallel edges) instead of growing the term list.
        const auto it = mask_slot_.find(unit.mask);
        if (it != mask_slot_.end()) {
            current_->terms[it->second].coefficient +=
                -unit.angle.coefficient / 2.0;
        } else {
            mask_slot_[unit.mask] = current_->terms.size();
            current_->terms.push_back(
                {unit.mask, -unit.angle.coefficient / 2.0});
        }
        current_->fused_gates += unit.gates;
    }

    void
    add_mixer_gate(const Gate& g)
    {
        const bool joins =
            mixer_ != nullptr && g.angle.kind == mixer_->scale_kind &&
            (g.angle.is_constant() ||
             g.angle.layer == mixer_->scale_layer) &&
            g.angle.coefficient == mixer_->mixer_coefficient &&
            !mixer_covers(g.q0);
        if (!joins) {
            flush();
            FusedOp op;
            op.kind = FusedOp::Kind::Mixer;
            op.scale_kind = g.angle.kind;
            op.scale_layer = g.angle.layer;
            op.mixer_coefficient = g.angle.coefficient;
            op.fused_gates = 0;
            out_.ops.push_back(std::move(op));
            mixer_ = &out_.ops.back();
        }
        mixer_->qubits.push_back(g.q0);
        ++mixer_->fused_gates;
    }

    void
    add_gate(const Gate& g)
    {
        flush();
        FusedOp op;
        op.kind = FusedOp::Kind::Gate;
        op.gate = g;
        out_.ops.push_back(std::move(op));
    }

    FusedCircuit
    take()
    {
        flush();
        return std::move(out_);
    }

  private:
    bool
    mixer_covers(int q) const
    {
        for (int covered : mixer_->qubits)
            if (covered == q)
                return true;
        return false;
    }

    void
    flush()
    {
        current_ = nullptr;
        mixer_ = nullptr;
        mask_slot_.clear();
    }

    FusedCircuit out_;
    FusedOp* current_ = nullptr; ///< open Diagonal op, if any
    FusedOp* mixer_ = nullptr;   ///< open Mixer op, if any
    std::unordered_map<std::uint64_t, std::size_t> mask_slot_;
};

} // namespace

int
FusedCircuit::num_diagonal_ops() const
{
    int n = 0;
    for (const auto& op : ops)
        if (op.kind == FusedOp::Kind::Diagonal)
            ++n;
    return n;
}

int
FusedCircuit::num_mixer_ops() const
{
    int n = 0;
    for (const auto& op : ops)
        if (op.kind == FusedOp::Kind::Mixer)
            ++n;
    return n;
}

int
FusedCircuit::gates_fused() const
{
    int n = 0;
    for (const auto& op : ops)
        if (op.kind != FusedOp::Kind::Gate)
            n += op.fused_gates;
    return n;
}

FusedCircuit
fuse_diagonals(const Circuit& c)
{
    Builder builder(c);
    const auto& gates = c.gates();
    std::size_t i = 0;
    while (i < gates.size()) {
        DiagonalUnit unit;
        if (match_diagonal(gates, i, &unit)) {
            builder.add_diagonal_unit(unit);
            i += unit.gates;
            continue;
        }
        if (gates[i].type == GateType::RX) {
            builder.add_mixer_gate(gates[i]);
            ++i;
            continue;
        }
        builder.add_gate(gates[i]);
        ++i;
    }
    return builder.take();
}

} // namespace fq::circuit
