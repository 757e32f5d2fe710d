#include "sim/qaoa_kernel.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <unordered_map>

#include "common/bitops.h"
#include "common/error.h"
#include "common/rng.h"
#include "sim/backend.h"
#include "sim/kernels.h"

namespace fq::sim {

namespace {

/** Tables are bounded by the simulator width cap. */
constexpr int kMaxTableQubits = kMaxSimQubits;

/**
 * Add coefficient * parity_sign(s & mask) to every slot of @p values.
 * One- and two-bit masks (all that fusion emits) get branch-free strided
 * passes; wider masks fall back to a popcount-parity pass.
 */
void
accumulate_parity(std::vector<double>& values, std::uint64_t mask,
                  double coefficient)
{
    const std::uint64_t dim = values.size();
    const int bits = popcount64(mask);
    if (coefficient == 0.0)
        return;
    if (bits == 0) {
        for (std::uint64_t s = 0; s < dim; ++s)
            values[s] += coefficient;
        return;
    }
    if (bits == 1) {
        kernels::for_each_pair(dim, mask,
                               [&](std::uint64_t i0, std::uint64_t i1) {
                                   values[i0] += coefficient;
                                   values[i1] -= coefficient;
                               });
        return;
    }
    if (bits == 2) {
        const std::uint64_t lo = mask & (~mask + 1);
        const std::uint64_t hi = mask ^ lo;
        kernels::for_each_quad(dim, lo, hi, [&](std::uint64_t i00) {
            values[i00] += coefficient;
            values[i00 | lo] -= coefficient;
            values[i00 | hi] -= coefficient;
            values[i00 | lo | hi] += coefficient;
        });
        return;
    }
    for (std::uint64_t s = 0; s < dim; ++s) {
        const double sign = 1.0 - 2.0 * (popcount64(s & mask) & 1);
        values[s] += coefficient * sign;
    }
}

std::uint64_t
double_bits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Content fingerprint of a term list (for table sharing across layers). */
std::uint64_t
terms_fingerprint(const std::vector<circuit::ParityTerm>& terms)
{
    std::uint64_t h = hash_seed("fq-diagonal-terms");
    for (const auto& term : terms) {
        h = combine_seeds(h, term.mask);
        h = combine_seeds(h, double_bits(term.coefficient));
    }
    return h;
}

} // namespace

// ------------------------------------------------------------------------
// DiagonalTable

DiagonalTable::DiagonalTable(const std::vector<circuit::ParityTerm>& terms,
                             int num_qubits, bool build_lut)
{
    FQ_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxTableQubits,
               "diagonal table limited to 1..26 qubits");
    dimension_ = std::uint64_t(1) << num_qubits;
    weights_.assign(dimension_, 0.0);
    for (const auto& term : terms) {
        FQ_REQUIRE(term.mask < dimension_, "parity mask exceeds register");
        accumulate_parity(weights_, term.mask, term.coefficient);
    }

    if (!build_lut)
        return;
    // Try to collapse to distinct levels: structured instances (+-1 edge
    // weights, integer couplings) produce O(|E|) distinct sums, so the
    // apply pass becomes a uint16 gather instead of a sincos per state.
    std::unordered_map<std::uint64_t, std::uint16_t> slot_of;
    slot_of.reserve(kMaxLevels * 2);
    std::vector<std::uint16_t> index(dimension_);
    for (std::uint64_t s = 0; s < dimension_; ++s) {
        const std::uint64_t bits = double_bits(weights_[s]);
        auto it = slot_of.find(bits);
        if (it == slot_of.end()) {
            if (levels_.size() >= kMaxLevels) {
                levels_.clear();
                return; // too many distinct values; keep the raw table
            }
            it = slot_of
                     .emplace(bits,
                              static_cast<std::uint16_t>(levels_.size()))
                     .first;
            levels_.push_back(weights_[s]);
        }
        index[s] = it->second;
    }
    level_index_ = std::move(index);
    weights_.clear();
    weights_.shrink_to_fit();
}

void
DiagonalTable::apply(Statevector::Amplitude* amps, double scale) const
{
    if (!levels_.empty()) {
        std::vector<Statevector::Amplitude> phases(levels_.size());
        for (std::size_t k = 0; k < levels_.size(); ++k)
            phases[k] = std::polar(1.0, scale * levels_[k]);
        const std::uint16_t* idx = level_index_.data();
        for (std::uint64_t s = 0; s < dimension_; ++s)
            amps[s] *= phases[idx[s]];
        return;
    }
    for (std::uint64_t s = 0; s < dimension_; ++s)
        amps[s] *= std::polar(1.0, scale * weights_[s]);
}

double
DiagonalTable::weight(std::uint64_t state) const
{
    FQ_REQUIRE(state < dimension_, "state out of range");
    if (!levels_.empty())
        return levels_[level_index_[state]];
    return weights_[state];
}

// ------------------------------------------------------------------------
// EnergyTable

EnergyTable::EnergyTable(const ising::IsingModel& model)
    : num_qubits_(model.num_spins())
{
    FQ_REQUIRE(num_qubits_ >= 1 && num_qubits_ <= kMaxTableQubits,
               "energy table limited to 1..26 qubits");
    values_.assign(std::uint64_t(1) << num_qubits_, model.offset());
    for (int i = 0; i < num_qubits_; ++i)
        accumulate_parity(values_, std::uint64_t(1) << i, model.linear(i));
    for (const auto& term : model.quadratic_terms())
        accumulate_parity(values_,
                          (std::uint64_t(1) << term.i) |
                              (std::uint64_t(1) << term.j),
                          term.coefficient);
}

void
EnergyTable::rebind(const ising::IsingModel& model)
{
    FQ_REQUIRE(model.num_spins() == num_qubits_,
               "energy table rebind requires matching width");
    std::fill(values_.begin(), values_.end(), model.offset());
    for (int i = 0; i < num_qubits_; ++i)
        accumulate_parity(values_, std::uint64_t(1) << i, model.linear(i));
    for (const auto& term : model.quadratic_terms())
        accumulate_parity(values_,
                          (std::uint64_t(1) << term.i) |
                              (std::uint64_t(1) << term.j),
                          term.coefficient);
}

double
EnergyTable::expectation(const Statevector& state) const
{
    FQ_REQUIRE(state.num_qubits() == num_qubits_,
               "energy table width must match state width");
    const Statevector::Amplitude* amps = state.data();
    double ev = 0.0;
    for (std::size_t s = 0; s < values_.size(); ++s)
        ev += std::norm(amps[s]) * values_[s];
    return ev;
}

// ------------------------------------------------------------------------
// FusedProgram

FusedProgram::FusedProgram(const circuit::FusedCircuit& fused,
                           bool build_luts)
{
    compile(fused, build_luts);
}

FusedProgram::FusedProgram(const circuit::Circuit& c, bool build_luts)
{
    compile(circuit::fuse_diagonals(c), build_luts);
}

void
FusedProgram::compile(const circuit::FusedCircuit& fused, bool build_luts)
{
    num_qubits_ = fused.num_qubits;
    FQ_REQUIRE(num_qubits_ >= 1 && num_qubits_ <= kMaxTableQubits,
               "fused program limited to 1..26 qubits");
    num_diagonal_ops_ = fused.num_diagonal_ops();
    num_mixer_ops_ = fused.num_mixer_ops();
    gates_fused_ = fused.gates_fused();

    // Leading Hadamard wall (H on every qubit exactly once, the standard
    // QAOA opening) collapses to a one-pass uniform initialization.
    std::size_t start = 0;
    {
        std::uint64_t covered = 0;
        std::size_t k = 0;
        for (; k < fused.ops.size(); ++k) {
            const auto& op = fused.ops[k];
            if (op.kind != circuit::FusedOp::Kind::Gate ||
                op.gate.type != circuit::GateType::H)
                break;
            const std::uint64_t bit = std::uint64_t(1) << op.gate.q0;
            if (covered & bit)
                break;
            covered |= bit;
        }
        const std::uint64_t all =
            (num_qubits_ == 64) ? ~0ull
                                : ((std::uint64_t(1) << num_qubits_) - 1);
        if (covered == all) {
            uniform_start_ = true;
            start = k;
            gates_fused_ += num_qubits_;
        }
    }

    // Share weight tables between ops with identical term content (the p
    // cost layers of one QAOA circuit are structurally the same table).
    // Fingerprint hits are confirmed by exact term comparison — an O(|E|)
    // check against silently sharing a wrong table on a hash collision.
    std::unordered_map<std::uint64_t, std::size_t> table_of;
    std::vector<const std::vector<circuit::ParityTerm>*> table_terms;
    const auto same_terms = [](const std::vector<circuit::ParityTerm>& a,
                               const std::vector<circuit::ParityTerm>& b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t t = 0; t < a.size(); ++t)
            if (a[t].mask != b[t].mask ||
                a[t].coefficient != b[t].coefficient)
                return false;
        return true;
    };
    for (std::size_t k = start; k < fused.ops.size(); ++k) {
        const auto& src = fused.ops[k];
        Op op;
        op.kind = src.kind;
        switch (src.kind) {
          case circuit::FusedOp::Kind::Diagonal: {
            op.scale_kind = src.scale_kind;
            op.scale_layer = src.scale_layer;
            const std::uint64_t key = terms_fingerprint(src.terms);
            const auto it = table_of.find(key);
            if (it != table_of.end() &&
                same_terms(*table_terms[it->second], src.terms)) {
                op.table = it->second;
            } else {
                op.table = tables_.size();
                tables_.emplace_back(src.terms, num_qubits_, build_luts);
                table_terms.push_back(&src.terms);
                table_of[key] = op.table;
            }
            break;
          }
          case circuit::FusedOp::Kind::Mixer:
            op.scale_kind = src.scale_kind;
            op.scale_layer = src.scale_layer;
            op.mixer_coefficient = src.mixer_coefficient;
            op.qubits = src.qubits;
            break;
          case circuit::FusedOp::Kind::Gate:
            op.gate = src.gate;
            break;
        }
        ops_.push_back(std::move(op));
    }
}

double
FusedProgram::resolve_scale(circuit::Parameter::Kind kind, int layer,
                            const std::vector<double>& gammas,
                            const std::vector<double>& betas)
{
    using Kind = circuit::Parameter::Kind;
    switch (kind) {
      case Kind::Constant:
        return 1.0;
      case Kind::Gamma:
        FQ_REQUIRE(layer >= 0 && layer < static_cast<int>(gammas.size()),
                   "gamma layer index out of range");
        return gammas[static_cast<std::size_t>(layer)];
      case Kind::Beta:
        FQ_REQUIRE(layer >= 0 && layer < static_cast<int>(betas.size()),
                   "beta layer index out of range");
        return betas[static_cast<std::size_t>(layer)];
    }
    return 1.0;
}

void
FusedProgram::run(const std::vector<double>& gammas,
                  const std::vector<double>& betas, Statevector& out) const
{
    run(gammas, betas, out, BackendRegistry::instance().scalar());
}

void
FusedProgram::run(const std::vector<double>& gammas,
                  const std::vector<double>& betas, Statevector& out,
                  const Backend& backend) const
{
    if (uniform_start_)
        out.reset_uniform(num_qubits_);
    else
        out.reset(num_qubits_);
    Statevector::Amplitude* amps = out.data();
    const std::uint64_t dim = out.dimension();

    for (const auto& op : ops_) {
        switch (op.kind) {
          case circuit::FusedOp::Kind::Diagonal: {
            const double scale =
                resolve_scale(op.scale_kind, op.scale_layer, gammas, betas);
            backend.apply_diagonal(tables_[op.table], amps, scale);
            break;
          }
          case circuit::FusedOp::Kind::Mixer: {
            const double theta =
                op.mixer_coefficient *
                resolve_scale(op.scale_kind, op.scale_layer, gammas, betas);
            backend.apply_mixer_wall(amps, dim, op.qubits, theta);
            break;
          }
          case circuit::FusedOp::Kind::Gate: {
            // Residual gates stay on the shared strided kernels — they
            // are rare (non-QAOA shapes) and identical on every backend.
            circuit::Gate g = op.gate;
            if (circuit::has_angle(g.type) && !g.angle.is_constant())
                g.angle = circuit::Parameter::constant(
                    g.angle.resolve(gammas, betas));
            out.apply_gate(g);
            break;
          }
        }
    }
}

} // namespace fq::sim
