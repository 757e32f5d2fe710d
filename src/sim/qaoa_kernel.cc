#include "sim/qaoa_kernel.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/bitops.h"
#include "common/error.h"
#include "sim/backend.h"

namespace fq::sim {

namespace {

/** Tables are bounded by the simulator width cap. */
constexpr int kMaxTableQubits = kMaxSimQubits;

/** exact_scale's answer when the parity sums are not exact. */
constexpr int kInexact = -1;

/** Largest q of a common coefficient grid 2^-q that still counts exact. */
constexpr int kMaxScaleBits = 30;

/** Low-bit span of the per-bit delta tables (8 KiB: stays in L1). */
constexpr int kDeltaLowBits = 10;

/** Widest scaled value range whose levels are found by direct indexing. */
constexpr std::uint64_t kDenseLevelRange = std::uint64_t(1) << 16;

/** Index of the lowest set bit of @p x (x != 0). */
int
lowest_bit(std::uint64_t x)
{
    return popcount64((x & (~x + 1)) - 1);
}

/** Smallest q >= 0 with @p c on the grid 2^-q (c finite). */
int
grid_bits(double c)
{
    // Integers (every +-1 class) settle without a libm call.
    constexpr double kTwo62 = 4611686018427387904.0;
    if (std::fabs(c) < kTwo62 &&
        static_cast<double>(static_cast<std::int64_t>(c)) == c)
        return 0;
    // |c| = mant * 2^(e - 53) with a 53-bit integer mant, so c sits on
    // the grid 2^-q for q = 53 - e - (trailing zeros of mant).
    int e = 0;
    const auto mant = static_cast<std::uint64_t>(
        std::ldexp(std::frexp(std::fabs(c), &e), 53));
    return 53 - e - lowest_bit(mant);
}

/** The q of parity_sums_exact(@p terms, @p base), or kInexact. */
int
exact_scale(const std::vector<circuit::ParityTerm>& terms, double base)
{
    if (!std::isfinite(base))
        return kInexact;
    int q = grid_bits(base);
    for (const auto& term : terms) {
        if (!std::isfinite(term.coefficient))
            return kInexact;
        q = std::max(q, grid_bits(term.coefficient));
    }
    if (q > kMaxScaleBits)
        return kInexact;
    // 2 * sum|c| * 2^q <= 2^52, summed in integers so the test is exact.
    constexpr std::uint64_t kLimit = std::uint64_t(1) << 51;
    std::uint64_t sum = 0;
    const auto add = [&](double c) {
        const double scaled =
            q == 0 ? std::fabs(c) : std::ldexp(std::fabs(c), q);
        if (sum <= kLimit)
            sum = scaled > static_cast<double>(kLimit)
                      ? kLimit + 1
                      : sum + static_cast<std::uint64_t>(scaled);
    };
    add(base);
    for (const auto& term : terms)
        add(term.coefficient);
    return sum <= kLimit ? q : kInexact;
}

/** @p model's linear then quadratic terms, in the model's own order. */
std::vector<circuit::ParityTerm>
model_terms(const ising::IsingModel& model)
{
    std::vector<circuit::ParityTerm> terms;
    terms.reserve(static_cast<std::size_t>(model.num_spins()) +
                  model.quadratic_terms().size());
    for (int i = 0; i < model.num_spins(); ++i)
        terms.push_back({std::uint64_t(1) << i, model.linear(i)});
    for (const auto& term : model.quadratic_terms())
        terms.push_back({(std::uint64_t(1) << term.i) |
                             (std::uint64_t(1) << term.j),
                         term.coefficient});
    return terms;
}

/** table[x] = start - sum_{j : bit j of x} slopes[j] over 2^bits slots. */
template <typename T>
void
fill_linear(std::vector<T>& table, T start, const T* slopes, int bits)
{
    table.resize(std::uint64_t(1) << bits);
    table[0] = start;
    for (int j = 0; j < bits; ++j) {
        const std::uint64_t half = std::uint64_t(1) << j;
        const T slope = slopes[j];
        for (std::uint64_t x = 0; x < half; ++x)
            table[half + x] = static_cast<T>(table[x] - slope);
    }
}

/**
 * The one per-state table builder: w[s] = base + sum_t c_t *
 * parity_sign(s & mask_t) for all 2^n states.
 *
 * Doubling: w[0] = base + sum_t c_t, and for s < 2^k
 *   w[s | 2^k] = w[s] - sum_{t containing k} 2 c_t sign(s & mask_t).
 * A term whose other bits all sit above k adds a per-bit constant; one
 * with a single lower bit j adds +-2c_t by bit j of s. Both are linear in
 * the bits of s, so that part of the delta comes from two small tables
 * over the low and high bits of s, built by the same doubling. Only a
 * term with two or more bits below k pays a per-state parity pass at
 * level k.
 *
 * Zero coefficients are skipped, as the term-by-term sum skipped them, so
 * signed zeros match it whenever the sums are exact.
 */
class ParitySums
{
  public:
    ParitySums(const std::vector<circuit::ParityTerm>& terms, double base,
               int num_qubits)
        : num_qubits_(num_qubits), base_(base)
    {
        const std::uint64_t dim = std::uint64_t(1) << num_qubits;
        FQ_REQUIRE(std::isfinite(base), "table offset must be finite");
        for (const auto& term : terms) {
            FQ_REQUIRE(term.mask < dim, "parity mask exceeds register");
            FQ_REQUIRE(std::isfinite(term.coefficient),
                       "parity coefficient must be finite");
            magnitude_ += std::fabs(term.coefficient);
        }
        FQ_REQUIRE(std::isfinite(magnitude_ + std::fabs(base)),
                   "parity coefficient magnitudes overflow a double");
        scale_ = exact_scale(terms, base);

        const auto n = static_cast<std::size_t>(num_qubits);
        step_.assign(n, 0.0);
        slope_.assign(n * n, 0.0);
        first_ = base;
        for (const auto& term : terms) {
            const double c = term.coefficient;
            if (c == 0.0)
                continue;
            first_ += c;
            for (std::uint64_t rest = term.mask; rest != 0;
                 rest &= rest - 1) {
                const int k = lowest_bit(rest);
                const std::uint64_t low =
                    term.mask & ((std::uint64_t(1) << k) - 1);
                const auto level = static_cast<std::size_t>(k);
                if (low == 0) {
                    step_[level] += 2.0 * c;
                } else if ((low & (low - 1)) == 0) {
                    step_[level] += 2.0 * c;
                    slope_[level * n +
                           static_cast<std::size_t>(lowest_bit(low))] +=
                        4.0 * c;
                } else {
                    wide_.push_back({k, low, 2.0 * c});
                }
            }
        }
    }

    /** q of parity_sums_exact, or kInexact. */
    int scale() const { return scale_; }
    /** base - sum|c_t|: a lower bound on every w[s]. */
    double lowest() const { return base_ - magnitude_; }
    /** Grid steps between lowest() and the matching upper bound (exact
     *  sums only). */
    double span() const { return std::ldexp(2.0 * magnitude_, scale_); }

    /** out[s] = w[s], reusing @p out's buffer. */
    void
    fill(std::vector<double>& out) const
    {
        out.resize(std::uint64_t(1) << num_qubits_);
        run(out.data(), first_, [](double x) { return x; });
    }

    /**
     * out[s] = (w[s] - lowest()) * 2^q for exact sums with span() below
     * 2^16: the doubling runs in 16-bit wrap-around arithmetic, exact
     * because every final key fits.
     */
    void
    fill_keys(std::uint16_t* out) const
    {
        const auto key = [this](double x) {
            return static_cast<std::uint16_t>(
                static_cast<std::int64_t>(std::ldexp(x, scale_)));
        };
        run(out, key(first_ - lowest()), key);
    }

  private:
    struct WideTerm
    {
        int level;
        std::uint64_t low;
        double delta;
    };

    template <typename T, typename Cast>
    void
    run(T* w, T first, const Cast& cast) const
    {
        const auto n = static_cast<std::size_t>(num_qubits_);
        std::vector<T> slopes(n), low_delta, high_delta;
        w[0] = first;
        for (int k = 0; k < num_qubits_; ++k) {
            const std::uint64_t half = std::uint64_t(1) << k;
            const int low_bits = std::min(k, kDeltaLowBits);
            for (int j = 0; j < k; ++j)
                slopes[static_cast<std::size_t>(j)] = cast(
                    slope_[static_cast<std::size_t>(k) * n +
                           static_cast<std::size_t>(j)]);
            fill_linear(low_delta, cast(step_[static_cast<std::size_t>(k)]),
                        slopes.data(), low_bits);
            fill_linear(high_delta, T(0), slopes.data() + low_bits,
                        k - low_bits);
            const std::uint64_t span = std::uint64_t(1) << low_bits;
            const T* lows = low_delta.data();
            for (std::uint64_t hi = 0; hi < high_delta.size(); ++hi) {
                const T high = high_delta[hi];
                const T* src = w + hi * span;
                T* dst = w + half + hi * span;
                for (std::uint64_t lo = 0; lo < span; ++lo)
                    dst[lo] = static_cast<T>(src[lo] - (lows[lo] + high));
            }
            for (const auto& term : wide_) {
                if (term.level != k)
                    continue;
                const T delta = cast(term.delta);
                const T negated = cast(-term.delta);
                for (std::uint64_t s = 0; s < half; ++s)
                    w[half + s] = static_cast<T>(
                        w[half + s] -
                        ((popcount64(s & term.low) & 1) ? negated : delta));
            }
        }
    }

    int num_qubits_;
    double base_;
    double magnitude_ = 0.0;
    int scale_ = kInexact;
    double first_ = 0.0;       ///< w[0]
    std::vector<double> step_; ///< per level k: constant part of its delta
    std::vector<double> slope_; ///< [k * n + j]: delta slope in bit j
    std::vector<WideTerm> wide_;
};

} // namespace

bool
parity_sums_exact(const std::vector<circuit::ParityTerm>& terms, double base)
{
    return exact_scale(terms, base) != kInexact;
}

bool
parity_sums_exact(const ising::IsingModel& model)
{
    return parity_sums_exact(model_terms(model), model.offset());
}

// ------------------------------------------------------------------------
// DiagonalTable

DiagonalTable::DiagonalTable(const std::vector<circuit::ParityTerm>& terms,
                             int num_qubits, bool build_lut)
{
    FQ_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxTableQubits,
               "diagonal table limited to 1..26 qubits");
    dimension_ = std::uint64_t(1) << num_qubits;
    const ParitySums sums(terms, 0.0, num_qubits);
    const bool exact = sums.scale() != kInexact;

    // Exact weights are integers on the 2^-q grid, so on a narrow grid
    // each state's level comes straight from its scaled value: structured
    // instances (+-1 edge weights, integer couplings) produce O(|E|)
    // distinct sums, and the apply pass becomes a uint16 gather instead
    // of a sincos per state.
    if (build_lut && exact &&
        sums.span() < static_cast<double>(kDenseLevelRange)) {
        std::vector<std::uint16_t> index(dimension_);
        sums.fill_keys(index.data());
        std::vector<std::uint16_t> slot(
            static_cast<std::size_t>(sums.span()) + 1, 0);
        for (const std::uint16_t key : index)
            slot[key] = 1;
        for (std::size_t v = 0; v < slot.size(); ++v) {
            if (!slot[v])
                continue;
            if (levels_.size() == kMaxLevels) {
                levels_.clear();
                break; // too many distinct values; keep the raw table
            }
            slot[v] = static_cast<std::uint16_t>(levels_.size());
            levels_.push_back(
                std::ldexp(static_cast<double>(v), -sums.scale()) +
                sums.lowest());
        }
        if (!levels_.empty()) {
            for (auto& key : index)
                key = slot[key];
            level_index_ = std::move(index);
            return;
        }
    }

    sums.fill(weights_);
    if (!build_lut || !exact ||
        sums.span() < static_cast<double>(kDenseLevelRange))
        return;
    // Too wide a grid to index directly (tiny steps beside large
    // coefficients): sort the distinct values instead.
    std::vector<double> sorted(weights_);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    if (sorted.size() > kMaxLevels)
        return;
    levels_ = std::move(sorted);
    level_index_.resize(dimension_);
    for (std::uint64_t s = 0; s < dimension_; ++s)
        level_index_[s] = static_cast<std::uint16_t>(
            std::lower_bound(levels_.begin(), levels_.end(), weights_[s]) -
            levels_.begin());
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
    rebind(model);
}

void
EnergyTable::rebind(const ising::IsingModel& model)
{
    FQ_REQUIRE(model.num_spins() == num_qubits_,
               "energy table rebind requires matching width");
    ParitySums(model_terms(model), model.offset(), num_qubits_)
        .fill(values_);
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
    // A circuit holds one diagonal op per layer, so a linear scan of the
    // tables built so far is all the lookup needed.
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
            const auto shared = std::find_if(
                table_terms.begin(), table_terms.end(),
                [&](const auto* terms) { return same_terms(*terms, src.terms); });
            op.table = static_cast<std::size_t>(shared - table_terms.begin());
            if (shared == table_terms.end()) {
                tables_.emplace_back(src.terms, num_qubits_, build_luts);
                table_terms.push_back(&src.terms);
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
