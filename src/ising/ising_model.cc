#include "ising/ising_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/bitops.h"
#include "common/error.h"

namespace fq::ising {

namespace {

/**
 * @p coefficient times the spin of bit 0 of @p bits (1 -> -1): the sign
 * bit flipped, which is what the product by -1 gives for every non-NaN
 * coefficient, signed zeros included.
 */
inline double
signed_by(double coefficient, std::uint64_t bits)
{
    std::uint64_t raw;
    std::memcpy(&raw, &coefficient, sizeof raw);
    raw ^= bits << 63;
    std::memcpy(&coefficient, &raw, sizeof raw);
    return coefficient;
}

} // namespace

IsingModel::IsingModel(int num_spins)
{
    FQ_REQUIRE(num_spins >= 0, "negative spin count");
    linear_.resize(num_spins, 0.0);
    adjacency_.resize(num_spins);
}

void
IsingModel::check_spin(int i) const
{
    FQ_REQUIRE(i >= 0 && i < num_spins(), "spin index out of range");
}

double
IsingModel::linear(int i) const
{
    check_spin(i);
    return linear_[i];
}

void
IsingModel::add_linear(int i, double delta)
{
    check_spin(i);
    linear_[i] += delta;
}

void
IsingModel::set_linear(int i, double value)
{
    check_spin(i);
    linear_[i] = value;
}

void
IsingModel::add_quadratic(int i, int j, double coefficient)
{
    check_spin(i);
    check_spin(j);
    FQ_REQUIRE(i != j, "diagonal quadratic term belongs in the offset");
    if (i > j)
        std::swap(i, j);

    // Accumulate into an existing term when present.
    for (auto& [other, w] : adjacency_[i]) {
        if (other == j) {
            w += coefficient;
            for (auto& [back, wb] : adjacency_[j])
                if (back == i)
                    wb += coefficient;
            for (auto& term : quadratic_)
                if (term.i == i && term.j == j)
                    term.coefficient += coefficient;
            return;
        }
    }
    quadratic_.push_back({i, j, coefficient});
    adjacency_[i].emplace_back(j, coefficient);
    adjacency_[j].emplace_back(i, coefficient);
}

double
IsingModel::quadratic(int i, int j) const
{
    check_spin(i);
    check_spin(j);
    for (const auto& [other, w] : adjacency_[i])
        if (other == j)
            return w;
    return 0.0;
}

const std::vector<std::pair<int, double>>&
IsingModel::couplings_of(int i) const
{
    check_spin(i);
    return adjacency_[i];
}

bool
IsingModel::has_zero_linear_terms() const
{
    for (double h : linear_)
        if (h != 0.0)
            return false;
    return true;
}

void
IsingModel::prune_zero_terms(double epsilon)
{
    std::vector<QuadraticTerm> kept;
    kept.reserve(quadratic_.size());
    for (const auto& term : quadratic_)
        if (std::abs(term.coefficient) > epsilon)
            kept.push_back(term);
    if (kept.size() == quadratic_.size())
        return;
    quadratic_ = std::move(kept);
    for (auto& adj : adjacency_)
        adj.clear();
    for (const auto& term : quadratic_) {
        adjacency_[term.i].emplace_back(term.j, term.coefficient);
        adjacency_[term.j].emplace_back(term.i, term.coefficient);
    }
}

double
IsingModel::evaluate(const SpinVector& z) const
{
    FQ_REQUIRE(static_cast<int>(z.size()) == num_spins(),
               "assignment size mismatch");
    double c = offset_;
    for (int i = 0; i < num_spins(); ++i)
        c += linear_[i] * z[i];
    for (const auto& term : quadratic_)
        c += term.coefficient * z[term.i] * z[term.j];
    return c;
}

double
IsingModel::evaluate_state(std::uint64_t state) const
{
    double c = offset_;
    for (int i = 0; i < num_spins(); ++i)
        c += signed_by(linear_[i], state >> i);
    for (const auto& term : quadratic_)
        c += signed_by(term.coefficient,
                       (state >> term.i) ^ (state >> term.j));
    return c;
}

void
IsingModel::evaluate_states(const std::uint64_t* states, std::size_t count,
                            double* out) const
{
    constexpr std::size_t kBlock = 8;
    std::size_t k = 0;
    for (; k + kBlock <= count; k += kBlock) {
        std::uint64_t s[kBlock];
        double c[kBlock];
        for (std::size_t l = 0; l < kBlock; ++l) {
            s[l] = states[k + l];
            c[l] = offset_;
        }
        for (int i = 0; i < num_spins(); ++i) {
            const double h = linear_[i];
            for (std::size_t l = 0; l < kBlock; ++l)
                c[l] += signed_by(h, s[l] >> i);
        }
        for (const auto& term : quadratic_) {
            const double w = term.coefficient;
            for (std::size_t l = 0; l < kBlock; ++l)
                c[l] += signed_by(w, (s[l] >> term.i) ^ (s[l] >> term.j));
        }
        for (std::size_t l = 0; l < kBlock; ++l)
            out[k + l] = c[l];
    }
    for (; k < count; ++k)
        out[k] = evaluate_state(states[k]);
}

double
IsingModel::flip_delta(const SpinVector& z, int k) const
{
    check_spin(k);
    FQ_REQUIRE(static_cast<int>(z.size()) == num_spins(),
               "assignment size mismatch");
    double local_field = linear_[k];
    for (const auto& [j, w] : adjacency_[k])
        local_field += w * z[j];
    return -2.0 * z[k] * local_field;
}

graph::Graph
IsingModel::to_graph() const
{
    graph::Graph g(num_spins());
    for (const auto& term : quadratic_)
        g.add_edge(term.i, term.j, term.coefficient);
    return g;
}

IsingModel
IsingModel::from_graph(const graph::Graph& g)
{
    IsingModel model(g.num_nodes());
    for (const auto& e : g.edges())
        model.add_quadratic(e.u, e.v, e.weight);
    return model;
}

double
IsingModel::coefficient_magnitude_sum() const
{
    double s = 0.0;
    for (double h : linear_)
        s += std::abs(h);
    for (const auto& term : quadratic_)
        s += std::abs(term.coefficient);
    return s;
}

std::string
IsingModel::summary() const
{
    std::ostringstream os;
    os << "IsingModel(N=" << num_spins() << ", |J|=" << num_quadratic_terms()
       << ", offset=" << offset_
       << (has_zero_linear_terms() ? ", h==0" : ", h!=0") << ")";
    return os.str();
}

std::uint64_t
spins_to_state(const SpinVector& z)
{
    FQ_REQUIRE(z.size() <= 64, "state encoding limited to 64 spins");
    std::uint64_t state = 0;
    for (std::size_t i = 0; i < z.size(); ++i) {
        FQ_REQUIRE(z[i] == 1 || z[i] == -1, "spins must be +-1");
        state = with_spin(state, static_cast<int>(i), z[i]);
    }
    return state;
}

SpinVector
state_to_spins(std::uint64_t state, int n)
{
    FQ_REQUIRE(n >= 0 && n <= 64, "state decoding limited to 64 spins");
    SpinVector z(n);
    for (int i = 0; i < n; ++i)
        z[i] = static_cast<std::int8_t>(spin_of_bit(state, i));
    return z;
}

SpinVector
flip_all(const SpinVector& z)
{
    SpinVector out(z.size());
    for (std::size_t i = 0; i < z.size(); ++i)
        out[i] = static_cast<std::int8_t>(-z[i]);
    return out;
}

} // namespace fq::ising
