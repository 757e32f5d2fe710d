#include "qaoa/analytic_p1.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/error.h"

namespace fq::qaoa {

namespace {

std::uint64_t
bits_of(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/** Dedups the arguments x of f(2g x) by their exact bits. */
class ArgumentTable
{
  public:
    int
    index_of(double x)
    {
        const auto [it, inserted] =
            index_.emplace(bits_of(x), static_cast<int>(args.size()));
        if (inserted)
            args.push_back(x);
        return it->second;
    }

    std::vector<double> args;

  private:
    std::unordered_map<std::uint64_t, int> index_;
};

/**
 * The angle-independent part of the closed form, built once per call.
 * Every cos(2g x) and sin(2g x) the formula needs is named by an index into
 * a table of distinct arguments x, so a row evaluates each distinct value
 * once (integer-weight instances have a handful) and every product reads
 * it back in the order the formula multiplies.
 */
struct P1Structure
{
    struct Term
    {
        int i, j;
        double coefficient;
        int sin_j;                  ///< sin(2g J_ij)
        int cos_hsum, cos_hdiff;    ///< cos(2g (h_i +- h_j))
        int merged_begin, merged_end;
    };

    explicit P1Structure(const ising::IsingModel& model);

    ArgumentTable cos_args, sin_args;
    double offset;
    std::vector<double> h;
    std::vector<int> sin_h, cos_h;
    /** CSR adjacency in couplings_of() order: neighbor and cos(2g J). */
    std::vector<int> adj_begin, adj_spin, adj_cos;
    std::vector<Term> terms;
    /**
     * cos(2g (J_ik + J_jk)) and cos(2g (J_ik - J_jk)) over the union of
     * both neighborhoods (k != i, j), in the iteration order of the
     * unordered_map merge that defines the product order.
     */
    std::vector<std::pair<int, int>> merged;
};

P1Structure::P1Structure(const ising::IsingModel& model)
    : offset(model.offset()), h(model.linear_terms())
{
    const int n = model.num_spins();
    for (int i = 0; i < n; ++i) {
        sin_h.push_back(sin_args.index_of(h[i]));
        cos_h.push_back(cos_args.index_of(h[i]));
    }
    adj_begin.push_back(0);
    for (int i = 0; i < n; ++i) {
        for (const auto& [k, J] : model.couplings_of(i)) {
            adj_spin.push_back(k);
            adj_cos.push_back(cos_args.index_of(J));
        }
        adj_begin.push_back(static_cast<int>(adj_spin.size()));
    }
    for (const auto& term : model.quadratic_terms()) {
        const int i = term.i, j = term.j;
        std::unordered_map<int, std::pair<double, double>> by_spin;
        for (const auto& [k, J] : model.couplings_of(i))
            if (k != j)
                by_spin[k].first = J;
        for (const auto& [k, J] : model.couplings_of(j))
            if (k != i)
                by_spin[k].second = J;
        const int begin = static_cast<int>(merged.size());
        for (const auto& [k, Js] : by_spin) {
            (void)k;
            merged.emplace_back(cos_args.index_of(Js.first + Js.second),
                                cos_args.index_of(Js.first - Js.second));
        }
        terms.push_back({i, j, term.coefficient,
                         sin_args.index_of(term.coefficient),
                         cos_args.index_of(h[i] + h[j]),
                         cos_args.index_of(h[i] - h[j]), begin,
                         static_cast<int>(merged.size())});
    }
}

/**
 * Everything that depends on gamma alone. With it, a beta costs O(n + E)
 * multiplies:
 *   <Z_i>     = sin(2b) sin_h[i] prod[i]
 *   <Z_i Z_j> = (sin(4b)/2) sin_j[t] cross[t] - (sin^2(2b)/2) mixed[t]
 */
struct P1Row
{
    void fill(const P1Structure& s, double gamma);

    bool filled = false;
    double gamma = 0.0;
    std::vector<double> cos_v, sin_v; ///< per distinct argument
    std::vector<double> sin_h, prod;  ///< per spin
    std::vector<double> sin_j, cross, mixed; ///< per term
};

/** prod over @p i's CSR entries of cos(2g J_ik), skipping neighbor @p skip. */
double
neighbor_product(const P1Structure& s, const std::vector<double>& cos_v, int i,
                 int skip)
{
    double prod = 1.0;
    for (int e = s.adj_begin[i]; e < s.adj_begin[i + 1]; ++e)
        if (s.adj_spin[e] != skip)
            prod *= cos_v[s.adj_cos[e]];
    return prod;
}

void
P1Row::fill(const P1Structure& s, double g)
{
    const double g2 = 2.0 * g;
    cos_v.resize(s.cos_args.args.size());
    for (std::size_t a = 0; a < cos_v.size(); ++a)
        cos_v[a] = std::cos(g2 * s.cos_args.args[a]);
    sin_v.resize(s.sin_args.args.size());
    for (std::size_t a = 0; a < sin_v.size(); ++a)
        sin_v[a] = std::sin(g2 * s.sin_args.args[a]);

    const int n = static_cast<int>(s.h.size());
    sin_h.resize(n);
    prod.resize(n);
    for (int i = 0; i < n; ++i) {
        sin_h[i] = sin_v[s.sin_h[i]];
        prod[i] = neighbor_product(s, cos_v, i, /*skip=*/-1);
    }

    sin_j.resize(s.terms.size());
    cross.resize(s.terms.size());
    mixed.resize(s.terms.size());
    for (std::size_t t = 0; t < s.terms.size(); ++t) {
        const auto& term = s.terms[t];
        sin_j[t] = sin_v[term.sin_j];
        cross[t] = cos_v[s.cos_h[term.i]] *
                       neighbor_product(s, cos_v, term.i, term.j) +
                   cos_v[s.cos_h[term.j]] *
                       neighbor_product(s, cos_v, term.j, term.i);
        double prod_sum = 1.0;
        double prod_diff = 1.0;
        for (int m = term.merged_begin; m < term.merged_end; ++m) {
            prod_sum *= cos_v[s.merged[m].first];
            prod_diff *= cos_v[s.merged[m].second];
        }
        mixed[t] = cos_v[term.cos_hsum] * prod_sum -
                   cos_v[term.cos_hdiff] * prod_diff;
    }
    gamma = g;
    filled = true;
}

/**
 * The energy at one beta on @p row; also stores <Z_i> / <Z_i Z_j> when
 * @p z / @p zz are non-null. Allocates nothing.
 */
double
energy_at(const P1Structure& s, const P1Row& row, double sin_2b,
          double sin_4b, double* z, double* zz)
{
    double energy = s.offset;
    for (std::size_t i = 0; i < s.h.size(); ++i) {
        const double zi = sin_2b * row.sin_h[i] * row.prod[i];
        if (z)
            z[i] = zi;
        energy += s.h[i] * zi;
    }
    const double half_sin_4b = 0.5 * sin_4b;
    const double half_sin2_2b = 0.5 * sin_2b * sin_2b;
    for (std::size_t t = 0; t < s.terms.size(); ++t) {
        const double first = half_sin_4b * row.sin_j[t] * row.cross[t];
        const double second = half_sin2_2b * row.mixed[t];
        const double zzt = first - second;
        if (zz)
            zz[t] = zzt;
        energy += s.terms[t].coefficient * zzt;
    }
    return energy;
}

/**
 * Two rows keyed on gamma's exact bits. A miss refills the slot that does
 * not hold @p keep, so the incumbent's row survives the probes around it.
 */
class RowPair
{
  public:
    const P1Row&
    at(const P1Structure& s, double gamma, double keep)
    {
        for (const auto& row : rows_)
            if (row.filled && bits_of(row.gamma) == bits_of(gamma))
                return row;
        P1Row& victim =
            rows_[0].filled && bits_of(rows_[0].gamma) == bits_of(keep)
                ? rows_[1]
                : rows_[0];
        victim.fill(s, gamma);
        return victim;
    }

  private:
    P1Row rows_[2];
};

} // namespace

P1Expectations
evaluate_p1(const ising::IsingModel& model, const P1Angles& angles)
{
    const P1Structure s(model);
    P1Row row;
    row.fill(s, angles.gamma);

    P1Expectations out;
    out.z.resize(model.num_spins());
    out.zz.resize(s.terms.size());
    out.energy = energy_at(s, row, std::sin(2.0 * angles.beta),
                           std::sin(4.0 * angles.beta), out.z.data(),
                           out.zz.data());
    return out;
}

double
evaluate_p1_energy(const ising::IsingModel& model, const P1Angles& angles)
{
    const P1Structure s(model);
    P1Row row;
    row.fill(s, angles.gamma);
    return energy_at(s, row, std::sin(2.0 * angles.beta),
                     std::sin(4.0 * angles.beta), nullptr, nullptr);
}

P1OptimizationResult
optimize_p1(const ising::IsingModel& model, int grid_resolution,
            int refine_iterations)
{
    FQ_REQUIRE(grid_resolution >= 2, "grid too coarse");
    P1OptimizationResult result;
    result.energy = std::numeric_limits<double>::infinity();

    const P1Structure s(model);
    RowPair rows;
    const auto consider = [&](const P1Row& row, double beta, double sin_2b,
                              double sin_4b) {
        const double e = energy_at(s, row, sin_2b, sin_4b, nullptr, nullptr);
        ++result.evaluations;
        if (e < result.energy) {
            result.energy = e;
            result.angles = {row.gamma, beta};
            return true;
        }
        return false;
    };

    const double pi = M_PI;
    // Coarse grid over one period: one row per gamma, beta terms per column.
    std::vector<double> betas(grid_resolution), sin_2bs(grid_resolution),
        sin_4bs(grid_resolution);
    for (int c = 0; c < grid_resolution; ++c) {
        betas[c] = c * pi / grid_resolution;
        sin_2bs[c] = std::sin(2.0 * betas[c]);
        sin_4bs[c] = std::sin(4.0 * betas[c]);
    }
    for (int a = 0; a < grid_resolution; ++a) {
        const P1Row& row =
            rows.at(s, a * pi / grid_resolution, result.angles.gamma);
        for (int c = 0; c < grid_resolution; ++c)
            consider(row, betas[c], sin_2bs[c], sin_4bs[c]);
    }

    // Pattern-search refinement: shrink a step around the best cell.
    double step = pi / grid_resolution;
    for (int it = 0; it < refine_iterations; ++it) {
        bool improved = false;
        const P1Angles base = result.angles;
        const P1Angles candidates[] = {
            {base.gamma + step, base.beta}, {base.gamma - step, base.beta},
            {base.gamma, base.beta + step}, {base.gamma, base.beta - step},
        };
        for (const auto& cand : candidates) {
            const P1Row& row = rows.at(s, cand.gamma, base.gamma);
            improved |= consider(row, cand.beta, std::sin(2.0 * cand.beta),
                                 std::sin(4.0 * cand.beta));
        }
        if (!improved)
            step *= 0.5;
    }
    return result;
}

} // namespace fq::qaoa
