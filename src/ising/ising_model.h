/**
 * @file
 * Ising Hamiltonian representation (Equation (1) of the paper):
 *
 *   H_Z := C(z) = sum_i h_i z_i + sum_{i<j} J_ij z_i z_j + offset,
 *   z_i in {-1, +1}.
 *
 * Quadratic terms are stored both as a flat list (stable order, fast
 * iteration) and as an adjacency index (O(deg) neighborhood queries, needed
 * by the freeze transform and the Gray-code enumerator). Coefficients on the
 * same (i, j) pair accumulate, matching the J_ij + J_ji convention of
 * Table 2.
 */
#ifndef FQ_ISING_ISING_MODEL_H
#define FQ_ISING_ISING_MODEL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace fq::ising {

/** Widest model the text format and the wire accept: a larger spin count
 *  from outside the process is refused before anything is allocated. */
constexpr int kMaxSpins = 1 << 20;

/** Spin assignment; entries are -1 or +1. */
using SpinVector = std::vector<std::int8_t>;

/** One quadratic coupling J_ij with i < j normalized. */
struct QuadraticTerm
{
    int i = 0;
    int j = 0;
    double coefficient = 0.0;
};

/** Ising Hamiltonian over N spins. */
class IsingModel
{
  public:
    IsingModel() = default;
    explicit IsingModel(int num_spins);

    int num_spins() const { return static_cast<int>(linear_.size()); }
    int num_quadratic_terms() const
    {
        return static_cast<int>(quadratic_.size());
    }

    /** Linear coefficient h_i. */
    double linear(int i) const;

    /** Add @p delta to h_i. */
    void add_linear(int i, double delta);

    /** Overwrite h_i. */
    void set_linear(int i, double value);

    /** All linear coefficients. */
    const std::vector<double>& linear_terms() const { return linear_; }

    /**
     * Add @p coefficient to J_ij (i != j). Coefficients accumulate; a term
     * whose accumulated coefficient becomes exactly zero is retained (it
     * still shapes the QAOA circuit unless explicitly pruned).
     */
    void add_quadratic(int i, int j, double coefficient);

    /** Coupling J_ij; zero when no such term exists. */
    double quadratic(int i, int j) const;

    /** All quadratic terms with i < j, insertion order. */
    const std::vector<QuadraticTerm>& quadratic_terms() const
    {
        return quadratic_;
    }

    /** Spins coupled to @p i, as (j, J_ij) pairs. */
    const std::vector<std::pair<int, double>>& couplings_of(int i) const;

    double offset() const { return offset_; }
    void set_offset(double v) { offset_ = v; }
    void add_offset(double v) { offset_ += v; }

    /** True when every linear coefficient is exactly zero (Section 3.7.2). */
    bool has_zero_linear_terms() const;

    /** Drop quadratic terms with |J| <= @p epsilon (normalization pass). */
    void prune_zero_terms(double epsilon = 0.0);

    /** Evaluate C(z); @p z must have num_spins() entries of value +-1. */
    double evaluate(const SpinVector& z) const;

    /** Evaluate C at the basis state encoded in @p state (bit=1 -> -1). */
    double evaluate_state(std::uint64_t state) const;

    /**
     * out[k] = evaluate_state(states[k]) for k < @p count, bit for bit:
     * eight states run at a time as independent sums, each adding its
     * terms in evaluate_state's order.
     */
    void evaluate_states(const std::uint64_t* states, std::size_t count,
                         double* out) const;

    /**
     * Cost change from flipping spin @p k in assignment @p z:
     * C(z with z_k flipped) - C(z) = -2 z_k (h_k + sum_j J_kj z_j).
     */
    double flip_delta(const SpinVector& z, int k) const;

    /**
     * Problem graph: one node per spin, one edge per quadratic term with the
     * coupling as weight (the representation Figures 1(c)/5 use).
     */
    graph::Graph to_graph() const;

    /** Build a model from a weighted graph: J_ij = w_ij, h = 0, offset 0. */
    static IsingModel from_graph(const graph::Graph& g);

    /** Sum over |J| + |h| (used for normalization and SA temperature). */
    double coefficient_magnitude_sum() const;

    /** One-line description. */
    std::string summary() const;

  private:
    void check_spin(int i) const;

    std::vector<double> linear_;
    std::vector<QuadraticTerm> quadratic_;
    std::vector<std::vector<std::pair<int, double>>> adjacency_;
    double offset_ = 0.0;
};

/** Encode a spin vector into a basis-state index (little-endian). */
std::uint64_t spins_to_state(const SpinVector& z);

/** Decode a basis-state index into a spin vector over @p n spins. */
SpinVector state_to_spins(std::uint64_t state, int n);

/** Flip every spin (the Section 3.7.2 symmetry map z -> -z). */
SpinVector flip_all(const SpinVector& z);

} // namespace fq::ising

#endif // FQ_ISING_ISING_MODEL_H
