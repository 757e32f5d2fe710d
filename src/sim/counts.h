/**
 * @file
 * Measurement-outcome histograms ("counts") and the operations FrozenQubits
 * needs on them: expectation values under an Ising Hamiltonian, best
 * observed outcome, and the flip-all-bits transform that converts the
 * output distribution of one symmetric sub-problem into its mirror's
 * (Section 3.7.2).
 *
 * A histogram is stored flat: one vector of (state, count) pairs, states
 * strictly ascending, counts at least 1. Iteration is therefore in state
 * order, every merge and comparison is a linear pass, and copying a
 * ~4,000-state leaf histogram is one allocation.
 */
#ifndef FQ_SIM_COUNTS_H
#define FQ_SIM_COUNTS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ising/ising_model.h"

namespace fq::sim {

/** (state, count) pairs in ascending state order: a histogram as Counts
 *  stores it and as worker replies and checkpoint records carry it. */
using HistogramEntries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

class Counts;

template <typename ErrorT>
Counts checked_counts(int width, HistogramEntries entries,
                      std::uint64_t shots);

/**
 * Histogram of measured basis states over a fixed register width, held as
 * sorted flat entries. Build bulk input with from_samples (one radix sort
 * and a run-length merge); add() appends in O(1) when states arrive in
 * ascending order and costs O(distinct) per call otherwise.
 */
class Counts
{
  public:
    Counts() = default;
    explicit Counts(int num_qubits);

    int num_qubits() const { return num_qubits_; }

    /** Add @p count >= 1 observations of @p state. */
    void add(std::uint64_t state, std::uint64_t count = 1);

    /** Build from raw samples in any order: one radix sort over the
     *  register width, then a merge of equal runs. */
    static Counts from_samples(int num_qubits,
                               std::vector<std::uint64_t> samples);

    std::uint64_t total_shots() const { return total_; }
    std::size_t num_distinct() const { return histogram_.size(); }
    const HistogramEntries& histogram() const { return histogram_; }

    /** Observations of @p state (0 when never seen). */
    std::uint64_t count(std::uint64_t state) const;

    /** Empirical expectation of C(z) under @p model. */
    double expectation(const ising::IsingModel& model) const;

    /** Lowest observed cost and the corresponding assignment: the first
     *  minimum in state order, the first entry standing even when its
     *  cost is NaN or +inf. */
    struct BestOutcome
    {
        double cost = 0.0;
        std::uint64_t state = 0;
        std::uint64_t multiplicity = 0;
    };
    BestOutcome best(const ising::IsingModel& model) const;

    /**
     * Distribution with every bitstring complemented — the zero-cost
     * post-processing that recovers the mirror sub-problem's output from a
     * solved one (Section 3.7.2).
     */
    Counts flip_all_bits() const;

    /** Merge another histogram of identical width into this one. */
    void merge(const Counts& other);

    /** Empirical probability of @p state. */
    double probability(std::uint64_t state) const;

    /** Total-variation distance to another distribution (same width). */
    double total_variation_distance(const Counts& other) const;

  private:
    template <typename ErrorT>
    friend Counts checked_counts(int width, HistogramEntries entries,
                                 std::uint64_t shots);
    friend HistogramEntries histogram_entries(Counts&& counts);

    int num_qubits_ = 0;
    std::uint64_t total_ = 0;
    HistogramEntries histogram_;
};

/**
 * Flip bit q of each sample with probability @p flip_probability[q]: the
 * draws and outcomes of rng.bernoulli(flip_probability[q]) per sample and
 * qubit, qubit 0 first, tested as integer thresholds without a branch.
 */
void flip_readout_bits(std::vector<std::uint64_t>& samples,
                       const std::vector<double>& flip_probability, Rng& rng);

/** Flip each bit of each sample independently with its readout-error
 *  probability (per-qubit), modeling measurement errors. */
Counts apply_readout_errors(const Counts& counts,
                            const std::vector<double>& flip_probability,
                            Rng& rng);

/** A copy of the entries of @p counts. */
inline HistogramEntries
histogram_entries(const Counts& counts)
{
    return counts.histogram();
}

/** The entries of @p counts, taken without a copy. */
inline HistogramEntries
histogram_entries(Counts&& counts)
{
    counts.total_ = 0;
    return std::move(counts.histogram_);
}

/**
 * Counts from entries that came from outside the process (a worker reply,
 * a checkpoint record), adopted without a copy. Throws the caller's typed
 * ErrorT unless they are a @p shots-shot sample over @p width qubits:
 * width in 1..63, states strictly ascending and below 2^width, every
 * count at least 1 (the fold decodes every listed state) and the counts
 * summing to @p shots without overflow.
 */
template <typename ErrorT>
Counts
checked_counts(int width, HistogramEntries entries, std::uint64_t shots)
{
    const auto reject = [](const char* why) {
        throw ErrorT(std::string("histogram rejected: ") + why);
    };
    if (width < 1 || width > 63)
        reject("register width outside 1..63");
    std::uint64_t left = shots;
    for (std::size_t k = 0; k < entries.size(); ++k) {
        const auto [state, count] = entries[k];
        if (state >> width != 0)
            reject("state exceeds register width");
        if (k > 0 && state <= entries[k - 1].first)
            reject("states not strictly ascending");
        if (count == 0)
            reject("zero-count entry");
        if (count > left)
            reject("counts exceed the shot count");
        left -= count;
    }
    if (left != 0)
        reject("counts fall short of the shot count");
    Counts counts(width);
    counts.total_ = shots;
    counts.histogram_ = std::move(entries);
    return counts;
}

} // namespace fq::sim

#endif // FQ_SIM_COUNTS_H
