#include "sim/counts.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bitops.h"
#include "common/error.h"

namespace fq::sim {

namespace {

/** First entry whose state is not below @p state. */
template <typename Entries>
auto
find_entry(Entries& entries, std::uint64_t state)
{
    return std::lower_bound(
        entries.begin(), entries.end(), state,
        [](const auto& entry, std::uint64_t s) { return entry.first < s; });
}

} // namespace

Counts::Counts(int num_qubits) : num_qubits_(num_qubits)
{
    FQ_REQUIRE(num_qubits >= 1 && num_qubits <= 63,
               "counts limited to 1..63 qubits");
}

void
Counts::add(std::uint64_t state, std::uint64_t count)
{
    FQ_REQUIRE(state < (std::uint64_t(1) << num_qubits_),
               "state exceeds register width");
    FQ_REQUIRE(count >= 1, "a histogram entry needs at least one count");
    total_ += count;
    if (histogram_.empty() || histogram_.back().first < state) {
        histogram_.emplace_back(state, count);
        return;
    }
    const auto at = find_entry(histogram_, state);
    if (at->first == state)
        at->second += count;
    else
        histogram_.emplace(at, state, count);
}

Counts
Counts::from_samples(int num_qubits, std::vector<std::uint64_t> samples)
{
    Counts c(num_qubits);
    if (samples.empty())
        return c;
    std::sort(samples.begin(), samples.end());
    FQ_REQUIRE(samples.back() < (std::uint64_t(1) << num_qubits),
               "state exceeds register width");
    c.total_ = samples.size();
    // One exact allocation: a histogram outlives its leaf (reducer,
    // result, checkpoint), so no growth slack or freed steps are left.
    std::size_t distinct = 1;
    for (std::size_t k = 1; k < samples.size(); ++k)
        distinct += samples[k] != samples[k - 1];
    c.histogram_.reserve(distinct);
    for (std::size_t k = 0; k < samples.size();) {
        std::size_t run = k + 1;
        while (run < samples.size() && samples[run] == samples[k])
            ++run;
        c.histogram_.emplace_back(samples[k], run - k);
        k = run;
    }
    return c;
}

std::uint64_t
Counts::count(std::uint64_t state) const
{
    const auto it = find_entry(histogram_, state);
    return it != histogram_.end() && it->first == state ? it->second : 0;
}

double
Counts::expectation(const ising::IsingModel& model) const
{
    FQ_REQUIRE(model.num_spins() == num_qubits_,
               "Hamiltonian width must match register width");
    FQ_REQUIRE(total_ > 0, "expectation of an empty distribution");
    double ev = 0.0;
    for (const auto& [state, count] : histogram_)
        ev += static_cast<double>(count) * model.evaluate_state(state);
    return ev / static_cast<double>(total_);
}

Counts::BestOutcome
Counts::best(const ising::IsingModel& model) const
{
    FQ_REQUIRE(model.num_spins() == num_qubits_,
               "Hamiltonian width must match register width");
    FQ_REQUIRE(total_ > 0, "best of an empty distribution");
    BestOutcome out;
    out.cost = std::numeric_limits<double>::infinity();
    for (const auto& [state, count] : histogram_) {
        const double c = model.evaluate_state(state);
        if (c < out.cost) {
            out.cost = c;
            out.state = state;
            out.multiplicity = count;
        }
    }
    return out;
}

Counts
Counts::flip_all_bits() const
{
    // Complementing reverses the state order, so walk backwards.
    Counts out(num_qubits_);
    const std::uint64_t mask = low_bits_mask(num_qubits_);
    out.total_ = total_;
    out.histogram_.reserve(histogram_.size());
    for (auto it = histogram_.rbegin(); it != histogram_.rend(); ++it)
        out.histogram_.emplace_back((~it->first) & mask, it->second);
    return out;
}

void
Counts::merge(const Counts& other)
{
    FQ_REQUIRE(other.num_qubits_ == num_qubits_,
               "merge requires equal register widths");
    HistogramEntries merged;
    merged.reserve(histogram_.size() + other.histogram_.size());
    auto a = histogram_.cbegin();
    auto b = other.histogram_.cbegin();
    while (a != histogram_.cend() || b != other.histogram_.cend()) {
        if (b == other.histogram_.cend() ||
            (a != histogram_.cend() && a->first < b->first)) {
            merged.push_back(*a++);
        } else if (a == histogram_.cend() || b->first < a->first) {
            merged.push_back(*b++);
        } else {
            merged.emplace_back(a->first, a->second + b->second);
            ++a;
            ++b;
        }
    }
    histogram_ = std::move(merged);
    total_ += other.total_;
}

double
Counts::probability(std::uint64_t state) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(count(state)) / static_cast<double>(total_);
}

double
Counts::total_variation_distance(const Counts& other) const
{
    FQ_REQUIRE(other.num_qubits_ == num_qubits_,
               "TVD requires equal register widths");
    const auto share = [](std::uint64_t count, std::uint64_t total) {
        return total == 0 ? 0.0
                          : static_cast<double>(count) /
                                static_cast<double>(total);
    };
    // This side's states first, then the other's unmatched ones, each in
    // ascending order: a fixed summation order.
    double tvd = 0.0;
    auto b = other.histogram_.cbegin();
    for (const auto& [state, count] : histogram_) {
        while (b != other.histogram_.cend() && b->first < state)
            ++b;
        const std::uint64_t theirs =
            b != other.histogram_.cend() && b->first == state ? b->second
                                                              : 0;
        tvd += std::abs(share(count, total_) - share(theirs, other.total_));
    }
    auto a = histogram_.cbegin();
    for (const auto& [state, count] : other.histogram_) {
        while (a != histogram_.cend() && a->first < state)
            ++a;
        if (a == histogram_.cend() || a->first != state)
            tvd += share(count, other.total_);
    }
    return tvd / 2.0;
}

Counts
apply_readout_errors(const Counts& counts,
                     const std::vector<double>& flip_probability, Rng& rng)
{
    FQ_REQUIRE(static_cast<int>(flip_probability.size()) ==
                   counts.num_qubits(),
               "need one flip probability per qubit");
    std::vector<std::uint64_t> samples;
    samples.reserve(counts.total_shots());
    for (const auto& [state, count] : counts.histogram()) {
        for (std::uint64_t k = 0; k < count; ++k) {
            std::uint64_t s = state;
            for (int q = 0; q < counts.num_qubits(); ++q)
                if (rng.bernoulli(flip_probability[q]))
                    s ^= (std::uint64_t(1) << q);
            samples.push_back(s);
        }
    }
    return Counts::from_samples(counts.num_qubits(), std::move(samples));
}

} // namespace fq::sim
