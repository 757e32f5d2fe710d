#include "sim/counts.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

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

/**
 * Sort @p keys, all below 2^@p width, ascending: LSD radix over 8-bit
 * digits, skipping a digit that every key shares. Keys are plain integers,
 * so the order is the one std::sort gives.
 */
void
radix_sort(std::vector<std::uint64_t>& keys, int width)
{
    constexpr int kDigitBits = 8;
    constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
    const int digits = (width + kDigitBits - 1) / kDigitBits;
    std::array<std::array<std::size_t, kRadix>, 8> offsets{};
    for (const std::uint64_t key : keys)
        for (int d = 0; d < digits; ++d)
            ++offsets[d][(key >> (kDigitBits * d)) & (kRadix - 1)];
    std::vector<std::uint64_t> buffer(keys.size());
    for (int d = 0; d < digits; ++d) {
        const int shift = kDigitBits * d;
        auto& offset = offsets[d];
        if (offset[(keys[0] >> shift) & (kRadix - 1)] == keys.size())
            continue;
        std::size_t next = 0;
        for (std::size_t& slot : offset)
            next += std::exchange(slot, next);
        for (const std::uint64_t key : keys)
            buffer[offset[(key >> shift) & (kRadix - 1)]++] = key;
        keys.swap(buffer);
    }
}

/**
 * Call @p visit(entry, cost) for each entry in state order, with cost =
 * model.evaluate_state(entry.first) taken from the blocked evaluate_states
 * one chunk at a time.
 */
template <typename Visit>
void
visit_costs(const ising::IsingModel& model, const HistogramEntries& entries,
            Visit&& visit)
{
    constexpr std::size_t kChunk = 64;
    std::uint64_t states[kChunk];
    double costs[kChunk];
    for (std::size_t base = 0; base < entries.size(); base += kChunk) {
        const std::size_t len = std::min(kChunk, entries.size() - base);
        for (std::size_t k = 0; k < len; ++k)
            states[k] = entries[base + k].first;
        model.evaluate_states(states, len, costs);
        for (std::size_t k = 0; k < len; ++k)
            visit(entries[base + k], costs[k]);
    }
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
    std::uint64_t bits = 0;
    for (const std::uint64_t s : samples)
        bits |= s;
    FQ_REQUIRE(bits >> num_qubits == 0, "state exceeds register width");
    radix_sort(samples, num_qubits);
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
    visit_costs(model, histogram_, [&](const auto& entry, double cost) {
        ev += static_cast<double>(entry.second) * cost;
    });
    return ev / static_cast<double>(total_);
}

Counts::BestOutcome
Counts::best(const ising::IsingModel& model) const
{
    FQ_REQUIRE(model.num_spins() == num_qubits_,
               "Hamiltonian width must match register width");
    FQ_REQUIRE(total_ > 0, "best of an empty distribution");
    BestOutcome out;
    bool have = false;
    visit_costs(model, histogram_, [&](const auto& entry, double cost) {
        if (!have || cost < out.cost) {
            have = true;
            out = {cost, entry.first, entry.second};
        }
    });
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

void
flip_readout_bits(std::vector<std::uint64_t>& samples,
                  const std::vector<double>& flip_probability, Rng& rng)
{
    std::vector<std::uint64_t> thresholds;
    thresholds.reserve(flip_probability.size());
    for (const double p : flip_probability)
        thresholds.push_back(bernoulli_threshold(p));
    // Draw from a local copy: its state stays in registers instead of
    // being stored around every write that might alias it.
    Rng local = rng;
    for (std::uint64_t& s : samples) {
        std::uint64_t flips = 0;
        for (std::size_t q = 0; q < thresholds.size(); ++q)
            flips |= std::uint64_t{local.bernoulli_below(thresholds[q])} << q;
        s ^= flips;
    }
    rng = local;
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
    for (const auto& [state, count] : counts.histogram())
        samples.insert(samples.end(), count, state);
    flip_readout_bits(samples, flip_probability, rng);
    return Counts::from_samples(counts.num_qubits(), std::move(samples));
}

} // namespace fq::sim
