/**
 * @file
 * Self-tests of the benchmark's own logic: the percentile rule and its
 * sample-count guard, open-loop lateness accounting, span self-time
 * arithmetic, and the staged executor's byte-identity with
 * simulate_scheduled_leaf on every workload's leaf shape (the
 * template-incompatible fallback included).
 *
 *   python3 perfbench/run.py --selftest
 *
 * Exits 0 when every check passes; prints each failure otherwise.
 */
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "engine/solve_service.h"

#include "executors.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace engine = fq::engine;

int g_failures = 0;

void
check(bool ok, const std::string& what)
{
    if (!ok) {
        ++g_failures;
        std::cout << "FAIL: " << what << "\n";
    }
}

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

void
test_percentile_rule()
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(i);
    check(percentile(values, 0.5) == 50.0, "p50 of 1..100 is 50");
    check(percentile(values, 0.9) == 90.0, "p90 of 1..100 is 90");
    check(percentile(values, 1.0) == 100.0, "p100 is the maximum");
    check(percentile({7.0}, 0.9) == 7.0, "one sample is every percentile");
    check(percentile({}, 0.5) == 0.0, "no samples reads 0");
    check(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9) == 9.0,
          "nearest rank: p90 of ten samples is the ninth");
    check(median({1, 2, 3, 4}) == 2.5, "even-count median averages");

    check(samples_beyond(100, 0.9) == 10, "100 samples leave 10 beyond p90");
    check(percentile_supported(100, 0.9), "p90 reportable at 100 samples");
    check(!percentile_supported(99, 0.9), "p90 not reportable at 99 samples");
    check(!percentile_supported(0, 0.5), "nothing reportable without samples");
    check(percentile_supported(20, 0.5), "p50 reportable at 20 samples");
    check(!percentile_supported(19, 0.5), "p50 not reportable at 19 samples");
}

void
test_open_loop_accounting()
{
    check(near(due_time_s(0, 4.0), 0.0), "first request due at 0");
    check(near(due_time_s(3, 4.0), 0.75), "fixed-rate schedule");

    // Request 1 was due at 0.25 s but the generator stalled and only sent
    // it at 0.45 s; it completed at 0.50 s. Its latency counts the stall.
    std::vector<OpenLoopSample> samples(3);
    samples[0] = {0.00, 0.00, 0.10, true};
    samples[1] = {0.25, 0.45, 0.50, true};
    samples[2] = {0.50, 0.50, 0.55, false}; // failed
    check(near(samples[1].latency_ms(), 250.0),
          "latency runs from the due time, not the send time");
    check(near(samples[1].lag_ms(), 200.0), "generator lateness");
    const auto lat = open_loop_latencies_ms(samples);
    check(lat.size() == 2 && near(lat[0], 100.0) && near(lat[1], 250.0),
          "only completed requests have latencies");
    check(near(slo_attainment(samples, 200.0), 1.0 / 3.0),
          "late and failed requests both miss the limit");
    check(near(slo_attainment(samples, 300.0), 2.0 / 3.0),
          "a failed request misses any limit");
}

Span
span(std::uint64_t id, std::uint64_t parent, Level level, std::int64_t start,
     std::int64_t end, std::uint64_t request = 0, int leaf = -1)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.level = level;
    s.start_ns = start;
    s.end_ns = end;
    s.request = request;
    s.leaf = leaf;
    return s;
}

void
test_self_time()
{
    check(union_length_ns({{10, 30}, {20, 50}, {60, 70}}) == 50,
          "union merges overlaps");
    check(union_length_ns({{5, 5}, {9, 3}}) == 0, "empty intervals count 0");

    // A wave [0, 100] with two overlapping slots on different threads and
    // one slot running past the wave's end (clipped to it).
    std::vector<Span> spans = {
        span(1, 0, Level::Wave, 0, 100),
        span(2, 1, Level::Slot, 10, 30),
        span(3, 1, Level::Slot, 20, 50),
        span(4, 1, Level::Slot, 90, 120),
    };
    const auto self = self_times_ns(spans);
    check(self[0] == 50, "self time subtracts the union of children");
    check(self[1] == 20 && self[2] == 30, "leaf spans keep their duration");

    // link_parents: a stage finds the slot of its request and leaf, a
    // solo wave finds its request's span, a shared wave stays a root.
    std::vector<Span> tree = {
        span(10, 0, Level::Request, 0, 1000, 7),
        span(11, 0, Level::Wave, 100, 900, 7),
        span(12, 11, Level::Slot, 200, 800, 7, 3),
        span(13, 11, Level::Slot, 200, 800, 7, 4),
        span(14, 0, Level::Stage, 300, 400, 7, 4),
        span(15, 0, Level::Wave, 950, 990, 0),
    };
    link_parents(tree);
    check(tree[1].parent == 10, "a solo wave links to its request");
    check(tree[4].parent == 13, "a stage links to its own leaf's slot");
    check(tree[5].parent == 0, "a shared wave has no request parent");
    const auto tree_self = self_times_ns(tree);
    check(tree_self[0] == 1000 - 800, "request self time excludes its wave");
    check(tree_self[3] == 600 - 100, "slot self time excludes its stage");
}

bool
same_counts(const fq::sim::Counts& a, const fq::sim::Counts& b)
{
    return a.num_qubits() == b.num_qubits() &&
           a.total_shots() == b.total_shots() && a.histogram() == b.histogram();
}

/** Every leaf of one request of each workload: staged == direct. */
void
test_staged_leaves(const WorkloadSpec& spec, const fq::device::Device& dev)
{
    for (std::size_t kind = 0; kind < spec.kinds.size(); ++kind) {
        // Find a request of this kind.
        Request request;
        for (std::uint64_t k = 0;; ++k) {
            request = make_request(spec, 11, k);
            if (request.kind == static_cast<int>(kind))
                break;
        }
        const auto& config = spec.kinds[kind].config;
        engine::TemplateCache plan_cache;
        fq::Rng rng(request.seed);
        auto tree = engine::build_solve_tree(request.model, dev, config,
                                             plan_cache, rng);
        engine::TemplateCache direct_cache, staged_cache;
        engine::BatchExecutor::Scratch scratch;
        int staged_leaves = 0;
        for (int leaf = 0; leaf < tree.num_executable_leaves(); ++leaf) {
            const auto direct = engine::simulate_scheduled_leaf(
                direct_cache, tree, leaf, dev, config, kShots, scratch);
            Tracer tracer;
            const auto staged = simulate_leaf_staged(
                staged_cache, tree, leaf, dev, config, kShots, scratch,
                nullptr, nullptr, &tracer, request.seed, nullptr);
            staged_leaves += leaf_is_staged(
                tree.leaves[static_cast<std::size_t>(leaf)]);
            check(same_counts(direct, staged),
                  spec.name + " " + spec.kinds[kind].label + " leaf " +
                      std::to_string(leaf) + ": staged counts differ");
        }
        check(staged_leaves > 0,
              spec.name + ": no leaf takes the staged path");

        // The template-incompatible fallback: the same leaf forced off
        // the shared template runs whole, through simulate_scheduled_leaf.
        tree.leaves[0].tpl_compatible = false;
        check(!leaf_is_staged(tree.leaves[0]), "fallback leaf is not staged");
        Tracer tracer;
        const auto direct = engine::simulate_scheduled_leaf(
            direct_cache, tree, 0, dev, config, kShots, scratch);
        const auto fallback = simulate_leaf_staged(
            staged_cache, tree, 0, dev, config, kShots, scratch, nullptr,
            nullptr, &tracer, request.seed, nullptr);
        check(same_counts(direct, fallback),
              spec.name + ": fallback leaf counts differ");
        check(tracer.spans().empty(), "a fallback leaf records no stages");
    }
}

/** Whole requests through the tracing executor chain match plain solves. */
void
test_traced_solves(const WorkloadSpec& spec, const fq::device::Device& dev)
{
    const Request request = make_request(spec, 5, 0);
    const auto& config =
        spec.kinds[static_cast<std::size_t>(request.kind)].config;
    engine::ExecutionEngine plain(2);
    const auto expected = solve_digest(
        plain.solve(request.model, dev, config, kShots, request.seed));

    Tracer tracer;
    engine::ExecutionEngine traced(2);
    StagedExecutor staged(
        const_cast<engine::TemplateCache&>(traced.template_cache()), 2,
        tracer);
    TimingExecutor timing(staged, tracer, "wave", "slot");
    traced.set_leaf_executor(&timing);
    const auto solo = traced.solve(request.model, dev, config, kShots,
                                   request.seed);
    check(solve_digest(solo) == expected,
          spec.name + ": traced solo solve differs");
    check(energy_consistent(request.model, solo),
          spec.name + ": best_cost is not the assignment's energy");
    std::size_t slots = 0;
    for (const auto& s : tracer.spans())
        slots += s.level == Level::Slot;
    check(slots == static_cast<std::size_t>(solo.leaves_executed),
          spec.name + ": one slot span per executed leaf");
    {
        engine::SolveService service(traced);
        const auto served = service
                                .submit(request.model, dev, config, kShots,
                                        request.seed)
                                .get();
        check(solve_digest(served) == expected,
              spec.name + ": traced service result differs");
    }
    traced.set_leaf_executor(nullptr);
}

} // namespace

int
main()
{
    test_percentile_rule();
    test_open_loop_accounting();
    test_self_time();
    const auto dev = fq::device::make_device("ibm-montreal");
    for (const auto& spec : workload_specs()) {
        test_staged_leaves(spec, dev);
        test_traced_solves(spec, dev);
    }
    if (g_failures == 0)
        std::cout << "perfbench self-tests: all passed\n";
    return g_failures == 0 ? 0 : 1;
}
