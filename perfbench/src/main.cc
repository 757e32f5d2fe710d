/**
 * @file
 * perfbench — the end-to-end solve benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
 *
 * Prints the full record (run environment, workload settings, metrics and
 * supporting numbers) as one JSON line, writes it to
 * DIR/record-<workload>-seed<N>-trace<T>.json, and ends stdout with the
 * summary line {"correct", "attempted", "failed", "metrics"}: end-to-end
 * metrics with --trace 0, per-layer metrics with --trace 1. A run whose
 * output checks fail still prints both, then exits 1.
 */
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "env.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string& problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--git-sha SHA] "
                 "[--source-digest HEX]\nworkloads:";
    for (const auto& spec : workload_specs())
        std::cerr << " " << spec.name;
    std::cerr << "\n";
    std::exit(2);
}

std::string
number(double value)
{
    std::ostringstream out;
    out.precision(10);
    out << value;
    return out.str();
}

std::string
metrics_json(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + json_string(metrics[i].name) +
               ": {\"value\": " + number(metrics[i].value) +
               ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    return out + "}";
}

std::string
summary_json(const RunReport& report)
{
    return std::string("{\"correct\": ") +
           (report.correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(report.attempted) +
           ", \"failed\": " + std::to_string(report.failed) +
           ", \"metrics\": " + metrics_json(report.metrics) + "}";
}

std::string
record_json(const RunOptions& options, const RunEnvironment& env,
            const RunReport& report)
{
    std::string notes = "[";
    for (std::size_t i = 0; i < report.notes.size(); ++i)
        notes += (i ? ", " : "") + json_string(report.notes[i]);
    notes += "]";
    double rate = 0.0, limit = 0.0;
    try {
        const auto& spec = find_workload(options.workload);
        rate = spec.service ? spec.rate_rps : 0.0;
        limit = spec.latency_limit_ms;
    } catch (const std::exception&) {
    }
    return std::string("{\"record\": {") +
           "\"workload\": " + json_string(options.workload) +
           ", \"seed\": " + std::to_string(options.seed) +
           ", \"seconds\": " + number(options.seconds) +
           ", \"trace\": " + (options.trace ? "1" : "0") +
           ", \"offered_rate_rps\": " + number(rate) +
           ", \"latency_limit_ms\": " + number(limit) +
           ", \"env\": {\"nproc\": " + std::to_string(env.nproc) +
           ", \"cpu_model\": " + json_string(env.cpu_model) +
           ", \"vector_isa\": " + json_string(env.vector_isa) +
           ", \"build_type\": " + json_string(env.build_type) +
           ", \"git_sha\": " + json_string(env.git_sha) +
           ", \"source_digest\": " + json_string(env.source_digest) + "}" +
           ", \"correct\": " + (report.correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(report.attempted) +
           ", \"failed\": " + std::to_string(report.failed) +
           ", \"metrics\": " + metrics_json(report.metrics) +
           ", \"details\": " + metrics_json(report.details) +
           ", \"trace_file\": " + json_string(report.trace_path) +
           ", \"notes\": " + notes + "}}";
}

} // namespace

int
main(int argc, char** argv)
{
    RunOptions options;
    std::string git_sha, digest;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.trace = std::stoi(value) != 0;
            } else if (flag == "--out-dir") {
                options.out_dir = value;
            } else if (flag == "--git-sha") {
                git_sha = value;
            } else if (flag == "--source-digest") {
                digest = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    try {
        (void)find_workload(options.workload);
    } catch (const std::invalid_argument& err) {
        usage(err.what());
    }

    const RunEnvironment env = probe_environment(git_sha, digest);
    const double probe_before = host_speed_probe_ms();
    RunReport report;
    try {
        report = run_workload(options);
    } catch (const std::exception& err) {
        // Still write a record: a failing run must never leave it empty.
        report.correct = false;
        report.attempted = std::max(1LL, report.attempted);
        report.failed = report.attempted;
        report.notes.push_back(std::string("run aborted: ") + err.what());
    }

    report.details.push_back({"host.probe_before_ms", probe_before, "ms"});
    report.details.push_back(
        {"host.probe_after_ms", host_speed_probe_ms(), "ms"});
    const std::string record = record_json(options, env, report);
    const std::string path = options.out_dir + "/record-" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json";
    std::ofstream(path) << record << "\n";
    std::cout << record << "\n" << summary_json(report) << std::endl;
    return report.correct ? 0 : 1;
}
