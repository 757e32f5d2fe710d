/**
 * @file
 * The benchmark's workloads and the run that measures one of them.
 *
 *   serve-mixed   open loop, one SolveService over ExecutionEngine(nproc-1),
 *                 3/4 n=20 freeze-4 + 1/4 n=20 freeze-2 requests, then a
 *                 burst phase;
 *   serve-remote  the same generator and mix at a lower rate through
 *                 ExecutionEngine(1) + a net::WorkerPool of two in-process
 *                 loopback WorkerServers (one thread each, Unix sockets);
 *   tree-budgeted closed loop of durable solves: n=32, freeze 3, depth 3,
 *                 partition width 16, 24-circuit budget, re-rank every 4,
 *                 checkpoint every 2 into an in-memory encoding sink;
 *   wide-leaf     closed loop of n=22 freeze-2 depth-2 solves: sixteen
 *                 18-qubit leaves in one wave.
 *
 * Instances are distinct seeded BA3 graphs derived from the run seed; the
 * engine only ever sees the generated models.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "frozenqubits/driver.h"
#include "ising/ising_model.h"

namespace perfbench {

/** One request shape of a workload's mix. */
struct RequestKind
{
    const char* label = "";
    int spins = 0;
    fq::frozenqubits::DriverConfig config;
    int weight = 1;
};

struct WorkloadSpec
{
    std::string name;
    bool service = false;   ///< open loop through a SolveService
    int remote_workers = 0; ///< loopback WorkerServers (service only)
    /** Engine threads: fixed when > 0, else nproc + this (0 or -1). */
    int threads = 0;
    double rate_rps = 0.0;        ///< open-loop offered rate (service)
    double burst_sizing_rps = 0.0;///< sizes the burst phase (service)
    double latency_limit_ms = 0.0;///< the workload's SLO
    bool checkpoint_sink = false; ///< durable solves into an encoding sink
    std::vector<RequestKind> kinds;
};

constexpr int kShots = 4096;

const std::vector<WorkloadSpec>& workload_specs();
/** Throws std::invalid_argument for an unknown name. */
const WorkloadSpec& find_workload(const std::string& name);
int engine_threads(const WorkloadSpec& spec);

/** One generated request: solve seed (also its id) + kind + model. */
struct Request
{
    std::uint64_t seed = 0;
    int kind = 0;
    fq::ising::IsingModel model;
};

/** Request @p index of a run with @p run_seed; a pure function of both. */
Request make_request(const WorkloadSpec& spec, std::uint64_t run_seed,
                     std::uint64_t index);

/** Seeded BA graph (degree 3) with +-1 couplings. */
fq::ising::IsingModel ba3_model(int spins, std::uint64_t seed);

/** Hash of every result field a caller can observe (determinism checks). */
std::uint64_t solve_digest(const fq::frozenqubits::SampledSolve& solved);

/** best_cost equals the model energy of best_assignment. */
bool energy_consistent(const fq::ising::IsingModel& model,
                       const fq::frozenqubits::SampledSolve& solved);

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string out_dir = ".";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunReport
{
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    /** The record's metrics: end-to-end (untraced) or per-layer (traced). */
    std::vector<Metric> metrics;
    /** Supporting numbers kept in the full record only. */
    std::vector<Metric> details;
    std::vector<std::string> notes;
    std::string trace_path;
};

RunReport run_workload(const RunOptions& options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
