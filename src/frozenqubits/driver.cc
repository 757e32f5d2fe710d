/**
 * @file
 * Legacy driver entry points, now a thin facade over the ExecutionEngine
 * (src/engine/): planning, thread-pooled batch execution and reduction all
 * live there. Each call constructs a private engine so repeated calls stay
 * semantically independent (fresh template cache); callers that want
 * cross-call template reuse and a persistent thread pool should hold an
 * engine::ExecutionEngine themselves.
 */
#include "frozenqubits/driver.h"

#include <algorithm>

#include "engine/engine.h"

namespace fq::frozenqubits {

double
Report::improvement(double floor) const
{
    return arg_baseline / std::max(arg_fq, floor);
}

CircuitStats
evaluate_instance(const ising::IsingModel& model, const device::Device& dev,
                  const DriverConfig& config)
{
    // Single-arm evaluation is serial; don't spin up a worker pool for it.
    engine::ExecutionEngine eng(1);
    return eng.evaluate(model, dev, config);
}

Report
run_pipeline(const ising::IsingModel& model, const device::Device& dev,
             const DriverConfig& config)
{
    engine::ExecutionEngine eng(config.threads);
    return eng.run(model, dev, config);
}

SampledSolve
solve_with_sampling(const ising::IsingModel& model, const device::Device& dev,
                    const DriverConfig& config, int shots, std::uint64_t seed)
{
    engine::ExecutionEngine eng(config.threads);
    return eng.solve(model, dev, config, shots, seed);
}

} // namespace fq::frozenqubits
