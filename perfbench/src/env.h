/**
 * @file
 * Run-environment stamp written into every benchmark record, so records
 * from different hosts or builds are never compared silently.
 */
#ifndef PERFBENCH_ENV_H
#define PERFBENCH_ENV_H

#include <string>

namespace perfbench {

struct RunEnvironment
{
    int nproc = 0;
    std::string cpu_model;
    std::string vector_isa; ///< "avx2" or "portable" (compiled in)
    std::string build_type;
    std::string git_sha;       ///< "none" outside a git checkout
    std::string source_digest; ///< hash of the engine + benchmark sources
};

RunEnvironment probe_environment(const std::string& git_sha,
                                 const std::string& source_digest);

/**
 * Host speed probe: the median wall time, in ms, of a fixed single-thread
 * floating-point loop that touches none of the engine's code. Recorded
 * beside each run's metrics so that a record taken while the host was slow
 * (shared machines drift by tens of percent) can be told apart from a slow
 * build. Not a metric of the program.
 */
double host_speed_probe_ms();

/** Peak resident set size of this process so far, in MB. */
double peak_rss_mb();

/** JSON string literal (quotes and escapes included). */
std::string json_string(const std::string& text);

} // namespace perfbench

#endif // PERFBENCH_ENV_H
