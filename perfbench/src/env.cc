#include "env.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "sim/backend.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string
cpu_model_name()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

} // namespace

RunEnvironment
probe_environment(const std::string& git_sha,
                  const std::string& source_digest)
{
    RunEnvironment env;
    env.nproc = static_cast<int>(std::thread::hardware_concurrency());
    env.cpu_model = cpu_model_name();
    env.vector_isa = fq::sim::BackendRegistry::vector_isa();
    env.build_type = PERFBENCH_BUILD_TYPE;
    env.git_sha = git_sha.empty() ? "none" : git_sha;
    env.source_digest = source_digest.empty() ? "none" : source_digest;
    return env;
}

double
host_speed_probe_ms()
{
    constexpr int kRepeats = 5;
    constexpr int kSteps = 4'000'000;
    std::vector<double> ms;
    volatile double sink = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
        const auto start = std::chrono::steady_clock::now();
        double x = 1.0 + 1e-3 * r;
        for (int i = 0; i < kSteps; ++i)
            x = x * 1.0000001 + 1e-9 / x;
        sink = sink + x;
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

double
peak_rss_mb()
{
    struct rusage usage
    {
    };
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
json_string(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace perfbench
