#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "device/catalog.h"
#include "engine/checkpoint.h"
#include "engine/solve_service.h"
#include "graph/generators.h"
#include "ising/exact_solver.h"
#include "ising/sa_solver.h"
#include "net/worker.h"
#include "net/worker_pool.h"

#include "env.h"
#include "executors.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace engine = fq::engine;
using fq::frozenqubits::DriverConfig;
using fq::frozenqubits::SampledSolve;

namespace {

constexpr const char* kDevice = "ibm-montreal";
constexpr int kDegree = 3;
/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 7;
/** Warm-up requests come from an index range no measured request uses. */
constexpr std::uint64_t kWarmupIndex = std::uint64_t{1} << 40;
/** Requests re-solved solo at threads = 1 per run (determinism check). */
constexpr std::size_t kDeterminismSample = 2;
/** Requests whose best cost is compared against a classical reference. */
constexpr std::size_t kQualitySample = 12;
/** Requests whose plan is re-driven to split tree from schedule time. */
constexpr std::size_t kPlanSplitSample = 8;
/** Largest instance solved exactly for the quality reference. */
constexpr int kExactReferenceSpins = 20;
constexpr std::uint64_t kReferenceSeed = 0x5eed;
/** Share of an untraced service run spent in the open-loop phase; the
 *  rest sizes the burst phase. */
constexpr double kOpenLoopShare = 0.8;

DriverConfig
freeze_config(int freeze, int depth)
{
    DriverConfig config;
    config.num_freeze = freeze;
    config.max_depth = depth;
    return config;
}

std::vector<WorkloadSpec>
build_specs()
{
    std::vector<WorkloadSpec> specs;

    WorkloadSpec mixed;
    mixed.name = "serve-mixed";
    mixed.service = true;
    mixed.threads = -1; // nproc - 1: the generator keeps a core
    mixed.rate_rps = 6.0;
    mixed.burst_sizing_rps = 10.0;
    mixed.latency_limit_ms = 200.0;
    mixed.kinds = {{"n20-freeze4", 20, freeze_config(4, 1), 3},
                   {"n20-freeze2", 20, freeze_config(2, 1), 1}};
    specs.push_back(mixed);

    WorkloadSpec remote = mixed;
    remote.name = "serve-remote";
    remote.remote_workers = 2;
    remote.threads = 1;
    remote.rate_rps = 5.0;
    remote.burst_sizing_rps = 8.0;
    remote.latency_limit_ms = 250.0;
    specs.push_back(remote);

    WorkloadSpec tree;
    tree.name = "tree-budgeted";
    tree.latency_limit_ms = 150.0;
    tree.checkpoint_sink = true;
    DriverConfig budgeted = freeze_config(3, 3);
    budgeted.partition_width = 16;
    budgeted.max_circuits = 24;
    budgeted.rerank_interval = 4;
    budgeted.checkpoint_interval = 2;
    tree.kinds = {{"n32-freeze3-depth3", 32, budgeted, 1}};
    specs.push_back(tree);

    WorkloadSpec wide;
    wide.name = "wide-leaf";
    wide.latency_limit_ms = 350.0;
    wide.kinds = {{"n22-freeze2-depth2", 22, freeze_config(2, 2), 1}};
    specs.push_back(wide);
    return specs;
}

/** The warm-up request of a set-up: the workload's first request kind on
 *  an instance no measured request uses. */
Request
warmup_request(const WorkloadSpec& spec, std::uint64_t run_seed)
{
    Request request = make_request(spec, run_seed, kWarmupIndex);
    request.kind = 0;
    request.model = ba3_model(spec.kinds.front().spins, request.seed);
    return request;
}

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
ms_between(std::int64_t start_ns, std::int64_t end_ns)
{
    return 1e-6 * static_cast<double>(end_ns - start_ns);
}

void
mix(std::uint64_t& h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

std::uint64_t
bits(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

// ------------------------------------------------------------- the stack --

/**
 * Everything a run serves requests through: loopback workers, the engine,
 * the executor chain behind set_leaf_executor and, for service workloads,
 * the SolveService. With a tracer the chain is
 * TimingExecutor -> (StagedExecutor | WorkerPool -> TimingExecutor -> local).
 */
class Stack
{
  public:
    Stack(const WorkloadSpec& spec, const std::string& out_dir,
          Tracer* tracer, int generation)
    {
        for (int k = 0; k < spec.remote_workers; ++k) {
            socket_paths_.push_back(out_dir + "/w" + std::to_string(k) + "-" +
                                    std::to_string(::getpid()) + "-" +
                                    std::to_string(generation) + ".sock");
            fq::net::WorkerServer::Options options;
            options.threads = 1;
            servers_.push_back(std::make_unique<fq::net::WorkerServer>(
                "unix:" + socket_paths_.back(), options));
            servers_.back()->start();
        }
        engine_ =
            std::make_unique<engine::ExecutionEngine>(engine_threads(spec));
        engine::LeafExecutor* base = &engine_->local_leaf_executor();
        if (tracer && spec.remote_workers == 0) {
            // The engine's cache is a non-const member that the engine
            // exposes read-only; it is internally synchronized, and sharing
            // it keeps lookups, binds and compiles where the engine's own
            // path would put them.
            staged_ = std::make_unique<StagedExecutor>(
                const_cast<engine::TemplateCache&>(engine_->template_cache()),
                engine_->num_threads(), *tracer);
            base = staged_.get();
        }
        if (spec.remote_workers > 0) {
            engine::LeafExecutor* local_arm = &engine_->local_leaf_executor();
            if (tracer) {
                local_timing_ = std::make_unique<TimingExecutor>(
                    *local_arm, *tracer, "local_wave", "local_slot");
                local_arm = local_timing_.get();
            }
            std::vector<std::string> addresses;
            for (const auto& path : socket_paths_)
                addresses.push_back("unix:" + path);
            pool_ = std::make_unique<fq::net::WorkerPool>(
                *local_arm, engine_->num_threads(), addresses);
            base = pool_.get();
        }
        if (tracer) {
            timing_ = std::make_unique<TimingExecutor>(*base, *tracer, "wave",
                                                       "slot");
            base = timing_.get();
        }
        if (base != &engine_->local_leaf_executor())
            engine_->set_leaf_executor(base);
        if (spec.service)
            service_ = std::make_unique<engine::SolveService>(*engine_);
    }

    ~Stack()
    {
        service_.reset(); // drains
        if (engine_)
            engine_->set_leaf_executor(nullptr);
        timing_.reset();
        pool_.reset();
        local_timing_.reset();
        staged_.reset();
        engine_.reset();
        for (auto& server : servers_)
            server->stop();
        servers_.clear();
        for (const auto& path : socket_paths_)
            std::remove(path.c_str());
    }

    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    engine::ExecutionEngine& engine() { return *engine_; }
    engine::SolveService& service() { return *service_; }
    const StagedExecutor* staged() const { return staged_.get(); }

  private:
    std::vector<std::string> socket_paths_;
    std::vector<std::unique_ptr<fq::net::WorkerServer>> servers_;
    std::unique_ptr<engine::ExecutionEngine> engine_;
    std::unique_ptr<StagedExecutor> staged_;
    std::unique_ptr<TimingExecutor> local_timing_;
    std::unique_ptr<fq::net::WorkerPool> pool_;
    std::unique_ptr<TimingExecutor> timing_;
    std::unique_ptr<engine::SolveService> service_;
};

void
serve_one(Stack& stack, const WorkloadSpec& spec, const Request& request,
          const fq::device::Device& dev)
{
    const auto& config =
        spec.kinds[static_cast<std::size_t>(request.kind)].config;
    if (spec.service)
        (void)stack.service()
            .submit(request.model, dev, config, kShots, request.seed)
            .get();
    else
        (void)stack.engine().solve(request.model, dev, config, kShots,
                                   request.seed);
}

// -------------------------------------------------------------- phases --

/** What one request produced. */
struct Outcome
{
    std::uint64_t index = 0; ///< request index within the run
    std::uint64_t seed = 0;
    bool ok = false;         ///< completed and energy-consistent
    bool refused = false;    ///< admission / deadline rejection
    std::uint64_t digest = 0;
    double best_cost = 0.0;
    int leaves_executed = 0;
    double latency_ms = 0.0;
    std::uint64_t ticket = 0; ///< service request id (0 = solo)
    // Tracer-clock timestamps.
    std::int64_t start_ns = 0; ///< solve start / submit start
    std::int64_t submit_end_ns = 0;
    std::int64_t done_ns = 0;
};

void
record_result(Outcome& out, const Request& request, const SampledSolve& solved)
{
    out.ok = energy_consistent(request.model, solved);
    out.digest = solve_digest(solved);
    out.best_cost = solved.best_cost;
    out.leaves_executed = solved.leaves_executed;
}

/** One checkpoint the durable sink encoded. */
struct SinkEvent
{
    std::uint64_t request = 0;
    std::uint64_t cursor = 0;
    std::int64_t entry_ns = 0;
    double encode_ms = 0.0;
    double bytes = 0.0;
};

struct Phase
{
    std::vector<Outcome> outcomes;
    std::vector<OpenLoopSample> samples; ///< service phases only
    double wall_s = 0.0;
    std::vector<SinkEvent> sink_events;
};

/** Closed loop: sequential solves until @p seconds pass, or exactly
 *  @p count solves when count > 0. */
Phase
run_closed_loop(Stack& stack, const WorkloadSpec& spec, std::uint64_t seed,
                const fq::device::Device& dev, double seconds,
                std::size_t count, Tracer& tracer, bool record_spans)
{
    Phase phase;
    const auto start = Clock::now();
    for (std::uint64_t k = 0;; ++k) {
        if (count > 0 ? k >= count : seconds_since(start) >= seconds)
            break;
        const Request request = make_request(spec, seed, k);
        const auto& config =
            spec.kinds[static_cast<std::size_t>(request.kind)].config;
        engine::CheckpointSink sink;
        if (spec.checkpoint_sink)
            sink = [&phase, &tracer,
                    &request](const engine::SolveCheckpoint& ck) {
                SinkEvent event;
                event.request = request.seed;
                event.cursor = ck.cursor;
                event.entry_ns = tracer.now_ns();
                const auto bytes = engine::encode_checkpoint(ck);
                event.encode_ms = ms_between(event.entry_ns, tracer.now_ns());
                event.bytes = static_cast<double>(bytes.size());
                phase.sink_events.push_back(event);
                return true;
            };
        Outcome out;
        out.index = k;
        out.seed = request.seed;
        out.start_ns = tracer.now_ns();
        try {
            const auto solved = stack.engine().solve(
                request.model, dev, config, kShots, request.seed, sink);
            out.done_ns = tracer.now_ns();
            record_result(out, request, solved);
        } catch (const std::exception&) {
            out.done_ns = tracer.now_ns();
        }
        out.latency_ms = ms_between(out.start_ns, out.done_ns);
        if (record_spans) {
            Span span;
            span.request = request.seed;
            span.level = Level::Request;
            span.name = "solve";
            span.start_ns = out.start_ns;
            span.end_ns = out.done_ns;
            span.thread = Tracer::thread_index();
            tracer.add(span);
        }
        phase.outcomes.push_back(out);
    }
    phase.wall_s = seconds_since(start);
    return phase;
}

/**
 * Service phase: @p count requests from index @p first submitted by this
 * thread on a fixed-rate schedule (@p rate_rps > 0, open loop) or all at
 * once (@p rate_rps == 0, burst), then drained. Latency runs from each
 * request's due time to its completion callback.
 */
Phase
run_service_phase(Stack& stack, const WorkloadSpec& spec, std::uint64_t seed,
                  const fq::device::Device& dev, std::uint64_t first,
                  std::size_t count, double rate_rps, Tracer& tracer,
                  bool record_spans)
{
    std::vector<Request> requests;
    requests.reserve(count);
    for (std::size_t k = 0; k < count; ++k)
        requests.push_back(make_request(spec, seed, first + k));

    Phase phase;
    phase.outcomes.resize(count);
    phase.samples.resize(count);
    std::vector<std::atomic<std::int64_t>> done(count);
    std::vector<engine::SolveService::Ticket> tickets(count);
    std::vector<char> submitted(count, 0);
    auto& service = stack.service();

    const auto start = Clock::now();
    const std::int64_t start_ns = tracer.to_ns(start);
    for (std::size_t k = 0; k < count; ++k) {
        const double due_s = rate_rps > 0.0 ? due_time_s(k, rate_rps) : 0.0;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s)));
        Outcome& out = phase.outcomes[k];
        const Request& request = requests[k];
        out.index = first + k;
        out.seed = request.seed;
        phase.samples[k].due_s = due_s;
        done[k].store(-1);
        out.start_ns = tracer.now_ns();
        try {
            auto* slot = &done[k];
            tickets[k] = service.submit(
                request.model, dev,
                spec.kinds[static_cast<std::size_t>(request.kind)].config,
                kShots, request.seed,
                [slot, &tracer](std::uint64_t, const SampledSolve&) {
                    slot->store(tracer.now_ns());
                });
            submitted[k] = 1;
            out.ticket = tickets[k].id();
        } catch (const engine::AdmissionError&) {
            out.refused = true;
        } catch (const engine::DeadlineError&) {
            out.refused = true;
        } catch (const std::exception&) {
        }
        out.submit_end_ns = tracer.now_ns();
        phase.samples[k].sent_s =
            1e-9 * static_cast<double>(out.start_ns - start_ns);
    }
    service.drain();

    std::int64_t last_done = start_ns;
    for (std::size_t k = 0; k < count; ++k) {
        if (!submitted[k])
            continue;
        Outcome& out = phase.outcomes[k];
        try {
            const auto solved = tickets[k].get();
            record_result(out, requests[k], solved);
        } catch (const std::exception&) {
            out.ok = false;
        }
        out.done_ns = done[k].load();
        if (out.done_ns < 0) {
            out.ok = false; // failed requests never call back
            continue;
        }
        last_done = std::max(last_done, out.done_ns);
        auto& sample = phase.samples[k];
        sample.done_s = 1e-9 * static_cast<double>(out.done_ns - start_ns);
        sample.ok = out.ok;
        out.latency_ms = sample.latency_ms();
        if (record_spans) {
            Span request_span;
            request_span.id = tracer.next_id();
            request_span.request = out.seed;
            request_span.level = Level::Request;
            request_span.name = "request";
            request_span.start_ns = out.start_ns;
            request_span.end_ns = out.done_ns;
            Span submit_span = request_span;
            submit_span.id = 0;
            submit_span.parent = request_span.id;
            submit_span.level = Level::Wave; // one level below its request
            submit_span.name = "submit";
            submit_span.end_ns = out.submit_end_ns;
            tracer.add_all({request_span, submit_span});
        }
    }
    for (std::size_t k = 0; k < count; ++k)
        phase.samples[k].ok = phase.outcomes[k].ok;
    phase.wall_s = 1e-9 * static_cast<double>(last_done - start_ns);
    return phase;
}

// -------------------------------------------------------------- checks --

/**
 * Re-solve a fixed sample of the run's requests on a fresh solo engine at
 * threads = 1 and require byte-identical results (for serve-remote: the
 * remote-served result against a purely local solve). A mismatch marks
 * that outcome failed.
 */
void
check_determinism(const WorkloadSpec& spec, std::uint64_t seed,
                  const fq::device::Device& dev,
                  std::vector<Outcome>& outcomes, RunReport& report)
{
    std::vector<std::size_t> ok;
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        if (outcomes[i].ok)
            ok.push_back(i);
    if (ok.empty())
        return;
    std::set<std::size_t> sample;
    for (std::size_t j = 0; j < kDeterminismSample; ++j)
        sample.insert(ok[j * (ok.size() - 1) /
                         std::max<std::size_t>(1, kDeterminismSample - 1)]);
    engine::ExecutionEngine reference(1);
    for (const std::size_t i : sample) {
        const Request request = make_request(spec, seed, outcomes[i].index);
        const auto solved = reference.solve(
            request.model, dev,
            spec.kinds[static_cast<std::size_t>(request.kind)].config, kShots,
            request.seed);
        if (solve_digest(solved) != outcomes[i].digest) {
            outcomes[i].ok = false;
            report.notes.push_back("request " +
                                   std::to_string(outcomes[i].index) +
                                   " differs from its threads=1 solo solve");
        }
    }
}

double
reference_cost(const fq::ising::IsingModel& model)
{
    if (model.num_spins() <= kExactReferenceSpins)
        return fq::ising::solve_exact(model).min_cost;
    fq::Rng rng(kReferenceSeed);
    return fq::ising::solve_annealing(model, fq::ising::SaConfig{}, rng)
        .best_cost;
}

/** Mean best_cost / reference_cost over the first completed requests. */
double
quality_ratio(const WorkloadSpec& spec, std::uint64_t seed,
              const std::vector<Outcome>& outcomes)
{
    std::vector<double> ratios;
    for (const auto& out : outcomes) {
        if (ratios.size() >= kQualitySample)
            break;
        if (!out.ok)
            continue;
        const double reference =
            reference_cost(make_request(spec, seed, out.index).model);
        if (reference != 0.0)
            ratios.push_back(out.best_cost / reference);
    }
    return mean(ratios);
}

// ------------------------------------------------------------- metrics --

void
add(std::vector<Metric>& metrics, const std::string& name, double value,
    const std::string& unit)
{
    metrics.push_back({name, value, unit});
}

std::vector<double>
ok_latencies(const std::vector<Outcome>& outcomes)
{
    std::vector<double> out;
    for (const auto& o : outcomes)
        if (o.ok)
            out.push_back(o.latency_ms);
    return out;
}

long long
count_failed(const std::vector<Outcome>& outcomes)
{
    return static_cast<long long>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const Outcome& o) { return !o.ok; }));
}

double
count_ok(const std::vector<Outcome>& outcomes)
{
    return static_cast<double>(outcomes.size()) -
           static_cast<double>(count_failed(outcomes));
}

/** p50 / p90 of @p latencies with the sample-count guard noted. */
void
add_latency_metrics(RunReport& report, const std::vector<double>& latencies)
{
    add(report.metrics, "latency_p50_ms", percentile(latencies, 0.5), "ms");
    add(report.metrics, "latency_p90_ms", percentile(latencies, 0.9), "ms");
    add(report.details, "latency_samples",
        static_cast<double>(latencies.size()), "count");
    if (!percentile_supported(latencies.size(), 0.9))
        report.notes.push_back(
            "latency_p90_ms rests on " + std::to_string(latencies.size()) +
            " samples: fewer than 10 lie beyond it");
}

/** Per-request view of the traced run's spans. */
struct RequestView
{
    const Span* request = nullptr;
    std::int64_t submit_end_ns = 0;
    std::set<std::uint64_t> waves; ///< wave span ids the request rode
    std::int64_t first_slot_ns = -1;
    std::int64_t last_slot_ns = -1;
    std::map<std::string, double> stage_sum_ms;
};

const char* const kStages[] = {"angles", "bind", "kernel", "sample", "fold"};

struct TracedInputs
{
    const WorkloadSpec* spec = nullptr;
    int threads = 1;
    std::vector<Span> spans;
    Phase untraced;
    Phase traced;
    bool staged_valid = false;
    const StagedExecutor* staged = nullptr;
    engine::TemplateCache::Stats cache_before, cache_after;
    double pool_fill = 0.0;
    std::vector<engine::SolveService::TenantDiagnostics> tenants;
    std::vector<double> tree_ms, schedule_ms, leaves_planned;
    std::map<std::uint64_t, double> plan_split_ms; ///< by request seed
};

std::vector<Metric>
layer_metrics(const TracedInputs& in, RunReport& report)
{
    const WorkloadSpec& spec = *in.spec;
    const auto& outcomes = in.traced.outcomes;
    const double requests =
        std::max(1.0, static_cast<double>(outcomes.size()));

    std::map<std::uint64_t, RequestView> views;
    std::map<std::uint64_t, const Span*> waves;
    std::map<std::string, std::vector<double>> stage_ms;
    std::set<std::pair<std::uint64_t, int>> local_slots;
    std::vector<double> local_slot_ms, slot_ms_all;
    double slot_busy_ns = 0.0, wave_wall_ns = 0.0;
    for (const auto& o : outcomes)
        views[o.seed].submit_end_ns = o.submit_end_ns;
    for (const auto& s : in.spans) {
        const std::string name = s.name;
        if (name == "solve" || name == "request") {
            views[s.request].request = &s;
        } else if (name == "wave") {
            waves[s.id] = &s;
            if (spec.remote_workers == 0)
                wave_wall_ns += static_cast<double>(s.duration_ns());
        } else if (name == "local_wave") {
            wave_wall_ns += static_cast<double>(s.duration_ns());
        } else if (name == "local_slot") {
            local_slots.insert({s.request, s.leaf});
            local_slot_ms.push_back(s.duration_ms());
            slot_busy_ns += static_cast<double>(s.duration_ns());
        } else if (name == "slot") {
            auto& v = views[s.request];
            v.waves.insert(s.parent);
            v.first_slot_ns = v.first_slot_ns < 0
                                  ? s.start_ns
                                  : std::min(v.first_slot_ns, s.start_ns);
            v.last_slot_ns = std::max(v.last_slot_ns, s.end_ns);
            if (spec.remote_workers == 0)
                slot_busy_ns += static_cast<double>(s.duration_ns());
        } else if (s.level == Level::Stage) {
            stage_ms[name].push_back(s.duration_ms());
            views[s.request].stage_sum_ms[name] += s.duration_ms();
        }
    }
    std::vector<double> slot_rtt_ms;
    for (const auto& s : in.spans)
        if (std::strcmp(s.name, "slot") == 0) {
            if (spec.remote_workers == 0)
                slot_ms_all.push_back(s.duration_ms());
            else if (!local_slots.count({s.request, s.leaf}))
                slot_rtt_ms.push_back(s.duration_ms());
        }

    // Per-request blocking-path pieces.
    std::vector<double> plan_ms, busy_ms, gap_ms, finish_ms, waves_per_req,
        submit_ms, queue_ms, accounted;
    for (const auto& o : outcomes) {
        if (!o.ok)
            continue;
        const auto it = views.find(o.seed);
        if (it == views.end() || !it->second.request)
            continue;
        const RequestView& v = it->second;
        std::vector<const Span*> rode;
        for (const std::uint64_t id : v.waves)
            if (waves.count(id))
                rode.push_back(waves.at(id));
        std::sort(rode.begin(), rode.end(), [](const Span* a, const Span* b) {
            return a->start_ns < b->start_ns;
        });
        if (rode.empty())
            continue;
        double busy = 0.0, gaps = 0.0;
        for (std::size_t j = 0; j < rode.size(); ++j) {
            busy += rode[j]->duration_ms();
            if (j > 0)
                gaps += ms_between(rode[j - 1]->end_ns, rode[j]->start_ns);
        }
        busy_ms.push_back(busy);
        waves_per_req.push_back(static_cast<double>(rode.size()));
        const Span& req = *v.request;
        if (spec.service) {
            submit_ms.push_back(ms_between(req.start_ns, v.submit_end_ns));
            queue_ms.push_back(ms_between(v.submit_end_ns, v.first_slot_ns));
            finish_ms.push_back(ms_between(v.last_slot_ns, req.end_ns));
            plan_ms.push_back(submit_ms.back());
        } else {
            gap_ms.push_back(gaps);
            const double plan =
                ms_between(req.start_ns, rode.front()->start_ns);
            const double finish = ms_between(rode.back()->end_ns, req.end_ns);
            plan_ms.push_back(plan);
            finish_ms.push_back(finish);
            const auto split = in.plan_split_ms.find(o.seed);
            if (split != in.plan_split_ms.end())
                accounted.push_back((split->second + busy + gaps + finish) /
                                    req.duration_ms());
        }
    }
    if (spec.service) {
        // Between-wave time on the assembler while work stayed pending:
        // consecutive waves that share a request.
        std::vector<const Span*> ordered;
        for (const auto& [id, s] : waves)
            ordered.push_back(s);
        std::sort(ordered.begin(), ordered.end(),
                  [](const Span* a, const Span* b) {
                      return a->start_ns < b->start_ns;
                  });
        std::map<std::uint64_t, std::set<std::uint64_t>> riders;
        for (const auto& [seed, v] : views)
            for (const std::uint64_t id : v.waves)
                riders[id].insert(seed);
        for (std::size_t j = 1; j < ordered.size(); ++j) {
            const auto& a = riders[ordered[j - 1]->id];
            const auto& b = riders[ordered[j]->id];
            const bool shared =
                std::any_of(a.begin(), a.end(),
                            [&b](std::uint64_t r) { return b.count(r) > 0; });
            if (shared)
                gap_ms.push_back(
                    ms_between(ordered[j - 1]->end_ns, ordered[j]->start_ns));
        }
    }

    std::vector<double> lag;
    for (const auto& s : in.traced.samples)
        lag.push_back(s.lag_ms());

    // Checkpoint sink: capture time is barrier -> sink entry on
    // boundaries where no re-rank runs in between.
    std::vector<double> capture_ms, encode_ms, ckpt_bytes;
    const long long rerank = spec.kinds.front().config.rerank_interval;
    for (const auto& e : in.traced.sink_events) {
        encode_ms.push_back(e.encode_ms);
        ckpt_bytes.push_back(e.bytes);
        if (rerank > 0 && e.cursor % static_cast<std::uint64_t>(rerank) == 0)
            continue;
        std::int64_t barrier = -1;
        for (const std::uint64_t id : views[e.request].waves)
            if (waves.count(id) && waves.at(id)->end_ns <= e.entry_ns)
                barrier = std::max(barrier, waves.at(id)->end_ns);
        if (barrier >= 0)
            capture_ms.push_back(ms_between(barrier, e.entry_ns));
    }

    double remote = 0.0, executed = 0.0, wire_bytes = 0.0, redispatched = 0.0;
    for (const auto& d : in.tenants) {
        remote += static_cast<double>(d.leaves_remote);
        executed += static_cast<double>(d.leaves_executed);
        wire_bytes += static_cast<double>(d.remote_bytes_sent +
                                          d.remote_bytes_received);
        redispatched += static_cast<double>(d.leaves_redispatched);
    }

    using CacheStats = engine::TemplateCache::Stats;
    const auto delta = [&](std::uint64_t CacheStats::*field) {
        return static_cast<double>(in.cache_after.*field -
                                   in.cache_before.*field);
    };
    const double family_lookups = delta(&CacheStats::family_lookups);

    double staged = 0.0, fallback = 0.0;
    std::vector<double> kernel_bytes;
    if (in.staged) {
        staged = static_cast<double>(in.staged->staged_leaves());
        fallback = static_cast<double>(in.staged->fallback_leaves());
        kernel_bytes = in.staged->kernel_bytes();
    }

    std::vector<double> leaves_executed;
    for (const auto& o : outcomes)
        if (o.ok)
            leaves_executed.push_back(static_cast<double>(o.leaves_executed));

    std::vector<Metric> m;
    add(m, "loadgen.lag_p90_ms", spec.service ? percentile(lag, 0.9) : 0.0,
        "ms");
    add(m, "service.submit_ms", median(submit_ms), "ms");
    add(m, "service.queue_wait_ms", median(queue_ms), "ms");
    add(m, "service.pool_fill", in.pool_fill, "share");
    add(m, "plan.ms", median(plan_ms), "ms");
    add(m, "plan.tree_ms", median(in.tree_ms), "ms");
    add(m, "plan.schedule_ms", median(in.schedule_ms), "ms");
    add(m, "plan.leaves_planned", mean(in.leaves_planned), "count");
    add(m, "plan.leaves_executed", mean(leaves_executed), "count");
    add(m, "cache.family_hit_share",
        family_lookups > 0
            ? delta(&CacheStats::family_hits) / family_lookups
            : 0.0,
        "share");
    add(m, "cache.binds_per_req",
        delta(&CacheStats::family_binds) / requests, "count");
    add(m, "cache.compiles_per_req",
        (delta(&CacheStats::compiles) +
         delta(&CacheStats::family_structural_compiles)) /
            requests,
        "count");
    add(m, "wave.per_req", mean(waves_per_req), "count");
    add(m, "wave.busy_ms", median(busy_ms), "ms");
    add(m, "wave.idle_share",
        wave_wall_ns > 0.0
            ? std::max(0.0, 1.0 - slot_busy_ns / (in.threads * wave_wall_ns))
            : 0.0,
        "share");
    add(m, "wave.gap_ms", median(gap_ms), "ms");
    for (const char* stage : kStages) {
        const bool valid = in.staged_valid && in.staged;
        add(m, std::string("leaf.") + stage + "_ms",
            valid ? median(stage_ms[stage]) : 0.0, "ms");
    }
    for (const char* stage : kStages) {
        std::vector<double> sums;
        for (const auto& [seed, v] : views) {
            const auto it = v.stage_sum_ms.find(stage);
            if (it != v.stage_sum_ms.end())
                sums.push_back(it->second);
        }
        const bool valid = in.staged_valid && in.staged;
        add(m, std::string("leaf.") + stage + "_ms_per_req",
            valid ? median(sums) : 0.0, "ms");
    }
    add(m, "leaf.kernel_bytes", median(kernel_bytes), "B-computed");
    add(m, "leaf.fallback_share",
        staged + fallback > 0 ? fallback / (staged + fallback) : 0.0, "share");
    add(m, "reduce.finish_ms", median(finish_ms), "ms");
    add(m, "ckpt.per_req",
        static_cast<double>(in.traced.sink_events.size()) / requests, "count");
    add(m, "ckpt.capture_ms", median(capture_ms), "ms");
    add(m, "ckpt.encode_ms", median(encode_ms), "ms");
    add(m, "ckpt.bytes", median(ckpt_bytes), "B");
    add(m, "net.remote_share", executed > 0 ? remote / executed : 0.0, "share");
    add(m, "net.bytes_per_leaf", remote > 0 ? wire_bytes / remote : 0.0, "B");
    add(m, "net.redispatched", redispatched, "count");
    add(m, "net.slot_rtt_ms", median(slot_rtt_ms), "ms");
    add(m, "net.local_slot_ms",
        median(spec.remote_workers > 0 ? local_slot_ms : slot_ms_all), "ms");

    const double untraced_p50 =
        percentile(ok_latencies(in.untraced.outcomes), 0.5);
    const double traced_p50 = percentile(ok_latencies(outcomes), 0.5);
    add(m, "trace.overhead_share",
        untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "share");
    add(m, "trace.accounted_share", median(accounted), "share");
    add(m, "trace.staged_valid", in.staged_valid && in.staged ? 1.0 : 0.0,
        "flag");

    add(report.details, "traced.latency_p50_ms", traced_p50, "ms");
    add(report.details, "untraced.latency_p50_ms", untraced_p50, "ms");
    add(report.details, "traced.requests", static_cast<double>(outcomes.size()),
        "count");
    return m;
}

// ---------------------------------------------------------------- runs --

RunReport
run_untraced(const WorkloadSpec& spec, const RunOptions& options,
             const fq::device::Device& dev)
{
    RunReport report;
    Tracer clock; // timestamps only

    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    for (int s = 0; s < kSetups; ++s) {
        stack.reset();
        const auto start = Clock::now();
        stack = std::make_unique<Stack>(spec, options.out_dir, nullptr, s);
        serve_one(*stack, spec, warmup_request(spec, options.seed), dev);
        setup_s.push_back(seconds_since(start));
    }

    std::vector<Outcome> outcomes;
    double throughput = 0.0;
    double slo = 0.0;
    std::vector<double> latencies;
    if (spec.service) {
        const auto open_count = static_cast<std::size_t>(
            std::ceil(spec.rate_rps * kOpenLoopShare * options.seconds));
        const auto burst_count = static_cast<std::size_t>(std::max(
            8.0, std::ceil(spec.burst_sizing_rps * (1.0 - kOpenLoopShare) *
                           options.seconds)));
        Phase open = run_service_phase(*stack, spec, options.seed, dev, 0,
                                       open_count, spec.rate_rps, clock, false);
        Phase burst = run_service_phase(*stack, spec, options.seed, dev,
                                        open_count, burst_count, 0.0, clock,
                                        false);
        latencies = open_loop_latencies_ms(open.samples);
        slo = slo_attainment(open.samples, spec.latency_limit_ms);
        throughput = burst.wall_s > 0
                         ? count_ok(burst.outcomes) / burst.wall_s
                         : 0.0;
        std::vector<double> lag;
        for (const auto& s : open.samples)
            lag.push_back(s.lag_ms());
        add(report.details, "loadgen.lag_p90_ms", percentile(lag, 0.9), "ms");
        add(report.details, "open_loop.requests",
            static_cast<double>(open_count), "count");
        add(report.details, "burst.requests",
            static_cast<double>(burst_count), "count");
        add(report.details, "burst.wall_s", burst.wall_s, "s");
        add(report.details, "service.pool_fill",
            stack->service().stats().mean_pool_fill, "share");
        outcomes = std::move(open.outcomes);
        outcomes.insert(outcomes.end(), burst.outcomes.begin(),
                        burst.outcomes.end());
    } else {
        Phase loop = run_closed_loop(*stack, spec, options.seed, dev,
                                     options.seconds, 0, clock, false);
        latencies = ok_latencies(loop.outcomes);
        std::size_t met = 0;
        for (const auto& o : loop.outcomes)
            if (o.ok && o.latency_ms <= spec.latency_limit_ms)
                ++met;
        slo = loop.outcomes.empty()
                  ? 0.0
                  : static_cast<double>(met) /
                        static_cast<double>(loop.outcomes.size());
        throughput =
            loop.wall_s > 0 ? count_ok(loop.outcomes) / loop.wall_s : 0.0;
        outcomes = std::move(loop.outcomes);
    }
    stack.reset();

    // Everything below is outside the timed phases.
    check_determinism(spec, options.seed, dev, outcomes, report);
    report.attempted = static_cast<long long>(outcomes.size());
    report.failed = count_failed(outcomes);
    const double error_rate =
        report.attempted > 0 ? static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted)
                             : 1.0;

    add_latency_metrics(report, latencies);
    add(report.metrics, "throughput_rps", throughput, "req/s");
    add(report.metrics, "slo_attainment", slo, "share");
    add(report.metrics, "ok_rate", 1.0 - error_rate, "share");
    add(report.metrics, "quality_ratio",
        quality_ratio(spec, options.seed, outcomes), "ratio");
    add(report.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    add(report.metrics, "setup_s", median(setup_s), "s");
    add(report.details, "error_rate", error_rate, "share");
    add(report.details, "refused",
        static_cast<double>(std::count_if(
            outcomes.begin(), outcomes.end(),
            [](const Outcome& o) { return o.refused; })),
        "count");
    add(report.details, "setup_s.min",
        *std::min_element(setup_s.begin(), setup_s.end()), "s");
    report.correct = report.failed == 0;
    return report;
}

RunReport
run_traced(const WorkloadSpec& spec, const RunOptions& options,
           const fq::device::Device& dev)
{
    RunReport report;
    TracedInputs in;
    in.spec = &spec;
    in.threads = engine_threads(spec);
    const double half = 0.5 * options.seconds;
    const auto service_count =
        static_cast<std::size_t>(std::ceil(spec.rate_rps * half));

    // Untraced half: the same requests through an undecorated stack, for
    // the tracing overhead and the byte-identity check of staged results.
    {
        Tracer clock;
        Stack stack(spec, options.out_dir, nullptr, 0);
        serve_one(stack, spec, warmup_request(spec, options.seed), dev);
        in.untraced =
            spec.service
                ? run_service_phase(stack, spec, options.seed, dev, 0,
                                    service_count, spec.rate_rps, clock, false)
                : run_closed_loop(stack, spec, options.seed, dev, half, 0,
                                  clock, false);
    }

    Tracer tracer;
    {
        Stack stack(spec, options.out_dir, &tracer, 1);
        serve_one(stack, spec, warmup_request(spec, options.seed), dev);
        in.cache_before = stack.engine().template_cache().stats();
        const std::size_t count = in.untraced.outcomes.size();
        in.traced = spec.service
                        ? run_service_phase(stack, spec, options.seed, dev, 0,
                                            count, spec.rate_rps, tracer, true)
                        : run_closed_loop(stack, spec, options.seed, dev, 0.0,
                                          count, tracer, true);
        in.cache_after = stack.engine().template_cache().stats();
        if (spec.service) {
            in.pool_fill = stack.service().stats().mean_pool_fill;
            for (const auto& o : in.traced.outcomes)
                if (o.ticket != 0 && o.ok)
                    in.tenants.push_back(stack.service().diagnostics(o.ticket));
        }
        in.spans = tracer.spans();
        // Staged results must match the untraced run byte for byte; when
        // they do not, the stage split is reported invalid and only the
        // decorator's spans are kept.
        in.staged_valid = stack.staged() != nullptr;
        for (std::size_t i = 0; i < count && in.staged_valid; ++i)
            if (in.traced.outcomes[i].digest != in.untraced.outcomes[i].digest)
                in.staged_valid = false;
        if (stack.staged() && !in.staged_valid)
            report.notes.push_back("staged leaf results differ from the "
                                   "untraced run: stage split invalid");
        link_parents(in.spans);
        in.staged = stack.staged();

        // Plan split: re-drive build_solve_tree / make_schedule for a
        // sample of the requests on a cold cache, as the engine met them.
        engine::BatchExecutor scoring(in.threads);
        for (std::size_t i = 0; i < std::min(count, kPlanSplitSample); ++i) {
            const Request request =
                make_request(spec, options.seed, in.traced.outcomes[i].index);
            const auto& config =
                spec.kinds[static_cast<std::size_t>(request.kind)].config;
            engine::TemplateCache cache;
            fq::Rng rng(request.seed);
            const std::int64_t t0 = tracer.now_ns();
            const auto tree = engine::build_solve_tree(request.model, dev,
                                                       config, cache, rng);
            const std::int64_t t1 = tracer.now_ns();
            (void)engine::make_schedule(request.model, tree, config, false,
                                        spec.service ? nullptr : &scoring);
            const std::int64_t t2 = tracer.now_ns();
            in.tree_ms.push_back(ms_between(t0, t1));
            in.schedule_ms.push_back(ms_between(t1, t2));
            in.leaves_planned.push_back(
                static_cast<double>(tree.num_executable_leaves()));
            in.plan_split_ms[request.seed] = ms_between(t0, t2);
        }
        report.metrics = layer_metrics(in, report);
    }

    check_determinism(spec, options.seed, dev, in.traced.outcomes, report);
    report.attempted = static_cast<long long>(in.untraced.outcomes.size() +
                                              in.traced.outcomes.size());
    report.failed = count_failed(in.untraced.outcomes) +
                    count_failed(in.traced.outcomes);
    report.correct = report.failed == 0;

    report.trace_path = options.out_dir + "/trace-" + spec.name + "-seed" +
                        std::to_string(options.seed) + ".json";
    if (!write_trace_events(in.spans, report.trace_path)) {
        report.notes.push_back("could not write " + report.trace_path);
        report.trace_path.clear();
    }
    return report;
}

} // namespace

const std::vector<WorkloadSpec>&
workload_specs()
{
    static const std::vector<WorkloadSpec> specs = build_specs();
    return specs;
}

const WorkloadSpec&
find_workload(const std::string& name)
{
    for (const auto& spec : workload_specs())
        if (spec.name == name)
            return spec;
    throw std::invalid_argument("unknown workload \"" + name + "\"");
}

int
engine_threads(const WorkloadSpec& spec)
{
    if (spec.threads > 0)
        return spec.threads;
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    return std::max(1, nproc + spec.threads);
}

fq::ising::IsingModel
ba3_model(int spins, std::uint64_t seed)
{
    fq::Rng rng(fq::combine_seeds(seed, fq::hash_seed("ba") + kDegree));
    auto g = fq::graph::barabasi_albert(spins, kDegree, rng);
    fq::graph::assign_random_pm1_weights(g, rng);
    return fq::ising::IsingModel::from_graph(g);
}

Request
make_request(const WorkloadSpec& spec, std::uint64_t run_seed,
             std::uint64_t index)
{
    Request request;
    request.seed = fq::combine_seeds(
        fq::combine_seeds(run_seed, fq::hash_seed(spec.name)), index + 1);
    // The mix is a fixed repeating pattern (weights 3:1 -> A A A B), so
    // every run holds the same proportions and only the instances vary.
    int total = 0;
    for (const auto& kind : spec.kinds)
        total += kind.weight;
    auto pick = static_cast<int>(index % static_cast<std::uint64_t>(total));
    for (std::size_t k = 0; k < spec.kinds.size(); ++k) {
        if (pick < spec.kinds[k].weight) {
            request.kind = static_cast<int>(k);
            break;
        }
        pick -= spec.kinds[k].weight;
    }
    request.model = ba3_model(
        spec.kinds[static_cast<std::size_t>(request.kind)].spins, request.seed);
    return request;
}

std::uint64_t
solve_digest(const SampledSolve& solved)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    mix(h, solved.best_assignment.size());
    for (const auto z : solved.best_assignment)
        mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(z)));
    mix(h, bits(solved.best_cost));
    mix(h, static_cast<std::uint64_t>(solved.from_subproblem));
    mix(h, bits(solved.best_quantum_cost));
    mix(h, static_cast<std::uint64_t>(solved.best_quantum_leaf));
    mix(h, solved.distributions.size());
    for (const auto& counts : solved.distributions) {
        mix(h, static_cast<std::uint64_t>(counts.num_qubits()));
        for (const auto& [state, count] : counts.histogram()) {
            mix(h, state);
            mix(h, count);
        }
    }
    mix(h, static_cast<std::uint64_t>(solved.leaves_total));
    mix(h, static_cast<std::uint64_t>(solved.leaves_executed));
    for (const auto& point : solved.anytime) {
        mix(h, static_cast<std::uint64_t>(point.circuits));
        mix(h, bits(point.incumbent_cost));
        mix(h, static_cast<std::uint64_t>(point.leaf));
    }
    mix(h, solved.degraded ? 1 : 0);
    mix(h, static_cast<std::uint64_t>(solved.deadline_trimmed));
    return h;
}

bool
energy_consistent(const fq::ising::IsingModel& model,
                  const SampledSolve& solved)
{
    if (solved.best_assignment.size() !=
        static_cast<std::size_t>(model.num_spins()))
        return false;
    const double energy = model.evaluate(solved.best_assignment);
    return std::abs(energy - solved.best_cost) <=
           1e-9 * std::max(1.0, std::abs(energy));
}

RunReport
run_workload(const RunOptions& options)
{
    const WorkloadSpec& spec = find_workload(options.workload);
    const auto dev = fq::device::make_device(kDevice);
    return options.trace ? run_traced(spec, options, dev)
                         : run_untraced(spec, options, dev);
}

} // namespace perfbench
