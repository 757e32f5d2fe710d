#include "net/worker_pool.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <utility>

#include "engine/checkpoint.h"
#include "engine/template_cache.h"
#include "net/wire.h"
#include "sim/counts.h"

namespace fq::net {

namespace {

/** Find-or-append into a (key, count) accumulation vector. */
void
bump(std::vector<std::pair<std::string, long long>>& counters,
     const std::string& key, long long delta)
{
    for (auto& [k, v] : counters)
        if (k == key) {
            v += delta;
            return;
        }
    counters.emplace_back(key, delta);
}

} // namespace

WorkerPool::WorkerPool(engine::LeafExecutor& local_arm, int local_threads,
                       const std::vector<std::string>& addresses)
    : WorkerPool(local_arm, local_threads, addresses, Options())
{
}

WorkerPool::WorkerPool(engine::LeafExecutor& local_arm, int local_threads,
                       const std::vector<std::string>& addresses,
                       Options opts)
    : local_(local_arm),
      local_threads_(std::max(1, local_threads)),
      opts_(opts)
{
    workers_.reserve(addresses.size());
    for (const auto& address : addresses) {
        Worker w;
        w.address = address;
        w.fd = connect_to(address);
        // The worker greets with its protocol version and thread
        // capacity, so the first wave's cost-weighted assignment is
        // already correctly weighted (and a version skew is a startup
        // error, like a typo'd address).
        const Frame hello =
            read_frame(w.fd.get(), opts_.hedge_timeout_ms);
        if (hello.type != kMsgWorkerHello)
            throw NetError("net: worker at " + address +
                           " did not greet with WorkerHello");
        w.threads =
            std::max(1, decode_worker_hello(hello.payload).threads);
        workers_.push_back(std::move(w));
    }
}

WorkerPool::~WorkerPool() = default;

int
WorkerPool::live_workers() const
{
    int live = 0;
    for (const auto& w : workers_)
        live += w.alive ? 1 : 0;
    return live;
}

engine::LeafExecutorStats&
WorkerPool::stats_for(const engine::WaveRequest* request)
{
    return stats_[request];
}

void
WorkerPool::count_dispatch(const engine::WaveRequest* request,
                           const std::string& address, long long leaves)
{
    bump(stats_for(request).worker_dispatches, address, leaves);
}

void
WorkerPool::mark_dead(Worker& worker)
{
    worker.alive = false;
    worker.fd.reset();
    worker.sessions.clear();
}

WorkerPool::OpenResult
WorkerPool::ensure_session(Worker& worker,
                           const engine::WaveRequest* request)
{
    if (worker.sessions.count(request))
        return OpenResult::Ok;
    if (std::find(worker.rejected.begin(), worker.rejected.end(),
                  request) != worker.rejected.end())
        return OpenResult::RequestRejected;

    OpenSession open;
    open.session_id = next_session_id_++;
    open.model = *request->model;
    open.device_name = request->dev->name;
    open.config = *request->config;
    open.seed = request->seed;
    open.shots = request->shots;
    open.model_hash = engine::model_fingerprint(*request->model);
    open.config_hash = engine::config_fingerprint(*request->config);
    open.plan_hash = engine::plan_fingerprint(*request->tree);
    open.device_hash = engine::device_fingerprint(*request->dev, 0);

    auto& stat = stats_for(request);
    try {
        const auto payload = encode_open_session(open);
        write_frame(worker.fd.get(), kMsgOpenSession, payload);
        stat.bytes_sent +=
            static_cast<long long>(frame_wire_size(payload.size()));
        const Frame reply =
            read_frame(worker.fd.get(), opts_.hedge_timeout_ms);
        stat.bytes_received += static_cast<long long>(
            frame_wire_size(reply.payload.size()));
        if (reply.type == kMsgError) {
            // The worker cannot reproduce this request: it rebuilds the
            // device from its catalog name, so a custom device (unknown
            // name, or a catalog name with its own calibration) fails
            // there, as would a replan that diverged. The worker itself
            // is healthy; pin the request local.
            worker.rejected.push_back(request);
            return OpenResult::RequestRejected;
        }
        if (reply.type != kMsgSessionReady)
            throw NetError("net: unexpected reply to OpenSession");
        const auto ready = decode_session_ready(reply.payload);
        if (ready.session_id != open.session_id)
            throw NetError("net: SessionReady for the wrong session");
        worker.threads = std::max(1, ready.threads);
        worker.sessions[request] = open.session_id;
        return OpenResult::Ok;
    } catch (const NetError&) {
        mark_dead(worker);
        return OpenResult::WorkerDead;
    }
}

int
WorkerPool::execute_wave(const std::vector<engine::WaveSlot>& wave,
                         const engine::WaveHooks& hooks)
{
    std::vector<Worker*> live;
    for (auto& w : workers_)
        if (w.alive)
            live.push_back(&w);
    if (live.empty() || wave.empty())
        return local_.execute_wave(wave, hooks);

    // ---------------------------------------------------- assignment --
    // Deterministic cost-weighted greedy: widest leaves first (stable on
    // the wave order), each to the arm with the lowest projected load
    // relative to its thread capacity. Arm 0 is the local BatchExecutor;
    // arms 1..N the live workers. Placement shapes only WHERE a leaf
    // runs — never its counts — so the heuristic is free to be greedy.
    std::vector<std::size_t> order(wave.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&wave](std::size_t a, std::size_t b) {
                         const auto& sa = wave[a];
                         const auto& sb = wave[b];
                         return leaf_slot_cost(*sa.request->tree,
                                               sa.leaf_id) >
                                leaf_slot_cost(*sb.request->tree,
                                               sb.leaf_id);
                     });

    const std::size_t arms = live.size() + 1;
    std::vector<double> load(arms, 0.0);
    std::vector<double> capacity(arms, 1.0);
    capacity[0] = static_cast<double>(local_threads_);
    for (std::size_t a = 1; a < arms; ++a)
        capacity[a] = static_cast<double>(std::max(1, live[a - 1]->threads));

    std::vector<engine::WaveSlot> local_slots;
    std::vector<std::vector<engine::WaveSlot>> remote_slots(live.size());
    int executed = 0;

    for (const std::size_t idx : order) {
        const engine::WaveSlot& slot = wave[idx];
        const double cost = static_cast<double>(
            leaf_slot_cost(*slot.request->tree, slot.leaf_id));
        if (!slot.request->config->allow_remote) {
            local_slots.push_back(slot);
            load[0] += cost;
            continue;
        }
        std::size_t best = 0;
        double best_score = (load[0] + cost) / capacity[0];
        for (std::size_t a = 1; a < arms; ++a) {
            const double score = (load[a] + cost) / capacity[a];
            if (score < best_score) {
                best = a;
                best_score = score;
            }
        }
        load[best] += cost;
        if (best == 0) {
            local_slots.push_back(slot);
            continue;
        }
        // Dispatch-time admission for remote slots — the same gate the
        // local path runs on its worker threads (idempotent there).
        if (hooks.admit && !hooks.admit(slot))
            continue;
        remote_slots[best - 1].push_back(slot);
    }

    // ------------------------------------------- sessions + dispatch --
    // Outstanding ledger per worker: (session, leaf) -> slot. A reply
    // must name an outstanding entry — counts for a leaf this worker was
    // never asked about are a protocol violation, not data.
    struct Outstanding
    {
        std::map<std::pair<std::uint64_t, std::int32_t>, engine::WaveSlot>
            entries;
    };
    std::vector<Outstanding> outstanding(live.size());

    for (std::size_t wi = 0; wi < live.size(); ++wi) {
        Worker& worker = *live[wi];
        auto& slots = remote_slots[wi];
        if (slots.empty())
            continue;
        // Group by request: one session + one ExecBatch per request.
        std::map<const engine::WaveRequest*, std::vector<std::int32_t>>
            by_request;
        for (const auto& slot : slots)
            by_request[slot.request].push_back(slot.leaf_id);
        // Open every session BEFORE the first ExecBatch of the wave goes
        // out: the open handshake is a synchronous read on the same
        // stream, and once a batch is in flight the next frame may be a
        // LeafCounts, not the SessionReady (previous waves' replies are
        // always fully drained, so pre-batch the connection is quiet).
        std::vector<const engine::WaveRequest*> opened_requests;
        for (const auto& [request, leaf_ids] : by_request) {
            if (worker.alive &&
                ensure_session(worker, request) == OpenResult::Ok) {
                opened_requests.push_back(request);
                continue;
            }
            // Worker dead or session rejected: this request's slots fall
            // back to the local arm.
            for (const auto& slot : slots)
                if (slot.request == request)
                    local_slots.push_back(slot);
        }
        for (const auto* request : opened_requests) {
            const auto& leaf_ids = by_request[request];
            if (!worker.alive) {
                // Died sending an earlier batch this wave.
                for (const auto& slot : slots)
                    if (slot.request == request)
                        local_slots.push_back(slot);
                continue;
            }
            const std::uint64_t session = worker.sessions[request];
            ExecBatch batch;
            batch.session_id = session;
            batch.leaf_ids = leaf_ids;
            try {
                const auto payload = encode_exec_batch(batch);
                write_frame(worker.fd.get(), kMsgExecBatch, payload);
                stats_for(request).bytes_sent += static_cast<long long>(
                    frame_wire_size(payload.size()));
            } catch (const NetError&) {
                mark_dead(worker);
                for (const auto& slot : slots)
                    if (slot.request == request)
                        local_slots.push_back(slot);
                continue;
            }
            count_dispatch(request, worker.address,
                           static_cast<long long>(leaf_ids.size()));
            for (const auto& slot : slots)
                if (slot.request == request)
                    outstanding[wi].entries[{session, slot.leaf_id}] = slot;
        }
    }

    // Local sub-wave runs while the workers chew on theirs.
    if (!local_slots.empty())
        executed += local_.execute_wave(local_slots, hooks);

    // ------------------------------------------------ replies / hedge --
    // A worker-reported leaf failure with no failure hook must propagate
    // like a local throw — but NOT from inside the reply loop, where the
    // protocol-violation catch would swallow it (and wrongly kill a
    // healthy worker). Record the first one and rethrow after every
    // worker has drained or hedged, mirroring the BatchExecutor barrier.
    std::exception_ptr leaf_failure;
    for (std::size_t wi = 0; wi < live.size(); ++wi) {
        Worker& worker = *live[wi];
        auto& entries = outstanding[wi].entries;
        const char* fault = nullptr;
        while (!entries.empty() && worker.alive && !fault) {
            Frame frame;
            try {
                frame = read_frame(worker.fd.get(), opts_.hedge_timeout_ms);
            } catch (const NetTimeout&) {
                fault = "silent past the hedge timeout";
                break;
            } catch (const NetError&) {
                fault = "transport failure";
                break;
            }
            try {
                if (frame.type == kMsgLeafCounts) {
                    auto msg = decode_leaf_counts(frame.payload);
                    const auto it = entries.find(
                        {msg.session_id, msg.leaf_id});
                    if (it == entries.end())
                        throw NetError("net: counts for a leaf that was "
                                       "never dispatched");
                    const engine::WaveSlot slot = it->second;
                    engine::WaveRequest& r = *slot.request;
                    if (msg.width != r.tree->leaf_width(slot.leaf_id))
                        throw NetError("net: reply width contradicts the "
                                       "plan");
                    auto counts = sim::checked_counts<NetError>(
                        msg.width, std::move(msg.histogram),
                        static_cast<std::uint64_t>(r.shots));
                    entries.erase(it);
                    auto& stat = stats_for(&r);
                    stat.leaves_remote += 1;
                    stat.bytes_received += static_cast<long long>(
                        frame_wire_size(frame.payload.size()));
                    r.reducer->fold(slot.leaf_id, std::move(counts));
                    ++executed;
                    if (hooks.folded)
                        hooks.folded(slot, false,
                                     engine::TemplateTier::Compile);
                } else if (frame.type == kMsgLeafFailed) {
                    const auto msg = decode_leaf_failed(frame.payload);
                    const auto it = entries.find(
                        {msg.session_id, msg.leaf_id});
                    if (it == entries.end())
                        throw NetError("net: failure report for a leaf "
                                       "that was never dispatched");
                    const engine::WaveSlot slot = it->second;
                    entries.erase(it);
                    stats_for(slot.request)
                        .bytes_received += static_cast<long long>(
                        frame_wire_size(frame.payload.size()));
                    // Same semantics as a local throw: the slot counts as
                    // executed, and without a failure hook it propagates
                    // (deferred past the drain — the worker is healthy).
                    ++executed;
                    const NetError error("net: worker reported leaf "
                                         "failure: " +
                                         msg.message);
                    if (hooks.failed)
                        hooks.failed(slot,
                                     std::make_exception_ptr(error));
                    else if (!leaf_failure)
                        leaf_failure = std::make_exception_ptr(error);
                } else {
                    throw NetError("net: unexpected frame type " +
                                   std::to_string(frame.type) +
                                   " while awaiting leaf replies");
                }
            } catch (const NetError&) {
                fault = "protocol violation";
                break;
            }
        }
        if ((fault || !worker.alive) && !entries.empty()) {
            // Hedged re-dispatch: the worker is dead (or lying); every
            // leaf it still owed re-runs on the local arm INSIDE this
            // wave, so the barrier still holds and the fold set is
            // exactly what an uninterrupted solve produces.
            mark_dead(worker);
            std::vector<engine::WaveSlot> retry;
            retry.reserve(entries.size());
            for (const auto& [key, slot] : entries)
                retry.push_back(slot);
            entries.clear();
            for (const auto& slot : retry)
                stats_for(slot.request).leaves_redispatched += 1;
            executed += local_.execute_wave(retry, hooks);
        }
    }
    if (leaf_failure)
        std::rethrow_exception(leaf_failure);
    return executed;
}

engine::LeafExecutorStats
WorkerPool::request_stats(const engine::WaveRequest* request)
{
    const auto it = stats_.find(request);
    return it == stats_.end() ? engine::LeafExecutorStats{} : it->second;
}

void
WorkerPool::finish_request(const engine::WaveRequest* request)
{
    for (auto& worker : workers_) {
        const auto it = worker.sessions.find(request);
        if (it != worker.sessions.end()) {
            try {
                write_frame(worker.fd.get(), kMsgCloseSession,
                            encode_close_session({it->second}));
            } catch (const NetError&) {
                mark_dead(worker);
            }
            worker.sessions.erase(request);
        }
        worker.rejected.erase(std::remove(worker.rejected.begin(),
                                          worker.rejected.end(), request),
                              worker.rejected.end());
    }
    stats_.erase(request);
}

} // namespace fq::net
