#include "net/worker.h"

#include <algorithm>
#include <map>
#include <utility>

#include <sys/socket.h>

#include "common/rng.h"
#include "device/catalog.h"
#include "engine/checkpoint.h"
#include "engine/engine.h"
#include "engine/solve_tree.h"
#include "net/wire.h"

namespace fq::net {

namespace {

/** One opened session: the replanned, fingerprint-verified solve tree. */
struct Session
{
    ising::IsingModel model;
    device::Device dev;
    frozenqubits::DriverConfig config;
    engine::SolveTree tree;
    std::int32_t shots = 0;
};

} // namespace

WorkerServer::WorkerServer(std::string address)
    : WorkerServer(std::move(address), Options())
{
}

WorkerServer::WorkerServer(std::string address, Options opts)
    : address_(std::move(address)),
      opts_(opts),
      executor_(opts.threads),
      listen_fd_(listen_on(address_))
{
}

WorkerServer::~WorkerServer()
{
    stop();
}

void
WorkerServer::start()
{
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void
WorkerServer::run()
{
    accept_loop();
}

void
WorkerServer::stop()
{
    if (stopping_.exchange(true))
        return;
    // Unblock accept() and every in-flight read_frame(): shutdown() makes
    // them return without racing the descriptors' lifetimes (the Fd owners
    // close; we only shut down).
    if (listen_fd_.valid())
        ::shutdown(listen_fd_.get(), SHUT_RDWR);
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (const int fd : conn_fds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    if (accept_thread_.joinable())
        accept_thread_.join();
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        threads.swap(conn_threads_);
        finished_threads_.clear();
    }
    for (auto& t : threads)
        if (t.joinable())
            t.join();
    listen_fd_.reset();
}

void
WorkerServer::accept_loop()
{
    for (;;) {
        Fd client;
        try {
            client = accept_client(listen_fd_.get());
        } catch (const NetError&) {
            return; // listener closed: shutdown
        }
        const int raw = client.get();
        std::lock_guard<std::mutex> lock(conn_mutex_);
        // Reap connections that finished serving since the last accept:
        // their threads are done (they deregistered under this mutex), so
        // the joins return promptly and conn_threads_ stays bounded by
        // the number of LIVE connections, not total connections served.
        for (const auto id : finished_threads_) {
            const auto it = std::find_if(
                conn_threads_.begin(), conn_threads_.end(),
                [id](const std::thread& t) { return t.get_id() == id; });
            if (it != conn_threads_.end()) {
                it->join();
                conn_threads_.erase(it);
            }
        }
        finished_threads_.clear();
        conn_fds_.push_back(raw);
        conn_threads_.emplace_back(
            [this, fd = std::move(client)]() mutable {
                serve_connection(std::move(fd));
            });
        // stop() sets stopping_ BEFORE its shutdown pass over conn_fds_,
        // so either that pass already covered this fd (registered in
        // time) or stopping_ is visible here and we shut the fresh
        // connection down ourselves — its serve thread can never block
        // in read_frame past stop().
        if (stopping_.load())
            ::shutdown(raw, SHUT_RDWR);
    }
}

void
WorkerServer::serve_connection(Fd client)
{
    // Deregister the fd before closing it, so stop() can never shutdown()
    // a recycled descriptor number.
    struct Deregister
    {
        WorkerServer* server;
        int fd;
        ~Deregister()
        {
            std::lock_guard<std::mutex> lock(server->conn_mutex_);
            auto& fds = server->conn_fds_;
            fds.erase(std::remove(fds.begin(), fds.end(), fd), fds.end());
            server->finished_threads_.push_back(
                std::this_thread::get_id());
        }
    } deregister{this, client.get()};

    std::map<std::uint64_t, Session> sessions;
    try {
        // Greet first: the coordinator weights its wave assignment by
        // this thread capacity from the very first wave, and a protocol
        // version skew dies at connect instead of mid-solve.
        write_frame(client.get(), kMsgWorkerHello,
                    encode_worker_hello(
                        {kProtocolVersion, executor_.num_threads()}));
        for (;;) {
            const Frame frame = read_frame(client.get());
            switch (frame.type) {
            case kMsgOpenSession: {
                const auto open = decode_open_session(frame.payload);
                try {
                    Session s;
                    s.model = open.model;
                    s.config = open.config;
                    s.shots = open.shots;
                    s.dev = device::make_device(open.device_name);
                    if (engine::device_fingerprint(s.dev, 0) !=
                        open.device_hash)
                        throw NetError(
                            "worker: device fingerprint mismatch (the "
                            "catalog device differs from the "
                            "coordinator's)");
                    // The replan IS the work descriptor decompression: the
                    // tree rebuilt from (model, config, seed) carries every
                    // leaf's sub-model, RNG stream seed and template key.
                    Rng rng(open.seed);
                    s.tree = engine::build_solve_tree(s.model, s.dev,
                                                      s.config, cache_, rng);
                    if (engine::model_fingerprint(s.model) != open.model_hash)
                        throw NetError("worker: model fingerprint mismatch");
                    if (engine::config_fingerprint(s.config) !=
                        open.config_hash)
                        throw NetError("worker: config fingerprint mismatch");
                    if (engine::plan_fingerprint(s.tree) != open.plan_hash)
                        throw NetError(
                            "worker: plan fingerprint mismatch (replan "
                            "diverged from coordinator)");
                    sessions[open.session_id] = std::move(s);
                    write_frame(client.get(), kMsgSessionReady,
                                encode_session_ready(
                                    {open.session_id,
                                     executor_.num_threads()}));
                } catch (const std::exception& e) {
                    write_frame(client.get(), kMsgError,
                                encode_wire_error(
                                    {open.session_id, e.what()}));
                }
                break;
            }
            case kMsgExecBatch: {
                const auto batch = decode_exec_batch(frame.payload);
                const auto it = sessions.find(batch.session_id);
                if (it == sessions.end()) {
                    write_frame(client.get(), kMsgError,
                                encode_wire_error({batch.session_id,
                                                   "worker: unknown "
                                                   "session"}));
                    break;
                }
                Session& s = it->second;
                const int num_leaves = s.tree.num_executable_leaves();
                bool bad_leaf = false;
                for (const std::int32_t id : batch.leaf_ids)
                    if (id < 0 || id >= num_leaves)
                        bad_leaf = true;
                if (bad_leaf) {
                    write_frame(client.get(), kMsgError,
                                encode_wire_error({batch.session_id,
                                                   "worker: leaf id out of "
                                                   "range"}));
                    break;
                }

                // Fault injection: execute only up to the death budget,
                // reply for those, then hard-close mid-batch.
                std::size_t allowed = batch.leaf_ids.size();
                if (opts_.die_after_leaves > 0) {
                    const long long remaining =
                        opts_.die_after_leaves -
                        leaves_executed_.load(std::memory_order_relaxed);
                    allowed = static_cast<std::size_t>(std::clamp<long long>(
                        remaining, 0,
                        static_cast<long long>(batch.leaf_ids.size())));
                }

                struct Outcome
                {
                    sim::Counts counts;
                    bool failed = false;
                    std::string error;
                };
                std::vector<Outcome> outs(allowed);
                {
                    std::lock_guard<std::mutex> lock(executor_mutex_);
                    std::vector<engine::BatchExecutor::QueuedTask> queue;
                    queue.reserve(allowed);
                    for (std::size_t k = 0; k < allowed; ++k) {
                        const int leaf_id = batch.leaf_ids[k];
                        queue.push_back(
                            [this, &s, &outs, k, leaf_id](
                                engine::BatchExecutor::Scratch& scratch) {
                                Outcome& out = outs[k];
                                if (opts_.fail_leaves) {
                                    out.failed = true;
                                    out.error = "injected leaf failure";
                                    return;
                                }
                                try {
                                    out.counts =
                                        engine::simulate_scheduled_leaf(
                                            cache_, s.tree, leaf_id, s.dev,
                                            s.config, s.shots, scratch);
                                } catch (const std::exception& e) {
                                    out.failed = true;
                                    out.error = e.what();
                                }
                            });
                    }
                    executor_.run_queue(queue);
                }
                leaves_executed_.fetch_add(
                    static_cast<long long>(allowed),
                    std::memory_order_relaxed);

                for (std::size_t k = 0; k < allowed; ++k) {
                    const std::int32_t leaf_id = batch.leaf_ids[k];
                    Outcome& out = outs[k];
                    if (out.failed) {
                        write_frame(client.get(), kMsgLeafFailed,
                                    encode_leaf_failed({batch.session_id,
                                                        leaf_id,
                                                        out.error}));
                        continue;
                    }
                    LeafCounts reply;
                    reply.session_id = batch.session_id;
                    reply.leaf_id = leaf_id;
                    reply.width = out.counts.num_qubits();
                    reply.histogram =
                        sim::histogram_entries(std::move(out.counts));
                    write_frame(client.get(), kMsgLeafCounts,
                                encode_leaf_counts(reply));
                }
                if (allowed < batch.leaf_ids.size())
                    return; // die_after_leaves: crash mid-batch
                break;
            }
            case kMsgCloseSession: {
                const auto close = decode_close_session(frame.payload);
                sessions.erase(close.session_id);
                break;
            }
            default:
                write_frame(client.get(), kMsgError,
                            encode_wire_error({0, "worker: unexpected "
                                                  "message type"}));
                return;
            }
        }
    } catch (const NetError&) {
        // Peer hung up or the stream corrupted: drop the connection. The
        // coordinator's hedging re-dispatches anything outstanding.
    }
}

} // namespace fq::net
