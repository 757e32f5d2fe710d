/**
 * @file
 * WorkerServer: the leaf-execution half of the distributed protocol —
 * `fqtool worker --listen <addr>` in-process. A worker PLANS NOTHING: it
 * never ranks, budgets or re-ranks a schedule. On OpenSession it rebuilds
 * the device from its catalog name and replans the solve tree from
 * (model, config, seed) — build_solve_tree is a pure function, the same
 * property checkpoint resume relies on — verifies the coordinator's
 * device/model/config/plan fingerprints against its own rebuild,
 * and from then on executes leaves named by bare leaf_id against its OWN
 * TemplateCache and BatchExecutor. Because simulate_scheduled_leaf is a
 * pure function of (cache contents, tree, leaf, dev, config, shots),
 * every reply is bit-identical to what the coordinator would have
 * computed locally.
 *
 * Threading: one accept loop, one thread per connection; connections
 * share the template cache (internally synchronized) and serialize their
 * batches over the one BatchExecutor.
 */
#ifndef FQ_NET_WORKER_H
#define FQ_NET_WORKER_H

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/batch_executor.h"
#include "engine/template_cache.h"
#include "net/socket.h"

namespace fq::net {

class WorkerServer
{
  public:
    struct Options
    {
        /** Executor threads for leaf batches: <= 0 = auto, 1 = serial. */
        int threads = 1;
        /**
         * Fault injection (tests/CI only): after this many leaves total
         * the worker hard-closes the connection MID-BATCH — replies for
         * leaves already executed are flushed, the rest never answer —
         * the deterministic stand-in for `kill -9` mid-wave. 0 = off.
         */
        long long die_after_leaves = 0;
        /**
         * Fault injection (tests/CI only): every leaf reports
         * kMsgLeafFailed instead of executing — the deterministic
         * stand-in for simulate_scheduled_leaf throwing on the worker.
         * The worker itself stays healthy and keeps serving.
         */
        bool fail_leaves = false;
    };

    /** Binds + listens immediately (NetError on failure); serving starts
     *  with start() or run(). */
    explicit WorkerServer(std::string address);
    WorkerServer(std::string address, Options opts);
    ~WorkerServer();

    WorkerServer(const WorkerServer&) = delete;
    WorkerServer& operator=(const WorkerServer&) = delete;

    /** Serve on a background accept thread (tests, benches). */
    void start();

    /** Serve on the calling thread until stop() — the fqtool worker
     *  entry point. */
    void run();

    /** Shut down: close the listener and every live connection, join all
     *  serving threads. Idempotent. */
    void stop();

    const std::string& address() const { return address_; }
    int num_threads() const { return executor_.num_threads(); }
    long long leaves_executed() const
    {
        return leaves_executed_.load(std::memory_order_relaxed);
    }

  private:
    void accept_loop();
    void serve_connection(Fd client);

    std::string address_;
    Options opts_;
    engine::TemplateCache cache_;
    engine::BatchExecutor executor_;
    std::mutex executor_mutex_; ///< one batch on the executor at a time
    Fd listen_fd_;
    std::atomic<bool> stopping_{false};
    std::atomic<long long> leaves_executed_{0};
    std::thread accept_thread_;
    std::mutex conn_mutex_;
    std::vector<std::thread> conn_threads_;
    std::vector<int> conn_fds_; ///< raw fds for shutdown() on stop
    /** Ids of connection threads that finished serving — reaped (joined
     *  and dropped from conn_threads_) by accept_loop, so a long-lived
     *  worker does not accumulate one dead thread handle per past
     *  connection. */
    std::vector<std::thread::id> finished_threads_;
};

} // namespace fq::net

#endif // FQ_NET_WORKER_H
