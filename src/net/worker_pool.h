/**
 * @file
 * WorkerPool: the remote backend of the executor seam
 * (engine::LeafExecutor). Each wave is split by deterministic
 * cost-weighted greedy assignment across the LOCAL arm (the engine's own
 * LocalLeafExecutor, weighted by its thread count) and every live remote
 * worker (weighted by its advertised thread count): slots are taken
 * widest-first and each goes to the arm with the lowest projected
 * relative load — one wide leaf costs 2^width units (leaf_slot_cost),
 * exactly the coin the wave assembler already charges.
 *
 * Fault model — hedged re-dispatch: any transport defect on a worker
 * (connection reset, CRC mismatch, a reply naming a leaf that was never
 * dispatched, a width that contradicts the plan, or silence past
 * hedge_timeout_ms) marks that worker dead, and every leaf it still owed
 * re-runs on the local arm inside the SAME wave. Because
 * simulate_scheduled_leaf is a pure function of
 * (cache contents, tree, leaf, dev, config, shots), a re-dispatched leaf
 * folds byte-identical counts — worker death is invisible in the results,
 * which is the determinism contract's distributed extension. A worker
 * that REJECTS a session is not dead: only that request is pinned local.
 * Workers rebuild the device from its catalog name, so every request on a
 * custom device (an unknown name, or a catalog name with a calibration of
 * its own — caught by the device fingerprint) takes this path. A
 * worker-reported leaf failure (kMsgLeafFailed) is not a transport fault
 * either — the worker stays alive, and the failure propagates exactly as
 * a local leaf throw would: through WaveHooks::failed when set, else out
 * of execute_wave once the wave has fully drained (the BatchExecutor
 * barrier semantics).
 *
 * Threading: drive from ONE thread at a time (the engine's caller or the
 * service's assembler), the same contract as ExecutionEngine.
 */
#ifndef FQ_NET_WORKER_POOL_H
#define FQ_NET_WORKER_POOL_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/wave_loop.h"
#include "net/socket.h"

namespace fq::net {

class WorkerPool final : public engine::LeafExecutor
{
  public:
    struct Options
    {
        /** Declare a worker dead after this long without a reply and
         *  re-dispatch its leaves locally. Generous by default — hedging
         *  exists for death, not for jitter. */
        int hedge_timeout_ms = 60000;
    };

    /**
     * Connects to every address eagerly — a typo'd --workers entry is a
     * NetError at startup, not a silent all-local solve. @p local_arm is
     * the fallback and co-executor (the engine's LocalLeafExecutor);
     * @p local_threads weights it in the assignment.
     */
    WorkerPool(engine::LeafExecutor& local_arm, int local_threads,
               const std::vector<std::string>& addresses);
    WorkerPool(engine::LeafExecutor& local_arm, int local_threads,
               const std::vector<std::string>& addresses, Options opts);
    ~WorkerPool() override;

    int execute_wave(const std::vector<engine::WaveSlot>& wave,
                     const engine::WaveHooks& hooks = {}) override;
    engine::LeafExecutorStats request_stats(
        const engine::WaveRequest* request) override;
    void finish_request(const engine::WaveRequest* request) override;

    int num_workers() const { return static_cast<int>(workers_.size()); }
    int live_workers() const;

  private:
    struct Worker
    {
        std::string address;
        Fd fd;
        bool alive = true;
        int threads = 1; ///< advertised by the connect-time WorkerHello
        /** Open sessions keyed by the request they execute for. */
        std::map<const engine::WaveRequest*, std::uint64_t> sessions;
        /** Requests this worker rejected (a device it cannot rebuild or a
         *  fingerprint mismatch) — pinned to the local arm instead of
         *  killing the worker. */
        std::vector<const engine::WaveRequest*> rejected;
    };

    enum class OpenResult { Ok, RequestRejected, WorkerDead };

    OpenResult ensure_session(Worker& worker,
                              const engine::WaveRequest* request);
    void mark_dead(Worker& worker);
    engine::LeafExecutorStats& stats_for(
        const engine::WaveRequest* request);
    void count_dispatch(const engine::WaveRequest* request,
                        const std::string& address, long long leaves);

    engine::LeafExecutor& local_;
    int local_threads_;
    Options opts_;
    std::vector<Worker> workers_;
    std::uint64_t next_session_id_ = 1;
    std::map<const engine::WaveRequest*, engine::LeafExecutorStats> stats_;
};

} // namespace fq::net

#endif // FQ_NET_WORKER_POOL_H
