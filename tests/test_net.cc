/**
 * @file
 * Distributed leaf execution suite: CRC framing defects surface as typed
 * errors, wire codecs round-trip, and — the acceptance bar — solves are
 * BIT-IDENTICAL local vs remote vs mixed, at any thread count, solo or
 * under service co-tenants, including a worker killed mid-wave whose
 * leaves hedge back onto the local arm.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "device/catalog.h"
#include "engine/engine.h"
#include "engine/solve_service.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "net/worker.h"
#include "net/worker_pool.h"
#include "solve_test_util.h"

namespace {

using namespace fq;

std::string
unique_address()
{
    static std::atomic<int> counter{0};
    return "unix:/tmp/fq_test_net_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** A pipe pair: write_frame/read_frame work on any stream fd. */
struct Pipe
{
    int fds[2] = {-1, -1};
    Pipe() { EXPECT_EQ(::pipe(fds), 0); }
    ~Pipe()
    {
        close_write();
        if (fds[0] >= 0)
            ::close(fds[0]);
    }
    void close_write()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
        fds[1] = -1;
    }
    int r() const { return fds[0]; }
    int w() const { return fds[1]; }
};

void
write_raw(int fd, const std::vector<std::uint8_t>& bytes)
{
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
}

// ---------------------------------------------------------------- framing

TEST(NetFrame, RoundTripOverPipe)
{
    Pipe p;
    const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
    net::write_frame(p.w(), net::kMsgExecBatch, payload);
    const auto frame = net::read_frame(p.r());
    EXPECT_EQ(frame.type, net::kMsgExecBatch);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(net::frame_wire_size(payload.size()), 20 + payload.size());
}

TEST(NetFrame, RejectsCorruptPayload)
{
    Pipe p;
    auto bytes = net::encode_frame(net::kMsgLeafCounts, {10, 20, 30, 40});
    bytes.back() ^= 0x01; // flip one payload bit: CRC must catch it
    write_raw(p.w(), bytes);
    EXPECT_THROW(net::read_frame(p.r()), net::NetError);
}

TEST(NetFrame, RejectsBadMagic)
{
    Pipe p;
    auto bytes = net::encode_frame(net::kMsgError, {1});
    bytes[0] ^= 0xFF;
    write_raw(p.w(), bytes);
    EXPECT_THROW(net::read_frame(p.r()), net::NetError);
}

TEST(NetFrame, RejectsTruncatedFrame)
{
    Pipe p;
    const auto bytes = net::encode_frame(net::kMsgLeafCounts,
                                         {9, 9, 9, 9, 9, 9, 9, 9});
    const std::vector<std::uint8_t> half(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<long>(
                                                 bytes.size() / 2));
    write_raw(p.w(), half);
    p.close_write(); // EOF mid-frame == peer died
    EXPECT_THROW(net::read_frame(p.r()), net::NetError);
}

TEST(NetFrame, RejectsOversizedLength)
{
    Pipe p;
    auto bytes = net::encode_frame(net::kMsgError, {});
    // Length field sits after magic+type; forge it past the cap.
    const std::uint64_t huge = net::kMaxFramePayload + 1;
    for (int i = 0; i < 8; ++i)
        bytes[8 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
    write_raw(p.w(), bytes);
    EXPECT_THROW(net::read_frame(p.r()), net::NetError);
}

TEST(NetFrame, SilenceIsTypedTimeout)
{
    Pipe p; // nothing ever written
    try {
        net::read_frame(p.r(), 50);
        FAIL() << "expected NetTimeout";
    } catch (const net::NetTimeout&) {
    } catch (const net::NetError& e) {
        FAIL() << "plain NetError instead of NetTimeout: " << e.what();
    }
}

// ------------------------------------------------------------------ wire

TEST(NetWire, OpenSessionRoundTrip)
{
    net::OpenSession msg;
    msg.session_id = 42;
    msg.model = test::ba_model(12, 3, 5);
    msg.device_name = "ibm-montreal";
    msg.config.num_freeze = 3;
    msg.config.seed = 1234;
    msg.config.sparsify_keep = 0.5;
    msg.config.max_depth = 2;
    msg.seed = 1234;
    msg.shots = 2048;
    msg.model_hash = 0xAABB;
    msg.config_hash = 0xCCDD;
    msg.plan_hash = 0xEEFF;
    msg.device_hash = 0x1122;

    const auto back = net::decode_open_session(
        net::encode_open_session(msg));
    EXPECT_EQ(back.session_id, 42u);
    EXPECT_EQ(back.device_name, "ibm-montreal");
    EXPECT_EQ(back.model.num_spins(), msg.model.num_spins());
    EXPECT_EQ(back.model.quadratic_terms().size(),
              msg.model.quadratic_terms().size());
    EXPECT_EQ(back.config.num_freeze, 3);
    EXPECT_EQ(back.config.seed, 1234u);
    EXPECT_DOUBLE_EQ(back.config.sparsify_keep, 0.5);
    EXPECT_EQ(back.config.max_depth, 2);
    // Execution-local knobs never travel: the worker runs its own.
    EXPECT_EQ(back.config.threads, 1);
    EXPECT_EQ(back.config.checkpoint_interval, 0);
    EXPECT_EQ(back.shots, 2048);
    EXPECT_EQ(back.model_hash, 0xAABBu);
    EXPECT_EQ(back.config_hash, 0xCCDDu);
    EXPECT_EQ(back.plan_hash, 0xEEFFu);
    EXPECT_EQ(back.device_hash, 0x1122u);
}

TEST(NetWire, OpenSessionRejectsNonFiniteModelCoefficients)
{
    // A peer's NaN or +-inf must stop at decode, before the worker plans
    // or builds a table from it. The linear term carries a sentinel value
    // whose bytes are overwritten in the encoded frame.
    constexpr double kSentinel = 0.8125;
    for (const double bad : {std::nan(""),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        net::OpenSession msg;
        msg.model = test::ba_model(12, 3, 5);
        msg.model.set_linear(4, kSentinel);
        msg.device_name = "ibm-montreal";
        auto payload = net::encode_open_session(msg);
        // Doubles travel as their little-endian IEEE bit pattern.
        const auto wire_bytes = [](double v) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            std::array<std::uint8_t, sizeof(bits)> bytes{};
            for (std::size_t k = 0; k < bytes.size(); ++k)
                bytes[k] = static_cast<std::uint8_t>(bits >> (8 * k));
            return bytes;
        };
        const auto sentinel = wire_bytes(kSentinel);
        const auto patched = wire_bytes(bad);
        const auto at = std::search(payload.begin(), payload.end(),
                                    std::begin(sentinel), std::end(sentinel));
        ASSERT_NE(at, payload.end());
        std::copy(std::begin(patched), std::end(patched), at);
        EXPECT_THROW(net::decode_open_session(payload), net::NetError);
    }
}

TEST(NetWire, OpenSessionRejectsOutOfRangeConfigEnums)
{
    // A peer's enum words are range-checked, never cast blindly. Find
    // each word as the one place where two encodings that differ only in
    // that field differ, then write values outside the enum there.
    net::OpenSession msg;
    msg.model = test::ba_model(8, 1, 3);
    msg.device_name = "ibm-montreal";
    const auto base = net::encode_open_session(msg);
    const auto offset_of = [&](const net::OpenSession& changed) {
        const auto other = net::encode_open_session(changed);
        EXPECT_EQ(other.size(), base.size());
        std::size_t at = 0;
        while (at < base.size() && base[at] == other[at])
            ++at;
        EXPECT_LT(at, base.size());
        return at;
    };
    auto policy = msg;
    policy.config.policy = frozenqubits::HotspotPolicy::Random;
    auto layout = msg;
    layout.config.compile.layout = transpiler::LayoutStrategy::Trivial;
    for (const std::size_t at : {offset_of(policy), offset_of(layout)})
        for (const std::uint8_t bad : {std::uint8_t{3}, std::uint8_t{0xff}}) {
            auto payload = base;
            payload[at] = bad;
            EXPECT_THROW(net::decode_open_session(payload), net::NetError)
                << "offset " << at << " byte " << int(bad);
        }
}

TEST(NetWire, LeafCountsRoundTrip)
{
    net::LeafCounts msg;
    msg.session_id = 7;
    msg.leaf_id = 3;
    msg.width = 5;
    msg.histogram = {{0, 100}, {31, 900}, {uint64_t(1) << 40, 24}};
    const auto back = net::decode_leaf_counts(net::encode_leaf_counts(msg));
    EXPECT_EQ(back.session_id, 7u);
    EXPECT_EQ(back.leaf_id, 3);
    EXPECT_EQ(back.width, 5);
    EXPECT_EQ(back.histogram, msg.histogram);
}

TEST(NetWire, RejectsTrailingGarbage)
{
    auto payload = net::encode_exec_batch({11, {0, 1, 2}});
    payload.push_back(0x55);
    EXPECT_THROW(net::decode_exec_batch(payload), net::NetError);
}

TEST(NetWire, RejectsTruncatedPayload)
{
    auto payload = net::encode_leaf_failed({3, 1, "boom"});
    payload.resize(payload.size() - 2);
    EXPECT_THROW(net::decode_leaf_failed(payload), net::NetError);
}

// ---------------------------------------------------- distributed parity

/** N in-process workers on unique unix sockets. */
struct WorkerFleet
{
    std::vector<std::unique_ptr<net::WorkerServer>> servers;
    std::vector<std::string> addresses;

    explicit WorkerFleet(int n,
                         net::WorkerServer::Options opts =
                             net::WorkerServer::Options())
    {
        for (int i = 0; i < n; ++i) {
            addresses.push_back(unique_address());
            servers.push_back(std::make_unique<net::WorkerServer>(
                addresses.back(), opts));
            servers.back()->start();
        }
    }
    ~WorkerFleet()
    {
        for (auto& s : servers)
            s->stop();
    }
};

frozenqubits::DriverConfig
small_config(int threads)
{
    frozenqubits::DriverConfig config;
    config.num_freeze = 3; // 8 sub-spaces, 4 executed after mirroring
    config.threads = threads;
    config.seed = 21;
    return config;
}

frozenqubits::SampledSolve
local_solve(const ising::IsingModel& model, const device::Device& dev,
            const frozenqubits::DriverConfig& config, int shots)
{
    engine::ExecutionEngine eng(config.threads);
    return eng.solve(model, dev, config, shots, config.seed);
}

TEST(Distributed, OneWorkerMatchesLocalSerial)
{
    const auto model = test::ba_model(16, 3, 11);
    const auto dev = device::make_device("ibm-montreal");
    const auto config = small_config(1);
    const auto expected = local_solve(model, dev, config, 1024);

    WorkerFleet fleet(1);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, 1024, config.seed);

    test::expect_solves_identical(expected, got);
    const auto& diag = eng.last_diagnostics();
    EXPECT_GT(diag.leaves_remote, 0);
    EXPECT_EQ(diag.leaves_remote + diag.leaves_local, 4);
    EXPECT_GT(diag.remote_bytes_sent, 0);
    EXPECT_GT(diag.remote_bytes_received, 0);
    long long dispatched = 0;
    for (const auto& [address, leaves] : diag.worker_dispatches) {
        EXPECT_EQ(address, fleet.addresses[0]);
        dispatched += leaves;
    }
    EXPECT_EQ(dispatched, diag.leaves_remote);
}

TEST(Distributed, FourWorkersMatchLocalThreaded)
{
    const auto model = test::ba_model(18, 3, 13);
    const auto dev = device::make_device("ibm-montreal");
    auto config = small_config(4);
    config.num_freeze = 4; // 8 executed leaves: enough to spread around
    const auto expected = local_solve(model, dev, config, 2048);

    net::WorkerServer::Options wopts;
    wopts.threads = 2;
    WorkerFleet fleet(4, wopts);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, 2048, config.seed);

    test::expect_solves_identical(expected, got);
    EXPECT_GT(eng.last_diagnostics().leaves_remote, 0);
    EXPECT_EQ(pool.live_workers(), 4);
    // Consecutive solves on the SAME pool reuse the connections.
    const auto again = eng.solve(model, dev, config, 2048, config.seed);
    test::expect_solves_identical(expected, again);
}

TEST(Distributed, WorkerDeathMidWaveIsInvisible)
{
    const auto model = test::ba_model(16, 3, 17);
    const auto dev = device::make_device("ibm-montreal");
    auto config = small_config(2);
    config.num_freeze = 4;
    const auto expected = local_solve(model, dev, config, 1024);

    // The worker answers ONE leaf then hard-closes mid-batch — the
    // deterministic kill -9. Its unanswered leaves must hedge local.
    net::WorkerServer::Options wopts;
    wopts.die_after_leaves = 1;
    WorkerFleet fleet(1, wopts);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, 1024, config.seed);

    test::expect_solves_identical(expected, got);
    const auto& diag = eng.last_diagnostics();
    EXPECT_GT(diag.leaves_redispatched, 0);
    EXPECT_EQ(pool.live_workers(), 0);

    // A dead fleet degrades to pure local — still identical.
    const auto after = eng.solve(model, dev, config, 1024, config.seed);
    test::expect_solves_identical(expected, after);
    EXPECT_EQ(eng.last_diagnostics().leaves_remote, 0);
}

/** Solve through a one-worker pool whose worker must reject the session:
 *  the request is pinned local (result identical, no remote leaf) and the
 *  worker stays live. */
void
expect_worker_rejects(const ising::IsingModel& model,
                      const device::Device& dev,
                      const frozenqubits::DriverConfig& config, int shots)
{
    const auto expected = local_solve(model, dev, config, shots);

    WorkerFleet fleet(1);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, shots, config.seed);

    test::expect_solves_identical(expected, got);
    EXPECT_EQ(eng.last_diagnostics().leaves_remote, 0);
    EXPECT_EQ(pool.live_workers(), 1);
}

TEST(Distributed, UnknownDeviceNamePinsLocal)
{
    // Workers rebuild the device from its catalog name; a custom device
    // has none, so the worker rejects the session.
    auto dev = device::make_grid_device(4, 4);
    dev.name = "grid";
    expect_worker_rejects(test::ba_model(14, 3, 19), dev, small_config(1),
                          512);
}

TEST(Distributed, CustomCalibrationPinsLocal)
{
    // A catalog name with a calibration of its own: the worker's catalog
    // device would sample different noise, so the device fingerprint
    // must reject the session rather than let it run there.
    auto dev = device::make_device("ibm-montreal");
    dev.calibration =
        device::Calibration::uniform(dev.topology, 3e-2, 1e-1, 80.0);
    expect_worker_rejects(test::ba_model(16, 3, 11), dev, small_config(1),
                          1024);
}

TEST(Distributed, AllowRemoteFalsePinsLocal)
{
    const auto model = test::ba_model(16, 3, 23);
    const auto dev = device::make_device("ibm-montreal");
    auto config = small_config(1);
    config.allow_remote = false;
    const auto expected = local_solve(model, dev, config, 512);

    WorkerFleet fleet(2);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, 512, config.seed);

    test::expect_solves_identical(expected, got);
    EXPECT_EQ(eng.last_diagnostics().leaves_remote, 0);
    EXPECT_EQ(pool.live_workers(), 2);
}

TEST(Distributed, ServiceCoTenantsMixedLocalRemote)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto model_a = test::ba_model(16, 3, 29);
    const auto model_b = test::ba_model(14, 3, 31);
    const auto model_c = test::ba_model(18, 3, 37);

    auto config_a = small_config(2);
    auto config_b = small_config(2);
    config_b.num_freeze = 2;
    config_b.allow_remote = false; // workers=0 tenant
    auto config_c = small_config(2);
    config_c.num_freeze = 4;
    config_a.seed = 41;
    config_b.seed = 43;
    config_c.seed = 47;

    const auto expected_a = local_solve(model_a, dev, config_a, 1024);
    const auto expected_b = local_solve(model_b, dev, config_b, 1024);
    const auto expected_c = local_solve(model_c, dev, config_c, 1024);

    WorkerFleet fleet(2);
    engine::ExecutionEngine eng(2);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    engine::SolveService service(eng, {});

    auto ta = service.submit(model_a, dev, config_a, 1024, config_a.seed);
    auto tb = service.submit(model_b, dev, config_b, 1024, config_b.seed);
    auto tc = service.submit(model_c, dev, config_c, 1024, config_c.seed);
    service.drain();

    test::expect_solves_identical(expected_a, ta.get());
    test::expect_solves_identical(expected_b, tb.get());
    test::expect_solves_identical(expected_c, tc.get());

    const auto diag_a = service.diagnostics(ta.id());
    const auto diag_b = service.diagnostics(tb.id());
    const auto diag_c = service.diagnostics(tc.id());
    // The pinned tenant never left the process; the remote-capable ones
    // account every leaf as exactly one of local/remote.
    EXPECT_EQ(diag_b.leaves_remote, 0);
    EXPECT_EQ(diag_a.leaves_remote + diag_a.leaves_local,
              diag_a.leaves_executed);
    EXPECT_EQ(diag_c.leaves_remote + diag_c.leaves_local,
              diag_c.leaves_executed);
    EXPECT_GT(diag_a.leaves_remote + diag_c.leaves_remote, 0);
}

TEST(Distributed, WorkerSurvivesManyShortLivedConnections)
{
    // A long-lived worker serving many short-lived coordinators: each
    // pool connects (hello handshake) and disconnects. Finished
    // connection threads must be reaped as new connections arrive, and
    // the final stop() must join everything without hanging.
    WorkerFleet fleet(1);
    engine::ExecutionEngine eng(1);
    for (int i = 0; i < 8; ++i) {
        net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                             fleet.addresses);
        EXPECT_EQ(pool.live_workers(), 1);
    }
}

/**
 * A hand-written worker that greets, opens sessions and answers every
 * dispatched leaf with a well-framed LeafCounts whose histogram is a lie
 * — one the shared histogram check must refuse, so the coordinator marks
 * the worker faulty and hedges its leaves locally instead of aborting.
 */
class LyingWorker
{
  public:
    enum class Lie { StateBeyondWidth, ZeroCount, ShotMismatch, SumOverflow };

    explicit LyingWorker(Lie lie)
        : address_(unique_address()), listen_fd_(net::listen_on(address_)),
          lie_(lie), thread_([this] { serve(); })
    {
    }

    ~LyingWorker()
    {
        ::shutdown(listen_fd_.get(), SHUT_RDWR);
        thread_.join();
    }

    const std::string& address() const { return address_; }

  private:
    sim::HistogramEntries
    histogram(int width, std::uint64_t shots) const
    {
        switch (lie_) {
        case Lie::StateBeyondWidth:
            return {{std::uint64_t{1} << width, shots}};
        case Lie::ZeroCount:
            return {{0, 0}, {1, shots}};
        case Lie::ShotMismatch:
            return {{0, shots + 1}};
        case Lie::SumOverflow: // wraps to exactly `shots` unchecked
            return {{0, ~std::uint64_t{0}}, {1, shots + 1}};
        }
        return {};
    }

    void
    serve()
    {
        try {
            net::Fd client = net::accept_client(listen_fd_.get());
            net::write_frame(client.get(), net::kMsgWorkerHello,
                             net::encode_worker_hello(
                                 {net::kProtocolVersion, 4}));
            int width = 0;
            std::uint64_t shots = 0;
            for (;;) {
                const auto frame = net::read_frame(client.get());
                if (frame.type == net::kMsgOpenSession) {
                    const auto open = net::decode_open_session(frame.payload);
                    // A depth-1 freeze tree: every leaf keeps the rest.
                    width = open.model.num_spins() - open.config.num_freeze;
                    shots = static_cast<std::uint64_t>(open.shots);
                    net::write_frame(
                        client.get(), net::kMsgSessionReady,
                        net::encode_session_ready({open.session_id, 4}));
                } else if (frame.type == net::kMsgExecBatch) {
                    const auto batch = net::decode_exec_batch(frame.payload);
                    for (const std::int32_t leaf_id : batch.leaf_ids) {
                        net::LeafCounts reply;
                        reply.session_id = batch.session_id;
                        reply.leaf_id = leaf_id;
                        reply.width = width;
                        reply.histogram = histogram(width, shots);
                        net::write_frame(client.get(), net::kMsgLeafCounts,
                                         net::encode_leaf_counts(reply));
                    }
                }
            }
        } catch (const net::NetError&) {
            // The coordinator hung up on the liar.
        }
    }

    std::string address_;
    net::Fd listen_fd_;
    Lie lie_;
    std::thread thread_;
};

class LyingWorkerReplies : public ::testing::TestWithParam<LyingWorker::Lie>
{
};

TEST_P(LyingWorkerReplies, AreHedgedLocallyAndNeverAbort)
{
    const auto model = test::ba_model(16, 3, 11);
    const auto dev = device::make_device("ibm-montreal");
    const auto config = small_config(2);
    const auto expected = local_solve(model, dev, config, 512);

    {
        LyingWorker liar(GetParam());
        engine::ExecutionEngine eng(config.threads);
        net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                             {liar.address()});
        eng.set_leaf_executor(&pool);
        const auto got = eng.solve(model, dev, config, 512, config.seed);
        test::expect_solves_identical(expected, got);
        EXPECT_GT(eng.last_diagnostics().leaves_redispatched, 0);
        EXPECT_EQ(pool.live_workers(), 0);
    }
    {
        LyingWorker liar(GetParam());
        engine::ExecutionEngine eng(config.threads);
        net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                             {liar.address()});
        eng.set_leaf_executor(&pool);
        engine::SolveService service(eng, {});
        auto ticket =
            service.submit(model, dev, config, 512, config.seed);
        service.drain();
        test::expect_solves_identical(expected, ticket.get());
        EXPECT_GT(service.diagnostics(ticket.id()).leaves_redispatched, 0);
        EXPECT_EQ(pool.live_workers(), 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Distributed, LyingWorkerReplies,
    ::testing::Values(LyingWorker::Lie::StateBeyondWidth,
                      LyingWorker::Lie::ZeroCount,
                      LyingWorker::Lie::ShotMismatch,
                      LyingWorker::Lie::SumOverflow));

TEST(Distributed, BadAddressFailsAtStartup)
{
    engine::ExecutionEngine eng(1);
    EXPECT_THROW(net::WorkerPool(eng.local_leaf_executor(),
                                 eng.num_threads(),
                                 {"unix:/tmp/fq_no_such_worker.sock"}),
                 net::NetError);
}

TEST(Distributed, StaleProtocolWorkerRejectedAtConnect)
{
    // Workers speaking an older protocol greet and are refused with a
    // typed error before any session opens: version 1 (whose config
    // frames still carried the template-editing bytes), version 2 (whose
    // leaf counts still carried a fused-hit byte) and version 3 (whose
    // session open carried no device fingerprint), version 4 (whose
    // config frames still carried the fusion and backend bytes) and
    // version 5 (whose table build differs in the last bits for
    // non-exact models).
    for (const std::uint32_t stale_version : {1u, 2u, 3u, 4u, 5u}) {
        ASSERT_NE(net::kProtocolVersion, stale_version);
        const auto address = unique_address();
        net::Fd listen_fd = net::listen_on(address);
        std::thread stale([&] {
            try {
                net::Fd client = net::accept_client(listen_fd.get());
                net::write_frame(
                    client.get(), net::kMsgWorkerHello,
                    net::encode_worker_hello({stale_version, 1}));
                // Hold the connection until the coordinator hangs up.
                net::read_frame(client.get());
            } catch (const std::exception&) {
            }
        });
        engine::ExecutionEngine eng(1);
        EXPECT_THROW(net::WorkerPool(eng.local_leaf_executor(),
                                     eng.num_threads(), {address}),
                     net::NetError)
            << "protocol version " << stale_version;
        stale.join();
    }
}

} // namespace
