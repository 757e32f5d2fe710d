/**
 * @file
 * Failure-injection battery: every public API must reject misuse with
 * fq::Error (not UB, not silent wrong answers). One test per API family.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include <unistd.h>

#include <sys/socket.h>

#include "common/crc32.h"
#include "common/error.h"
#include "device/catalog.h"
#include "engine/checkpoint.h"
#include "engine/engine.h"
#include "engine/solve_service.h"
#include "frozenqubits/decoder.h"
#include "frozenqubits/driver.h"
#include "frozenqubits/freeze.h"
#include "frozenqubits/hotspot.h"
#include "frozenqubits/template_editor.h"
#include "graph/generators.h"
#include "ising/exact_solver.h"
#include "ising/qubo.h"
#include "ising/sa_solver.h"
#include "ising/symmetry.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "net/worker.h"
#include "net/worker_pool.h"
#include "optimizer/grid_search.h"
#include "optimizer/landscape.h"
#include "optimizer/nelder_mead.h"
#include "qaoa/analytic_p1.h"
#include "qaoa/multilayer.h"
#include "qaoa/qaoa_builder.h"
#include "runtime/runtime_model.h"
#include "solve_test_util.h"
#include "sim/counts.h"
#include "sim/noise_model.h"
#include "sim/statevector.h"
#include "sim/trajectory.h"
#include "transpiler/pipeline.h"

namespace {

using namespace fq;

TEST(FailureInjection, GraphGenerators)
{
    Rng rng(1);
    EXPECT_THROW(graph::barabasi_albert(1, 1, rng), Error);
    EXPECT_THROW(graph::barabasi_albert(5, 5, rng), Error);
    EXPECT_THROW(graph::random_regular(5, 5, rng), Error);
    EXPECT_THROW(graph::erdos_renyi(10, 1.5, rng), Error);
    EXPECT_THROW(graph::star(1), Error);
    EXPECT_THROW(graph::airport_network(5, 5, rng), Error);
}

TEST(FailureInjection, IsingModel)
{
    ising::IsingModel m(3);
    EXPECT_THROW(m.linear(3), Error);
    EXPECT_THROW(m.add_linear(-1, 1.0), Error);
    EXPECT_THROW(m.add_quadratic(0, 0, 1.0), Error);
    EXPECT_THROW(m.add_quadratic(0, 9, 1.0), Error);
    EXPECT_THROW(m.evaluate({1, 1}), Error);          // wrong width
    EXPECT_THROW(m.flip_delta({1, 1, 1}, 5), Error);  // bad index
    EXPECT_THROW(ising::spins_to_state({1, 0, -1}), Error); // 0 not a spin
}

TEST(FailureInjection, ExactAndAnnealingSolvers)
{
    ising::IsingModel empty(0);
    EXPECT_THROW(ising::solve_exact(empty), Error);
    ising::IsingModel big(30);
    EXPECT_THROW(ising::solve_exact(big, 26), Error);
    EXPECT_THROW(ising::all_costs(big), Error);

    ising::SaConfig bad;
    bad.num_restarts = 0;
    ising::IsingModel m(4);
    Rng rng(2);
    EXPECT_THROW(ising::solve_annealing(m, bad, rng), Error);
    EXPECT_THROW(ising::verify_flip_symmetry_exhaustive(big), Error);
}

TEST(FailureInjection, Qubo)
{
    ising::QuboModel q(2);
    EXPECT_THROW(q.add_quadratic(1, 1, 1.0), Error);
    EXPECT_THROW(q.add_linear(2, 1.0), Error);
    EXPECT_THROW(q.evaluate({1}), Error);
    EXPECT_THROW(q.evaluate({1, 2}), Error);
}

TEST(FailureInjection, CircuitAndBuilder)
{
    circuit::Circuit c(2);
    EXPECT_THROW(c.h(-1), Error);
    EXPECT_THROW(c.cx(1, 1), Error);
    EXPECT_THROW(c.remap_qubits({0}, 3), Error);
    c.rz(0, circuit::Parameter::gamma(0, 1.0));
    EXPECT_THROW(c.bind({}, {}), Error); // missing gamma layer

    ising::IsingModel m(2);
    qaoa::BuildOptions opts;
    opts.num_layers = 0;
    EXPECT_THROW(qaoa::build_qaoa_circuit(m, opts), Error);
}

TEST(FailureInjection, Statevector)
{
    EXPECT_THROW(sim::Statevector(0), Error);
    EXPECT_THROW(sim::Statevector(27), Error);
    sim::Statevector sv(2);
    EXPECT_THROW(sv.amplitude(4), Error);
    EXPECT_THROW(sv.apply_pauli(0, 4), Error);
    circuit::Circuit wide(3);
    EXPECT_THROW(sv.apply_circuit(wide), Error);
    circuit::Circuit param(2);
    param.rz(0, circuit::Parameter::gamma(0, 1.0));
    EXPECT_THROW(sv.apply_circuit(param), Error); // unbound parameter
    ising::IsingModel m(3);
    EXPECT_THROW(sv.expectation_ising(m), Error);
}

TEST(FailureInjection, CountsAndNoise)
{
    EXPECT_THROW(sim::Counts(0), Error);
    sim::Counts c(2);
    EXPECT_THROW(c.add(4), Error);
    ising::IsingModel m(2);
    EXPECT_THROW(c.expectation(m), Error); // empty distribution
    c.add(1);
    ising::IsingModel wrong(3);
    EXPECT_THROW(c.expectation(wrong), Error);
    sim::Counts other(3);
    EXPECT_THROW(c.merge(other), Error);

    sim::Statevector sv(2);
    Rng rng(3);
    EXPECT_THROW(
        sim::sample_noisy_counts(sv, 1.5, {0.0, 0.0}, 10, rng), Error);
    EXPECT_THROW(sim::sample_noisy_counts(sv, 0.5, {0.0}, 10, rng), Error);
    EXPECT_THROW(sim::approximation_ratio(-1.0, 2.0), Error);
}

TEST(FailureInjection, AttenuationAndTrajectory)
{
    const auto dev = device::make_device("ibm-montreal");
    circuit::Circuit too_wide(30);
    EXPECT_THROW(sim::compute_attenuation(too_wide, dev.calibration),
                 Error);

    sim::NoiseAttenuation att;
    att.gate_survival = {1.0};
    att.decoherence = {1.0};
    att.readout = {1.0};
    EXPECT_THROW(att.z_survival(2), Error);

    circuit::Circuit c(23);
    c.h(0);
    ising::IsingModel m(2);
    sim::TrajectoryConfig cfg;
    Rng rng(4);
    EXPECT_THROW(sim::simulate_trajectories(c, dev.calibration, m, {0, 1},
                                            cfg, rng),
                 Error); // > 22 qubits
}

TEST(FailureInjection, TranspilerPipeline)
{
    const auto dev = device::make_device("ibm-montreal");
    circuit::Circuit empty(0);
    EXPECT_THROW(transpiler::compile(empty, dev), Error);

    const auto topo = device::make_linear(3);
    circuit::Circuit c(2);
    c.cx(0, 1);
    EXPECT_THROW(transpiler::compute_layout(
                     c, topo, nullptr,
                     transpiler::LayoutStrategy::NoiseAdaptive),
                 Error); // noise-adaptive without calibration
}

TEST(FailureInjection, FrozenQubitsCore)
{
    ising::IsingModel m(4);
    m.add_quadratic(0, 1, 1.0);
    Rng rng(5);
    EXPECT_THROW(frozenqubits::select_hotspots(
                     m, 4, frozenqubits::HotspotPolicy::MaxDegree, rng),
                 Error); // cannot freeze all spins
    EXPECT_THROW(frozenqubits::freeze_all(m, {0, 0}), Error)
        << "freezing the same spin twice must fail";
    EXPECT_THROW(frozenqubits::dropped_edge_count(m, {9}), Error);

    auto sub = frozenqubits::as_subproblem(m);
    EXPECT_THROW(frozenqubits::lift_assignment(sub, {1, 1}), Error);

    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 0;
    EXPECT_THROW(frozenqubits::run_pipeline(m, dev, config), Error);
}

TEST(FailureInjection, DecoderRejectsEmpty)
{
    ising::IsingModel m(4);
    m.add_quadratic(0, 1, 1.0);
    const auto subs = frozenqubits::freeze_all(m, {0});
    std::vector<sim::Counts> empty_counts(2, sim::Counts(3));
    EXPECT_THROW(frozenqubits::decode_best(m, subs, empty_counts), Error);
    std::vector<sim::Counts> mismatched(1, sim::Counts(3));
    EXPECT_THROW(frozenqubits::decode_best(m, subs, mismatched), Error);
}

TEST(FailureInjection, TemplateEditor)
{
    ising::IsingModel a(3), b(3);
    a.add_quadratic(0, 1, 1.0);
    b.add_quadratic(0, 1, 1.0);
    b.add_quadratic(1, 2, 1.0);
    qaoa::BuildOptions opts;
    opts.keep_zero_linear_rz = true;
    const auto tmpl = qaoa::build_qaoa_circuit(a, opts);
    // Editing against a target with MORE quadratic terms than the
    // template has tags for must fail loudly.
    EXPECT_FALSE(frozenqubits::templates_compatible(a, b));
    const auto tmpl_b = qaoa::build_qaoa_circuit(b, opts);
    EXPECT_THROW(frozenqubits::edit_template(tmpl_b, a), Error);
}

TEST(FailureInjection, Optimizers)
{
    EXPECT_THROW(optimizer::nelder_mead(
                     [](const std::vector<double>&) { return 0.0; }, {}),
                 Error);
    optimizer::GridAxis bad{0.0, 1.0, 0};
    EXPECT_THROW(optimizer::grid_search_2d(
                     [](double, double) { return 0.0; }, bad, bad),
                 Error);
    EXPECT_THROW(optimizer::scan_landscape(
                     [](double, double) { return 0.0; }, 1, 5, 1.0, 1.0),
                 Error);
    optimizer::Landscape land;
    EXPECT_THROW(optimizer::landscape_stats(land), Error);
}

TEST(FailureInjection, RuntimeModel)
{
    runtime::WorkflowParams params;
    runtime::ExecutionModel exec{"x", 0, 0.0};
    EXPECT_THROW(runtime::end_to_end_runtime_s(1, exec, params), Error);
    runtime::ExecutionModel ok{"x", 1, 0.0};
    EXPECT_THROW(runtime::end_to_end_runtime_s(0, ok, params), Error);
}

TEST(FailureInjection, MultilayerBounds)
{
    ising::IsingModel big(21);
    EXPECT_THROW(qaoa::evaluate_multilayer(big, {0.1}, {0.1}), Error);
}

// ------------------------------------------------- durable solves --

/** Small durable solve that yields at least one snapshot. */
engine::SolveCheckpoint
sample_snapshot(const ising::IsingModel& model,
                const frozenqubits::DriverConfig& config)
{
    const auto dev = device::make_device("ibm-montreal");
    engine::ExecutionEngine eng(1);
    engine::SolveCheckpoint first;
    bool captured = false;
    eng.solve(model, dev, config, 128, config.seed,
              [&](const engine::SolveCheckpoint& ck) {
                  if (!captured) {
                      first = ck;
                      captured = true;
                  }
                  return true;
              });
    FQ_REQUIRE(captured, "workload produced no checkpoint boundary");
    return first;
}

ising::IsingModel
durable_model()
{
    Rng rng(11);
    auto g = graph::barabasi_albert(12, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    return ising::IsingModel::from_graph(g);
}

frozenqubits::DriverConfig
durable_config()
{
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;
    config.checkpoint_interval = 1;
    config.seed = 7;
    return config;
}

TEST(FailureInjection, CheckpointFileCorruption)
{
    const auto model = durable_model();
    const auto config = durable_config();
    const auto snapshot = sample_snapshot(model, config);
    auto bytes = engine::encode_checkpoint(snapshot);
    ASSERT_GT(bytes.size(), 24u);

    // Truncated at every framing boundary and mid-payload.
    for (std::size_t keep : {std::size_t{0}, std::size_t{3},
                             std::size_t{7}, std::size_t{19},
                             bytes.size() - 1})
        EXPECT_THROW(engine::decode_checkpoint(bytes.data(), keep), Error);

    // A single bit flip anywhere in the payload must fail the CRC.
    for (std::size_t at : {std::size_t{20}, bytes.size() / 2,
                           bytes.size() - 1}) {
        auto flipped = bytes;
        flipped[at] ^= 0x40;
        EXPECT_THROW(
            engine::decode_checkpoint(flipped.data(), flipped.size()),
            Error);
    }

    // Wrong magic and unknown format version.
    auto bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    EXPECT_THROW(
        engine::decode_checkpoint(bad_magic.data(), bad_magic.size()),
        Error);
    auto bad_version = bytes;
    bad_version[4] = static_cast<std::uint8_t>(
        engine::kCheckpointFormatVersion + 1);
    EXPECT_THROW(
        engine::decode_checkpoint(bad_version.data(), bad_version.size()),
        Error);

    // The original bytes still decode — the injections above were the
    // only reason for failure.
    EXPECT_NO_THROW(engine::decode_checkpoint(bytes.data(), bytes.size()));

    // A 4G list count in a CRC-valid file is a typed error, never a
    // count-sized allocation. Each patch re-frames the payload with its
    // true CRC, so only the count check stands in the way.
    constexpr std::size_t kHeader = 20;
    const auto u32_at = [&](std::size_t at) {
        std::uint32_t v = 0;
        for (std::size_t k = 0; k < 4; ++k)
            v |= static_cast<std::uint32_t>(bytes[at + k]) << (8 * k);
        return v;
    };
    const auto reframed = [&](std::size_t at, std::uint32_t value) {
        auto patched = bytes;
        for (std::size_t k = 0; k < 4; ++k)
            patched[at + k] = static_cast<std::uint8_t>(value >> (8 * k));
        const std::uint32_t crc = common::crc32(patched.data() + kHeader,
                                                patched.size() - kHeader);
        for (std::size_t k = 0; k < 4; ++k)
            patched[16 + k] = static_cast<std::uint8_t>(crc >> (8 * k));
        return patched;
    };
    const auto list_bytes = [](const std::vector<int>& v) {
        return 4 + 4 * v.size();
    };
    // Payload: three u64 hashes, the device name, seed, shots, cursor,
    // re-rank boundary and epochs, then the schedule lists.
    const std::size_t name_at = kHeader + 3 * 8;
    const std::size_t executed_at =
        name_at + 4 + snapshot.device_name.size() + 8 + 4 + 8 + 8 + 4;
    const std::size_t folded_at = executed_at + list_bytes(snapshot.executed) +
                                  list_bytes(snapshot.beyond_budget) +
                                  list_bytes(snapshot.pruned) + 5 * 4;
    // First folded record: leaf id, width, arm tag, then its entries.
    const std::size_t entries_at = folded_at + 4 + 4 + 4 + 1;
    const std::size_t spins_at =
        bytes.size() - snapshot.incumbent_assignment.size() - 4;
    ASSERT_EQ(u32_at(name_at), snapshot.device_name.size());
    ASSERT_EQ(u32_at(executed_at), snapshot.executed.size());
    ASSERT_EQ(u32_at(folded_at), snapshot.folded.size());
    ASSERT_EQ(u32_at(entries_at), snapshot.folded.front().histogram.size());
    ASSERT_EQ(u32_at(spins_at), snapshot.incumbent_assignment.size());
    for (const std::size_t at :
         {name_at, executed_at, folded_at, entries_at, spins_at}) {
        const auto same = reframed(at, u32_at(at));
        EXPECT_NO_THROW(engine::decode_checkpoint(same.data(), same.size()));
        const auto huge = reframed(at, 0xFFFFFFFFu);
        EXPECT_THROW(engine::decode_checkpoint(huge.data(), huge.size()),
                     engine::CheckpointError)
            << "count at payload offset " << at - kHeader;
    }

    // A well-framed record whose histogram is no shots-shot sample over
    // its register: restore rejects it with the same typed error.
    const auto dev = device::make_device("ibm-montreal");
    auto beyond_width = snapshot;
    auto& record = beyond_width.folded.front();
    record.histogram.front().first = std::uint64_t{1} << record.width;
    auto short_shots = snapshot;
    short_shots.folded.front().histogram.front().second -= 1;
    for (const auto* bogus : {&beyond_width, &short_shots}) {
        const auto bogus_bytes = engine::encode_checkpoint(*bogus);
        const auto decoded = engine::decode_checkpoint(bogus_bytes.data(),
                                                       bogus_bytes.size());
        engine::ExecutionEngine eng(1);
        EXPECT_THROW(eng.resume(model, dev, config, 128, decoded),
                     engine::CheckpointError);
    }

    // Unreadable path.
    EXPECT_THROW(engine::read_checkpoint_file("/nonexistent/ck.bin"),
                 Error);
}

TEST(FailureInjection, CheckpointUnknownNodeKindFrame)
{
    const auto model = durable_model();
    const auto config = durable_config();
    auto snapshot = sample_snapshot(model, config);
    ASSERT_FALSE(snapshot.folded.empty());

    // A frame tagged with a node kind this build's metadata table cannot
    // name (a snapshot from a newer reduction vocabulary): the CRC is
    // valid — encode_checkpoint frames the bogus tag faithfully — so only
    // the typed vocabulary check can catch it.
    auto foreign = snapshot;
    foreign.folded.front().arm_tag = 0x7E;
    const auto bytes = engine::encode_checkpoint(foreign);
    try {
        engine::decode_checkpoint(bytes.data(), bytes.size());
        FAIL() << "unknown node-kind tag decoded without error";
    } catch (const engine::CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("unknown node kind"),
                  std::string::npos);
    }

    // A KNOWN tag on the wrong arm decodes (the frame is well formed)
    // but must fail the restore-time cross-check against the replanned
    // tree: these leaves run under Freeze, not Partition.
    auto wrong_arm = snapshot;
    wrong_arm.folded.front().arm_tag =
        engine::node_kind_info(engine::NodeKind::Partition).frame_tag;
    const auto wrong_bytes = engine::encode_checkpoint(wrong_arm);
    const auto decoded =
        engine::decode_checkpoint(wrong_bytes.data(), wrong_bytes.size());
    const auto dev = device::make_device("ibm-montreal");
    engine::ExecutionEngine eng(1);
    EXPECT_THROW(eng.resume(model, dev, config, 128, decoded),
                 engine::CheckpointError);
}

TEST(FailureInjection, CheckpointOfFinishedRequestRejected)
{
    const auto model = durable_model();
    const auto config = durable_config();
    const auto dev = device::make_device("ibm-montreal");
    engine::TemplateCache cache;
    Rng rng(config.seed);

    auto tree = engine::build_solve_tree(model, dev, config, cache, rng);
    auto schedule = engine::make_schedule(model, tree, config);
    engine::StreamingReducer reducer(model, tree, schedule);
    engine::WaveRequest request;
    request.model = &model;
    request.tree = &tree;
    request.schedule = &schedule;
    request.reducer = &reducer;
    request.dev = &dev;
    request.config = &config;
    request.shots = 128;
    request.seed = config.seed;
    request.dispatched = schedule.executed.size(); // pretend finished
    EXPECT_THROW(engine::capture_checkpoint(request), Error);
}

TEST(FailureInjection, ResumeIdentityMismatchesRejected)
{
    const auto model = durable_model();
    const auto config = durable_config();
    const auto dev = device::make_device("ibm-montreal");
    const auto snapshot = sample_snapshot(model, config);

    engine::ExecutionEngine eng(1);

    // Mismatched DriverConfig: a different freeze count replans a
    // different tree — the restore must refuse, not silently mix plans.
    auto other_config = config;
    other_config.num_freeze = 2;
    EXPECT_THROW(eng.resume(model, dev, other_config, 128, snapshot),
                 Error);

    // Mismatched model.
    Rng rng(99);
    auto g = graph::barabasi_albert(12, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto other_model = ising::IsingModel::from_graph(g);
    EXPECT_THROW(eng.resume(other_model, dev, config, 128, snapshot),
                 Error);

    // Mismatched shot count and device.
    EXPECT_THROW(eng.resume(model, dev, config, 64, snapshot), Error);
    const auto other_dev = device::make_device("ibm-toronto");
    EXPECT_THROW(eng.resume(model, other_dev, config, 128, snapshot),
                 Error);
}

TEST(FailureInjection, DeadlineRejection)
{
    const auto model = durable_model();
    auto config = durable_config();
    config.checkpoint_interval = 0;
    config.deadline_cost_units = 1; // cheapest leaf costs 2^width >> 1
    const auto dev = device::make_device("ibm-montreal");
    engine::ExecutionEngine eng(1);
    EXPECT_THROW(eng.solve(model, dev, config, 128, config.seed), Error);

    engine::SolveService service(eng);
    EXPECT_THROW(
        service.submit(model, dev, config, 128, config.seed).get(), Error);
    const auto stats = service.stats();
    EXPECT_EQ(stats.requests_rejected_deadline, 1u);
}

// --------------------------------------------- remote worker faults --

/**
 * A hand-rolled worker that speaks the handshake correctly, then
 * misbehaves on its first ExecBatch. Each misbehavior exercises a
 * distinct validation layer in the coordinator: CorruptFrame fails the
 * CRC in read_frame, WrongLeafId fails the outstanding-ledger check,
 * WrongWidth fails the reply-vs-plan width check. All three must mark
 * the worker dead and hedge its leaves onto the local arm — with the
 * final results bitwise-equal to an uninterrupted local solve.
 */
struct MockWorker
{
    enum class Mode { CorruptFrame, WrongLeafId, WrongWidth };

    std::string address;
    net::Fd listen_fd;
    Mode mode;
    std::thread thread;

    explicit MockWorker(Mode mode)
        : address(mock_address()), listen_fd(net::listen_on(address)),
          mode(mode), thread([this] { serve(); })
    {
    }

    ~MockWorker()
    {
        if (listen_fd.valid())
            ::shutdown(listen_fd.get(), SHUT_RDWR);
        if (thread.joinable())
            thread.join();
    }

    static std::string mock_address()
    {
        static std::atomic<int> counter{0};
        return "unix:/tmp/fq_test_mockw_" + std::to_string(::getpid()) +
               "_" + std::to_string(counter.fetch_add(1)) + ".sock";
    }

    void serve()
    {
        try {
            net::Fd client = net::accept_client(listen_fd.get());
            net::write_frame(client.get(), net::kMsgWorkerHello,
                             net::encode_worker_hello(
                                 {net::kProtocolVersion, 1}));
            for (;;) {
                const auto frame = net::read_frame(client.get());
                if (frame.type == net::kMsgOpenSession) {
                    const auto open =
                        net::decode_open_session(frame.payload);
                    net::write_frame(
                        client.get(), net::kMsgSessionReady,
                        net::encode_session_ready({open.session_id, 1}));
                    continue;
                }
                if (frame.type != net::kMsgExecBatch)
                    return;
                const auto batch = net::decode_exec_batch(frame.payload);
                net::LeafCounts reply;
                reply.session_id = batch.session_id;
                reply.leaf_id = batch.leaf_ids.front();
                reply.width = 1;
                reply.histogram = {{0, 64}, {1, 64}};
                switch (mode) {
                case Mode::CorruptFrame: {
                    auto bytes = net::encode_frame(
                        net::kMsgLeafCounts,
                        net::encode_leaf_counts(reply));
                    bytes.back() ^= 0x01; // CRC now lies
                    (void)::write(client.get(), bytes.data(),
                                  bytes.size());
                    return;
                }
                case Mode::WrongLeafId:
                    reply.leaf_id = 1 << 20; // never dispatched
                    break;
                case Mode::WrongWidth:
                    reply.width = 1; // plan says wider
                    break;
                }
                net::write_frame(client.get(), net::kMsgLeafCounts,
                                 net::encode_leaf_counts(reply));
                return; // one poisoned reply, then hang up
            }
        } catch (const net::NetError&) {
            // coordinator hung up first: fine
        }
    }
};

class RemoteWorkerFaults
    : public ::testing::TestWithParam<MockWorker::Mode>
{
};

TEST_P(RemoteWorkerFaults, HedgedRedispatchKeepsResultsIdentical)
{
    Rng model_rng(31);
    auto g = graph::barabasi_albert(14, 3, model_rng);
    graph::assign_random_pm1_weights(g, model_rng);
    const auto model = ising::IsingModel::from_graph(g);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;
    config.threads = 1;
    config.seed = 33;

    engine::ExecutionEngine local_eng(config.threads);
    const auto expected =
        local_eng.solve(model, dev, config, 256, config.seed);

    MockWorker worker(GetParam());
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         {worker.address});
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, 256, config.seed);

    EXPECT_DOUBLE_EQ(expected.best_cost, got.best_cost);
    EXPECT_EQ(expected.best_assignment, got.best_assignment);
    EXPECT_EQ(expected.from_subproblem, got.from_subproblem);
    ASSERT_EQ(expected.distributions.size(), got.distributions.size());
    for (std::size_t s = 0; s < expected.distributions.size(); ++s)
        EXPECT_EQ(expected.distributions[s].histogram(),
                  got.distributions[s].histogram());

    EXPECT_EQ(pool.live_workers(), 0) << "fault must mark the worker dead";
    EXPECT_GT(eng.last_diagnostics().leaves_redispatched, 0);
}

INSTANTIATE_TEST_SUITE_P(FailureInjection, RemoteWorkerFaults,
                         ::testing::Values(
                             MockWorker::Mode::CorruptFrame,
                             MockWorker::Mode::WrongLeafId,
                             MockWorker::Mode::WrongWidth));

std::string
worker_address()
{
    static std::atomic<int> counter{0};
    return "unix:/tmp/fq_test_fi_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

TEST(FailureInjection, WorkerLeafFailureDefaultHooksPropagates)
{
    // A worker whose simulate throws (injected) reports kMsgLeafFailed.
    // With the default WaveHooks — the ExecutionEngine::solve path, no
    // failure hook — that must propagate out of the solve exactly like
    // a local leaf throw: NEVER a normally-completing solve with that
    // leaf's counts silently missing. And the worker is healthy, so it
    // must not be marked dead or have leaves hedged away from it.
    const auto model = test::ba_model(14, 3, 53);
    const auto dev = device::make_device("ibm-montreal");
    frozenqubits::DriverConfig config;
    config.num_freeze = 3;
    config.threads = 1;
    config.seed = 59;

    net::WorkerServer::Options wopts;
    wopts.fail_leaves = true;
    net::WorkerServer server(worker_address(), wopts);
    server.start();

    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         {server.address()});
    eng.set_leaf_executor(&pool);
    try {
        eng.solve(model, dev, config, 256, config.seed);
        FAIL() << "worker-side leaf failure completed silently";
    } catch (const net::NetError& e) {
        EXPECT_NE(std::string(e.what()).find("injected leaf failure"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(pool.live_workers(), 1)
        << "a failing leaf is not a transport fault";
    server.stop();
}

TEST(FailureInjection, WorkerLeafFailureIsolatedToTenant)
{
    // Same injected worker under the service (hooks.failed set): only
    // the remote-capable tenant fails; the local-pinned co-tenant still
    // matches its uninterrupted local solve, and the worker stays alive.
    const auto dev = device::make_device("ibm-montreal");
    const auto model_a = test::ba_model(14, 3, 61);
    const auto model_b = test::ba_model(12, 3, 67);
    frozenqubits::DriverConfig config_a;
    config_a.num_freeze = 3;
    config_a.threads = 2;
    config_a.seed = 71;
    auto config_b = config_a;
    config_b.allow_remote = false;
    config_b.seed = 73;

    engine::ExecutionEngine ref(config_b.threads);
    const auto expected_b =
        ref.solve(model_b, dev, config_b, 256, config_b.seed);

    net::WorkerServer::Options wopts;
    wopts.fail_leaves = true;
    // Advertise far more capacity than the local arm: whatever wave
    // composition the service's admission timing produces, tenant A's
    // first remote-eligible leaf always scores lower on the worker, so
    // the injected failure is guaranteed to be exercised.
    wopts.threads = 8;
    net::WorkerServer server(worker_address(), wopts);
    server.start();

    engine::ExecutionEngine eng(2);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         {server.address()});
    eng.set_leaf_executor(&pool);
    engine::SolveService service(eng, {});

    auto ta = service.submit(model_a, dev, config_a, 256, config_a.seed);
    auto tb = service.submit(model_b, dev, config_b, 256, config_b.seed);
    service.drain();

    EXPECT_THROW(ta.get(), net::NetError);
    test::expect_solves_identical(expected_b, tb.get());
    EXPECT_EQ(pool.live_workers(), 1);
    server.stop();
}

} // namespace
