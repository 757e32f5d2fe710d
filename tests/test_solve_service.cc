/**
 * @file
 * SolveService tests: the multi-tenant acceptance contract — a request's
 * result is bit-identical whether it runs alone on a private engine or
 * interleaved with K-1 concurrent tenants in shared executor waves, at any
 * thread count — plus failure isolation (one tenant's error never poisons a
 * wave), wave-share fairness caps, completion callbacks and per-tenant
 * diagnostics.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/error.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "engine/solve_service.h"
#include "graph/generators.h"
#include "ising/ising_model.h"
#include "net/worker.h"
#include "net/worker_pool.h"
#include "solve_test_util.h"

namespace {

using namespace fq;
using namespace fq::engine;
using fq::test::ba_model;
using fq::test::expect_counters_identical;
using fq::test::expect_solves_identical;

/** One tenant's workload: every SolveTree mode the engine supports. */
struct Workload
{
    ising::IsingModel model;
    frozenqubits::DriverConfig config;
    int shots = 0;
    std::uint64_t seed = 0;
};

std::vector<Workload>
mixed_workloads()
{
    std::vector<Workload> w;
    { // flat, unbudgeted (legacy reduction path)
        Workload a;
        a.model = ba_model(12, 1, 5);
        a.config.num_freeze = 3;
        a.shots = 1024;
        a.seed = 33;
        w.push_back(std::move(a));
    }
    { // flat, budget-cut schedule
        Workload b;
        b.model = ba_model(12, 1, 7);
        b.config.num_freeze = 3;
        b.config.max_circuits = 2;
        b.shots = 1024;
        b.seed = 44;
        w.push_back(std::move(b));
    }
    { // recursive depth-2
        Workload c;
        c.model = ba_model(12, 1, 9);
        c.config.num_freeze = 2;
        c.config.max_depth = 2;
        c.shots = 512;
        c.seed = 17;
        w.push_back(std::move(c));
    }
    { // hybrid partition + repair decode
        Workload d;
        d.model = ba_model(16, 1, 21);
        d.config.num_freeze = 2;
        d.config.max_depth = 2;
        d.config.partition_width = 12;
        d.shots = 512;
        d.seed = 3;
        w.push_back(std::move(d));
    }
    { // forced vectorized backend (every leaf through the SIMD kernels)
        Workload e;
        e.model = ba_model(14, 1, 11);
        e.config.num_freeze = 2;
        e.config.backend = sim::BackendSelection::Simd;
        e.shots = 512;
        e.seed = 59;
        w.push_back(std::move(e));
    }
    return w;
}

/** Solo reference: a fresh serial engine per workload (cold caches). */
std::vector<frozenqubits::SampledSolve>
solo_references(const std::vector<Workload>& workloads,
                const device::Device& dev)
{
    std::vector<frozenqubits::SampledSolve> refs;
    for (const auto& w : workloads) {
        ExecutionEngine solo(1);
        refs.push_back(solo.solve(w.model, dev, w.config, w.shots, w.seed));
    }
    return refs;
}

TEST(SolveService, SingleRequestBitIdenticalToEngineSolve)
{
    const auto dev = device::make_device("ibm-montreal");
    for (const auto& w : mixed_workloads()) {
        ExecutionEngine solo(1);
        const auto expected =
            solo.solve(w.model, dev, w.config, w.shots, w.seed);

        ExecutionEngine eng(4);
        SolveService service(eng);
        auto ticket =
            service.submit(w.model, dev, w.config, w.shots, w.seed);
        expect_solves_identical(ticket.get(), expected);
    }
}

TEST(SolveService, InterleavedTenantsBitIdenticalToSoloAtAnyThreadCount)
{
    // THE acceptance contract: K=4 tenants with mixed tree modes submit
    // concurrently (from 4 submitter threads, so planning also overlaps)
    // and each result matches its solo serial reference bit for bit — for
    // a serial, a small and an oversubscribed engine.
    const auto dev = device::make_device("ibm-montreal");
    const auto workloads = mixed_workloads();
    const auto refs = solo_references(workloads, dev);

    for (int threads : {1, 2, 4}) {
        ExecutionEngine eng(threads);
        SolveService::Config config;
        config.wave_size = 3; // force cross-request waves + carryover
        SolveService service(eng, config);

        std::vector<SolveService::Ticket> tickets(workloads.size());
        std::vector<std::thread> submitters;
        for (std::size_t k = 0; k < workloads.size(); ++k)
            submitters.emplace_back([&, k] {
                const auto& w = workloads[k];
                tickets[k] =
                    service.submit(w.model, dev, w.config, w.shots, w.seed);
            });
        for (auto& t : submitters)
            t.join();

        for (std::size_t k = 0; k < workloads.size(); ++k)
            expect_solves_identical(tickets[k].get(), refs[k]);

        // get() returns on promise fulfilment; drain() is the barrier for
        // the service-side bookkeeping (counters, diagnostics).
        service.drain();
        const auto stats = service.stats();
        EXPECT_EQ(stats.requests_submitted, workloads.size());
        EXPECT_EQ(stats.requests_completed, workloads.size());
        EXPECT_EQ(stats.requests_failed, 0u);
        EXPECT_GT(stats.waves_executed, 0u);
    }
}

TEST(SolveService, RepeatedSubmissionIsReproducible)
{
    // The service itself is deterministic request-by-request: submitting
    // the same workload twice (warm cache the second time) returns
    // identical results.
    const auto dev = device::make_device("ibm-montreal");
    const auto w = mixed_workloads()[2];

    ExecutionEngine eng(2);
    SolveService service(eng);
    auto first = service.submit(w.model, dev, w.config, w.shots, w.seed);
    const auto a = first.get();
    auto second = service.submit(w.model, dev, w.config, w.shots, w.seed);
    expect_solves_identical(second.get(), a);
}

TEST(SolveService, WarmCacheServesSecondTenantsFusedPrograms)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto w = mixed_workloads()[0];

    ExecutionEngine eng(2);
    SolveService service(eng);
    auto first = service.submit(w.model, dev, w.config, w.shots, w.seed);
    first.wait();
    auto second = service.submit(w.model, dev, w.config, w.shots, w.seed);
    second.wait();
    service.drain();

    const auto cold = service.diagnostics(first.id());
    const auto warm = service.diagnostics(second.id());
    EXPECT_EQ(cold.leaves_executed, cold.leaves_scheduled);
    EXPECT_GT(cold.fused_lookups, 0u);
    // The second tenant finds the first tenant's family structure resident
    // and binds every fused program from it — the cross-tenant structure
    // amortization the service exists for; nothing compiles from scratch.
    EXPECT_EQ(warm.leaves_tier_compile, 0);
    EXPECT_GT(warm.fused_lookups, 0u);
    EXPECT_EQ(warm.family_binds, warm.fused_lookups);
    EXPECT_GT(warm.wave_occupancy, 0.0);
    EXPECT_LE(warm.wave_occupancy, 1.0);
    EXPECT_GE(warm.queue_latency_ms, 0.0);
    EXPECT_GE(warm.wall_ms, warm.queue_latency_ms);
}

TEST(SolveService, PerBackendCountersSplitFusedTraffic)
{
    const auto dev = device::make_device("ibm-montreal");

    // Forced-simd tenant: every fused lookup lands in the simd bucket.
    const auto simd_w = mixed_workloads()[4];
    ASSERT_EQ(simd_w.config.backend, sim::BackendSelection::Simd);
    ExecutionEngine eng(2);
    SolveService service(eng);
    auto simd_req =
        service.submit(simd_w.model, dev, simd_w.config, simd_w.shots,
                       simd_w.seed);
    simd_req.wait();

    // Forced-scalar tenant on the same service: scalar bucket only.
    auto scalar_w = mixed_workloads()[0];
    scalar_w.config.backend = sim::BackendSelection::Scalar;
    auto scalar_req =
        service.submit(scalar_w.model, dev, scalar_w.config,
                       scalar_w.shots, scalar_w.seed);
    scalar_req.wait();
    service.drain();

    const auto simd_diag = service.diagnostics(simd_req.id());
    EXPECT_GT(simd_diag.fused_lookups, 0u);
    EXPECT_EQ(simd_diag.fused_lookups_simd, simd_diag.fused_lookups);
    EXPECT_EQ(simd_diag.fused_lookups_scalar, 0u);

    const auto scalar_diag = service.diagnostics(scalar_req.id());
    EXPECT_GT(scalar_diag.fused_lookups, 0u);
    EXPECT_EQ(scalar_diag.fused_lookups_scalar,
              scalar_diag.fused_lookups);
    EXPECT_EQ(scalar_diag.fused_lookups_simd, 0u);

    // The per-backend split always sums to the total.
    for (const auto& d : {simd_diag, scalar_diag})
        EXPECT_EQ(d.fused_lookups_scalar + d.fused_lookups_simd,
                  d.fused_lookups);
}

TEST(SolveService, FailedTenantDoesNotPoisonTheWave)
{
    // A request whose leaves are too wide for the statevector fails at
    // execution time; co-tenants sharing its waves must still complete
    // with bit-identical results.
    const auto dev = device::make_device("ibm-montreal");
    const auto good = mixed_workloads()[0];
    ExecutionEngine solo(1);
    const auto expected =
        solo.solve(good.model, dev, good.config, good.shots, good.seed);

    device::Device wide_dev;
    wide_dev.topology = device::make_grid(4, 7); // 28 qubits
    wide_dev.name = "grid-4x7-test";
    wide_dev.calibration =
        device::Calibration::uniform(wide_dev.topology, 1e-3, 5e-3, 500.0);
    Workload bad;
    bad.model = ba_model(28, 1, 51); // 27-spin leaves > kMaxSimQubits
    bad.config.num_freeze = 1;
    bad.shots = 64;
    bad.seed = 9;

    ExecutionEngine eng(4);
    SolveService service(eng);
    auto good_ticket = service.submit(good.model, dev, good.config,
                                      good.shots, good.seed);
    auto bad_ticket = service.submit(bad.model, wide_dev, bad.config,
                                     bad.shots, bad.seed);

    expect_solves_identical(good_ticket.get(), expected);
    EXPECT_THROW(bad_ticket.get(), fq::Error);

    service.drain();
    const auto stats = service.stats();
    EXPECT_EQ(stats.requests_completed, 1u);
    EXPECT_EQ(stats.requests_failed, 1u);
    // Failure diagnostics still report what ran.
    const auto diag = service.diagnostics(bad_ticket.id());
    EXPECT_LT(diag.leaves_executed, diag.leaves_scheduled);
}

TEST(SolveService, WaveShareCapBoundsPerWaveOccupancy)
{
    const auto dev = device::make_device("ibm-montreal");
    auto w = mixed_workloads()[0]; // 4 scheduled leaves
    w.config.wave_share = 1;       // one leaf per wave for this tenant

    ExecutionEngine eng(4);
    SolveService service(eng);
    auto ticket = service.submit(w.model, dev, w.config, w.shots, w.seed);
    ticket.wait();
    service.drain();

    const auto diag = service.diagnostics(ticket.id());
    EXPECT_EQ(diag.leaves_executed, diag.leaves_scheduled);
    // The cap forces one wave per leaf even with the pool idle.
    EXPECT_EQ(diag.waves, diag.leaves_scheduled);
}

TEST(SolveService, CompletionCallbackFiresWithTheResult)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto w = mixed_workloads()[1];

    ExecutionEngine eng(2);
    SolveService service(eng);
    std::atomic<int> calls{0};
    double callback_cost = 0.0;
    std::uint64_t callback_id = 0;
    int callback_leaves = -1;
    auto ticket = service.submit(
        w.model, dev, w.config, w.shots, w.seed,
        [&](std::uint64_t id, const frozenqubits::SampledSolve& solved) {
            callback_id = id;
            callback_cost = solved.best_cost;
            // Diagnostics publish before delivery, so a callback may read
            // its OWN request's (must not call drain(), though).
            callback_leaves = service.diagnostics(id).leaves_executed;
            calls.fetch_add(1);
        });
    const auto solved = ticket.get();
    service.drain();
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(callback_id, ticket.id());
    EXPECT_DOUBLE_EQ(callback_cost, solved.best_cost);
    EXPECT_EQ(callback_leaves, solved.leaves_executed);

    // A throwing callback violates the contract but must be contained:
    // the result is still delivered and the service stays alive.
    auto rogue = service.submit(
        w.model, dev, w.config, w.shots, w.seed,
        [](std::uint64_t, const frozenqubits::SampledSolve&) {
            throw std::runtime_error("rogue callback");
        });
    EXPECT_DOUBLE_EQ(rogue.get().best_cost, solved.best_cost);
    auto after = service.submit(w.model, dev, w.config, w.shots, w.seed);
    EXPECT_DOUBLE_EQ(after.get().best_cost, solved.best_cost);
}

TEST(SolveService, DiagnosticsForUnknownRequestThrow)
{
    ExecutionEngine eng(1);
    SolveService service(eng);
    EXPECT_THROW(service.diagnostics(12345), fq::Error);
}

TEST(SolveService, RerankParityWithSoloUnderAdversarialInterleaving)
{
    // Adaptive re-ranking must survive multi-tenancy: a request with
    // rerank on, interleaved with co-tenants in tiny shared waves (the
    // adversarial composition — its epoch boundaries land mid-wave), is
    // bit-identical to the same request on a solo serial engine, and
    // reports the same counters record. The epoch snapshot and the
    // dispatch_limit cap are exactly what makes this hold.
    const auto dev = device::make_device("ibm-montreal");
    auto workloads = mixed_workloads();
    workloads[1].config.rerank_interval = 1; // flat budgeted tenant
    workloads[2].config.rerank_interval = 2; // recursive depth-2 tenant
    workloads[3].config.rerank_interval = 1; // hybrid partition tenant
    std::vector<frozenqubits::SampledSolve> refs;
    std::vector<RequestCounters> solo_counters;
    for (const auto& w : workloads) {
        ExecutionEngine solo(1);
        refs.push_back(solo.solve(w.model, dev, w.config, w.shots, w.seed));
        solo_counters.push_back(solo.last_diagnostics());
    }

    for (int threads : {1, 4}) {
        ExecutionEngine eng(threads);
        SolveService::Config config;
        config.wave_size = 2; // force boundary-straddling co-tenancy
        SolveService service(eng, config);

        std::vector<SolveService::Ticket> tickets(workloads.size());
        std::vector<std::thread> submitters;
        for (std::size_t k = 0; k < workloads.size(); ++k)
            submitters.emplace_back([&, k] {
                const auto& w = workloads[k];
                tickets[k] =
                    service.submit(w.model, dev, w.config, w.shots, w.seed);
            });
        for (auto& t : submitters)
            t.join();

        for (std::size_t k = 0; k < workloads.size(); ++k)
            expect_solves_identical(tickets[k].get(), refs[k]);
        service.drain();

        // Boundaries depend on the request's own fold count, not the
        // service's waves, so every shared counter matches the solo run.
        for (std::size_t k = 0; k < workloads.size(); ++k)
            expect_counters_identical(service.diagnostics(tickets[k].id()),
                                      solo_counters[k]);
    }

    // Resumed: the same snapshot resumed solo and served, each re-arming
    // checkpoints, reports the same record (resumed_from included).
    {
        auto w = workloads[2];
        w.config.checkpoint_interval = 1;
        std::vector<SolveCheckpoint> snapshots;
        ExecutionEngine solo(1);
        (void)solo.solve(w.model, dev, w.config, w.shots, w.seed,
                         [&](const SolveCheckpoint& ck) {
                             snapshots.push_back(ck);
                             return true;
                         });
        ASSERT_FALSE(snapshots.empty());
        const auto& snapshot = snapshots.front();
        const auto resumed =
            solo.resume(w.model, dev, w.config, w.shots, snapshot,
                        [](const SolveCheckpoint&) { return true; });
        EXPECT_EQ(solo.last_diagnostics().resumed_from,
                  static_cast<int>(snapshot.cursor));

        ExecutionEngine eng(2);
        SolveService service(eng, SolveService::Config{2, 0});
        auto ticket = service.submit_resume(
            w.model, dev, w.config, w.shots, snapshot, nullptr,
            [](std::uint64_t, const SolveCheckpoint&) { return true; });
        expect_solves_identical(ticket.get(), resumed);
        service.drain();
        expect_counters_identical(service.diagnostics(ticket.id()),
                                  solo.last_diagnostics());
    }

    // One worker: a request alone in the service rides the solo solve's
    // waves, so the remote split and wire bytes match too.
    {
        const auto address = "unix:/tmp/fq_test_service_" +
                             std::to_string(::getpid()) + ".sock";
        net::WorkerServer worker(address);
        worker.start();
        ExecutionEngine eng(2);
        net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                             {address});
        eng.set_leaf_executor(&pool);
        std::vector<RequestCounters> pooled;
        for (const auto& w : workloads) {
            (void)eng.solve(w.model, dev, w.config, w.shots, w.seed);
            pooled.push_back(eng.last_diagnostics());
        }
        long long remote = 0;
        {
            SolveService service(eng, SolveService::Config{64, 0});
            for (std::size_t k = 0; k < workloads.size(); ++k) {
                const auto& w = workloads[k];
                auto ticket =
                    service.submit(w.model, dev, w.config, w.shots, w.seed);
                expect_solves_identical(ticket.get(), refs[k]);
                service.drain();
                const auto diag = service.diagnostics(ticket.id());
                expect_counters_identical(diag, pooled[k]);
                remote += diag.leaves_remote;
            }
        }
        EXPECT_GT(remote, 0);
        worker.stop();
    }
}

TEST(SolveService, AdmissionControlRejectsBeyondQueueDepth)
{
    const auto dev = device::make_device("ibm-montreal");
    // A deep workload: 8 scheduled 16-qubit leaves keep the service busy
    // far longer than the submit() that must bounce off the full queue.
    Workload heavy;
    heavy.model = ba_model(20, 3, 41);
    heavy.config.num_freeze = 4;
    heavy.shots = 8192;
    heavy.seed = 13;

    ExecutionEngine eng(2);
    SolveService::Config config;
    config.max_queue_depth = 1;
    SolveService service(eng, config);

    auto admitted = service.submit(heavy.model, dev, heavy.config,
                                   heavy.shots, heavy.seed);
    EXPECT_THROW(service.submit(heavy.model, dev, heavy.config, heavy.shots,
                                heavy.seed),
                 AdmissionError);
    // The typed error is still an fq::Error for legacy catch sites.
    try {
        service.submit(heavy.model, dev, heavy.config, heavy.shots,
                       heavy.seed);
        FAIL() << "second overflow submit was admitted";
    } catch (const fq::Error&) {
    }

    // The admitted request is unharmed, and capacity frees on completion.
    EXPECT_GT(admitted.get().leaves_executed, 0);
    service.drain();
    auto after = service.submit(heavy.model, dev, heavy.config, heavy.shots,
                                heavy.seed);
    EXPECT_GT(after.get().leaves_executed, 0);
    const auto stats = service.stats();
    EXPECT_EQ(stats.requests_submitted, 2u);
    EXPECT_EQ(stats.requests_completed, 2u);
}

TEST(SolveService, UnlimitedQueueDepthByDefault)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto w = mixed_workloads()[0];
    ExecutionEngine eng(2);
    SolveService service(eng); // max_queue_depth = 0: never rejects
    std::vector<SolveService::Ticket> tickets;
    for (int k = 0; k < 8; ++k)
        tickets.push_back(
            service.submit(w.model, dev, w.config, w.shots, w.seed));
    for (auto& ticket : tickets)
        EXPECT_GT(ticket.get().leaves_executed, 0);
}

TEST(SolveService, MigrationUnderCoTenantsBitIdenticalToSolo)
{
    // Live request migration: a durable tenant is suspended at its first
    // checkpoint boundary while co-tenants keep the waves busy, then
    // re-admitted via submit_resume on the same service. The combined
    // suspend-then-resume result must match the uninterrupted solo solve
    // bit for bit (and the TSan build proves the snapshot handoff between
    // the assembler thread and the resubmitting thread is clean).
    const auto dev = device::make_device("ibm-montreal");
    Workload w;
    w.model = ba_model(12, 1, 9);
    w.config.num_freeze = 2;
    w.config.max_depth = 2;
    w.config.rerank_interval = 2;
    w.config.checkpoint_interval = 1;
    w.shots = 512;
    w.seed = 17;

    ExecutionEngine solo(1);
    const auto reference =
        solo.solve(w.model, dev, w.config, w.shots, w.seed);
    ASSERT_GT(reference.leaves_executed, 1);

    ExecutionEngine eng(4);
    SolveService service(eng);
    // Written by the assembler thread before the suspended request
    // completes; the ticket's promise/future pair orders the read below.
    SolveCheckpoint snapshot;
    auto durable = service.submit(
        w.model, dev, w.config, w.shots, w.seed, nullptr,
        [&snapshot](std::uint64_t, const SolveCheckpoint& ck) {
            snapshot = ck;
            return ck.cursor < 1; // suspend at the first boundary
        });
    std::vector<SolveService::Ticket> others;
    for (const auto& c : mixed_workloads())
        others.push_back(
            service.submit(c.model, dev, c.config, c.shots, c.seed));

    const auto partial = durable.get();
    EXPECT_TRUE(partial.degraded);
    EXPECT_LT(partial.leaves_executed, reference.leaves_executed);
    const auto diag = service.diagnostics(durable.id());
    EXPECT_TRUE(diag.degraded);
    EXPECT_GT(diag.checkpoints, 0);

    auto resumed = service.submit_resume(w.model, dev, w.config, w.shots,
                                         snapshot);
    expect_solves_identical(resumed.get(), reference);
    EXPECT_EQ(service.diagnostics(resumed.id()).resumed_from,
              static_cast<int>(snapshot.cursor));
    for (auto& ticket : others)
        EXPECT_GT(ticket.get().leaves_executed, 0);
    service.drain();
}

TEST(SolveService, DeadlineBacklogRejectionIsDeterministic)
{
    const auto dev = device::make_device("ibm-montreal");
    // Flat workload: every scheduled leaf has the same width, so the
    // schedule's total cost is exactly leaves * 2^width.
    auto w = mixed_workloads()[0];
    w.config.checkpoint_interval = 1;

    ExecutionEngine solo(1);
    const auto reference =
        solo.solve(w.model, dev, w.config, w.shots, w.seed);
    ASSERT_GT(reference.leaves_executed, 1);
    const long long leaf_cost =
        1LL << (w.model.num_spins() - w.config.num_freeze);
    const long long total_cost = reference.leaves_executed * leaf_cost;

    // A resumable snapshot whose config carries the exact-fit deadline
    // (the restore fingerprint-checks the config, deadline included).
    auto exact_fit = w.config;
    exact_fit.deadline_cost_units = total_cost;
    SolveCheckpoint snapshot;
    bool captured = false;
    ExecutionEngine solo_durable(1);
    const auto durable_reference = solo_durable.solve(
        w.model, dev, exact_fit, w.shots, w.seed,
        [&](const SolveCheckpoint& ck) {
            if (!captured) {
                snapshot = ck;
                captured = true;
            }
            return true;
        });
    ASSERT_TRUE(captured);
    ASSERT_FALSE(durable_reference.degraded); // the budget fits exactly

    ExecutionEngine eng(2);
    SolveService service(eng);

    // Hold one tenant open at its first checkpoint boundary so the
    // service has a GUARANTEED nonzero projected backlog — no sleeps,
    // no timing assumptions.
    std::promise<void> entered_promise;
    auto entered = entered_promise.get_future();
    std::promise<void> release_promise;
    std::shared_future<void> release(release_promise.get_future());
    std::atomic<bool> first_boundary{true};
    auto blocked = service.submit(
        w.model, dev, w.config, w.shots, w.seed, nullptr,
        [&](std::uint64_t, const SolveCheckpoint&) {
            if (first_boundary.exchange(false))
                entered_promise.set_value();
            release.wait();
            return true;
        });
    entered.wait();

    // A newcomer whose own cost exactly meets its deadline is feasible
    // alone but not behind the blocked tenant's remaining leaves: the
    // admission projection must bounce it with the typed error.
    EXPECT_THROW(
        service.submit(w.model, dev, exact_fit, w.shots, w.seed),
        DeadlineError);
    EXPECT_EQ(service.stats().requests_rejected_deadline, 1u);

    // A MIGRATED request with the same exact-fit deadline must NOT
    // bounce off the backlog — it was already admitted once.
    auto resumed = service.submit_resume(w.model, dev, exact_fit, w.shots,
                                         snapshot);

    release_promise.set_value();
    expect_solves_identical(blocked.get(), reference);
    expect_solves_identical(resumed.get(), durable_reference);
    service.drain();
    EXPECT_EQ(service.stats().requests_rejected_deadline, 1u);
}

TEST(SolveService, ConcurrentTenantsRacingOneFamilyEntryMatchSolo)
{
    // The family tier's first-structural-compile-wins race under real
    // contention (the TSan leg runs this file): K tenants share ONE
    // labeled structure with K distinct coefficient sets, submitted from K
    // threads so their planners race on the same family entry. Every
    // result must match its solo reference regardless of who wins.
    const auto dev = device::make_device("ibm-montreal");
    const auto base = ba_model(12, 1, 5);

    constexpr int kTenants = 4;
    std::vector<Workload> workloads;
    for (int k = 0; k < kTenants; ++k) {
        Workload w;
        w.model = base;
        Rng values(static_cast<std::uint64_t>(1000 + k));
        for (const auto& term : w.model.quadratic_terms())
            w.model.add_quadratic(term.i, term.j,
                                  values.uniform(-1.0, 1.0));
        w.config.num_freeze = 2;
        w.shots = 512;
        w.seed = static_cast<std::uint64_t>(90 + k);
        workloads.push_back(std::move(w));
    }
    const auto refs = solo_references(workloads, dev);

    ExecutionEngine eng(4);
    SolveService service(eng);
    std::vector<SolveService::Ticket> tickets(workloads.size());
    std::vector<std::thread> submitters;
    for (std::size_t k = 0; k < workloads.size(); ++k)
        submitters.emplace_back([&, k] {
            const auto& w = workloads[k];
            tickets[k] =
                service.submit(w.model, dev, w.config, w.shots, w.seed);
        });
    for (auto& t : submitters)
        t.join();
    for (std::size_t k = 0; k < workloads.size(); ++k)
        expect_solves_identical(tickets[k].get(), refs[k]);
    service.drain();

    // One labeled structure: race losers may pay duplicate structural
    // compiles (their builds are dropped outside the lock), but the
    // per-tenant table work is coefficient binds, not rebuilds.
    const auto stats = eng.template_cache().stats();
    EXPECT_GE(stats.family_structural_compiles, 1u);
    EXPECT_LE(stats.family_structural_compiles,
              static_cast<std::uint64_t>(kTenants));
    EXPECT_GT(stats.family_binds, 0u);

    // Tier preview accounting reconciles per tenant.
    for (std::size_t k = 0; k < workloads.size(); ++k) {
        const auto diag = service.diagnostics(tickets[k].id());
        EXPECT_EQ(diag.leaves_tier_bind + diag.leaves_tier_compile,
                  diag.leaves_executed);
    }
}

} // namespace
