#include "executors.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "qaoa/analytic_p1.h"
#include "sim/backend.h"
#include "sim/noise_model.h"

namespace perfbench {

using fq::engine::WaveHooks;
using fq::engine::WaveRequest;
using fq::engine::WaveSlot;

namespace {

/** Slot bookkeeping of one wave; each entry is written only by the thread
 *  that runs its slot. */
struct SlotRecord
{
    const WaveRequest* request = nullptr;
    int leaf = -1;
    std::int64_t admit_ns = -1;
    std::int64_t folded_ns = -1;
    int thread = 0;
};

/**
 * Computed (not measured) bytes the fused kernel moves for one leaf: every
 * diagonal and mixer pass reads and writes the whole 16-byte-per-amplitude
 * statevector, and each diagonal pass also reads one weight table.
 */
double
computed_kernel_bytes(const fq::sim::FusedProgram& program)
{
    const double amplitudes =
        static_cast<double>(std::uint64_t{1} << program.num_qubits());
    const double passes = static_cast<double>(program.num_diagonal_ops() +
                                              program.num_mixer_ops());
    const double table =
        program.num_tables() == 0
            ? 0.0
            : static_cast<double>(program.table_bytes()) /
                  static_cast<double>(program.num_tables());
    return 2.0 * 16.0 * amplitudes * passes +
           table * static_cast<double>(program.num_diagonal_ops());
}

} // namespace

TimingExecutor::TimingExecutor(fq::engine::LeafExecutor& inner,
                               Tracer& tracer, const char* wave_name,
                               const char* slot_name)
    : inner_(inner), tracer_(tracer), wave_name_(wave_name),
      slot_name_(slot_name)
{
}

int
TimingExecutor::execute_wave(const std::vector<WaveSlot>& wave,
                             const WaveHooks& hooks)
{
    const std::int64_t start = tracer_.now_ns();
    const std::uint64_t wave_id = tracer_.next_id();

    std::vector<SlotRecord> records(wave.size());
    std::map<std::pair<const WaveRequest*, int>, std::size_t> where;
    for (std::size_t i = 0; i < wave.size(); ++i) {
        records[i].request = wave[i].request;
        records[i].leaf = wave[i].leaf_id;
        where[{wave[i].request, wave[i].leaf_id}] = i;
    }
    auto record_of = [&records, &where](const WaveSlot& slot) -> SlotRecord& {
        return records[where.at({slot.request, slot.leaf_id})];
    };

    // Chain the caller's hooks: timing is recorded around them, never
    // instead of them, and a missing failure hook stays missing so
    // exceptions propagate exactly as they would undecorated.
    WaveHooks chained;
    chained.admit = [&](const WaveSlot& slot) {
        if (hooks.admit && !hooks.admit(slot))
            return false;
        SlotRecord& rec = record_of(slot);
        // A WorkerPool admits a remote slot at dispatch and again if a
        // dead worker's slot is re-run locally; the first admit starts it.
        if (rec.admit_ns < 0) {
            rec.admit_ns = tracer_.now_ns();
            rec.thread = Tracer::thread_index();
        }
        return true;
    };
    chained.folded = [&](const WaveSlot& slot, bool fused_hit,
                         fq::engine::TemplateTier tier) {
        record_of(slot).folded_ns = tracer_.now_ns();
        if (hooks.folded)
            hooks.folded(slot, fused_hit, tier);
    };
    if (hooks.failed)
        chained.failed = hooks.failed;

    const int executed = inner_.execute_wave(wave, chained);

    Span wave_span;
    wave_span.id = wave_id;
    wave_span.level = Level::Wave;
    wave_span.name = wave_name_;
    wave_span.start_ns = start;
    wave_span.end_ns = tracer_.now_ns();
    wave_span.thread = Tracer::thread_index();
    // A wave owned by one request belongs to its request span; a shared
    // (multi-tenant) wave has none.
    const bool one_request =
        std::all_of(wave.begin(), wave.end(), [&wave](const WaveSlot& s) {
            return s.request == wave.front().request;
        });
    wave_span.request =
        !wave.empty() && one_request ? wave.front().request->seed : 0;

    std::vector<Span> spans;
    spans.reserve(records.size() + 1);
    spans.push_back(wave_span);
    for (const auto& rec : records) {
        if (rec.admit_ns < 0 || rec.folded_ns < 0)
            continue; // skipped or failed slot
        Span s;
        s.parent = wave_id;
        s.request = rec.request->seed;
        s.leaf = rec.leaf;
        s.level = Level::Slot;
        s.name = slot_name_;
        s.start_ns = rec.admit_ns;
        s.end_ns = rec.folded_ns;
        s.thread = rec.thread;
        spans.push_back(s);
    }
    tracer_.add_all(std::move(spans));
    return executed;
}

bool
leaf_is_staged(const fq::engine::SolveLeaf& leaf)
{
    return leaf.fuse && leaf.tpl && leaf.tpl_compatible;
}

fq::sim::Counts
simulate_leaf_staged(fq::engine::TemplateCache& cache,
                     const fq::engine::SolveTree& tree, int leaf_id,
                     const fq::device::Device& dev,
                     const fq::frozenqubits::DriverConfig& config, int shots,
                     fq::engine::BatchExecutor::Scratch& scratch,
                     bool* fused_hit, fq::engine::TemplateTier* fuse_tier,
                     Tracer* tracer, std::uint64_t request_id,
                     double* kernel_bytes)
{
    const auto& leaf = tree.leaves[static_cast<std::size_t>(leaf_id)];
    if (!leaf_is_staged(leaf))
        return fq::engine::simulate_scheduled_leaf(cache, tree, leaf_id, dev,
                                                   config, shots, scratch,
                                                   fused_hit, fuse_tier);
    const auto& sub = tree.nodes[static_cast<std::size_t>(leaf.node)].sub;
    FQ_REQUIRE(sub.model.num_spins() <= fq::sim::kMaxSimQubits,
               "leaf too wide for the statevector");

    std::vector<Span> spans;
    std::int64_t mark = tracer ? tracer->now_ns() : 0;
    auto stage = [&](const char* name) {
        if (!tracer)
            return;
        Span s;
        s.request = request_id;
        s.leaf = leaf_id;
        s.level = Level::Stage;
        s.name = name;
        s.start_ns = mark;
        s.end_ns = tracer->now_ns();
        s.thread = Tracer::thread_index();
        spans.push_back(s);
        mark = s.end_ns;
    };

    const auto tuned = fq::qaoa::optimize_p1(
        leaf.proxy ? *leaf.proxy : sub.model, config.p1_grid_resolution);
    stage("angles");

    const auto program = cache.get_or_fuse(sub.model, leaf.build, fused_hit,
                                           leaf.family.get(), fuse_tier);
    stage("bind");

    program->run({tuned.angles.gamma}, {tuned.angles.beta},
                 scratch.statevector,
                 fq::sim::BackendRegistry::instance().get(leaf.backend));
    stage("kernel");
    if (kernel_bytes)
        *kernel_bytes = computed_kernel_bytes(*program);

    fq::Rng leaf_rng(leaf.rng_seed);
    auto counts = fq::sim::sample_noisy_counts(
        scratch.statevector, leaf.tpl->attenuation.global_state_survival(),
        leaf.tpl->readout_flip, shots, leaf_rng);
    stage("sample");

    if (tracer)
        tracer->add_all(std::move(spans));
    return counts;
}

StagedExecutor::StagedExecutor(fq::engine::TemplateCache& cache,
                               int threads, Tracer& tracer)
    : cache_(cache), executor_(threads), tracer_(tracer)
{
}

int
StagedExecutor::execute_wave(const std::vector<WaveSlot>& wave,
                             const WaveHooks& hooks)
{
    // The same queue discipline as engine::execute_wave: admit gate,
    // executed count, fold into the request's reducer, folded hook, and
    // failures through the failure hook or out of the wave.
    std::atomic<int> executed{0};
    std::vector<fq::engine::BatchExecutor::QueuedTask> queue;
    queue.reserve(wave.size());
    for (const auto& slot : wave) {
        queue.push_back([this, &hooks, &executed,
                         slot](fq::engine::BatchExecutor::Scratch& scratch) {
            if (hooks.admit && !hooks.admit(slot))
                return;
            executed.fetch_add(1, std::memory_order_relaxed);
            try {
                WaveRequest& r = *slot.request;
                const bool staged = leaf_is_staged(
                    r.tree->leaves[static_cast<std::size_t>(slot.leaf_id)]);
                bool fused_hit = false;
                auto tier = fq::engine::TemplateTier::Compile;
                double bytes = 0.0;
                const std::int64_t start = tracer_.now_ns();
                auto counts = simulate_leaf_staged(
                    cache_, *r.tree, slot.leaf_id, *r.dev, *r.config,
                    r.shots, scratch, &fused_hit, &tier, &tracer_, r.seed,
                    &bytes);
                const std::int64_t fold_start = tracer_.now_ns();
                r.reducer->fold(slot.leaf_id, std::move(counts));

                Span s;
                s.request = r.seed;
                s.leaf = slot.leaf_id;
                s.level = Level::Stage;
                s.thread = Tracer::thread_index();
                if (!staged) {
                    s.name = "leaf_fallback";
                    s.start_ns = start;
                    s.end_ns = fold_start;
                    tracer_.add(s);
                }
                s.name = "fold";
                s.start_ns = fold_start;
                s.end_ns = tracer_.now_ns();
                tracer_.add(s);
                if (staged) {
                    staged_.fetch_add(1, std::memory_order_relaxed);
                    std::lock_guard<std::mutex> lock(bytes_mutex_);
                    kernel_bytes_.push_back(bytes);
                } else {
                    fallback_.fetch_add(1, std::memory_order_relaxed);
                }
                if (hooks.folded)
                    hooks.folded(slot, fused_hit, tier);
            } catch (...) {
                if (!hooks.failed)
                    throw;
                hooks.failed(slot, std::current_exception());
            }
        });
    }
    executor_.run_queue(queue);
    return executed.load(std::memory_order_acquire);
}

std::vector<double>
StagedExecutor::kernel_bytes() const
{
    std::lock_guard<std::mutex> lock(bytes_mutex_);
    return kernel_bytes_;
}

} // namespace perfbench
