/**
 * @file
 * fqtool — command-line front end for the FrozenQubits pipeline.
 *
 * Subcommands:
 *   generate --class ba1|ba2|ba3|3reg|sk --n <N> [--seed S]
 *       Emit a random benchmark instance in the text model format.
 *   analyze [--file F]
 *       Read a model (file or stdin) and print graph/hotspot statistics.
 *   run [--file F] --device <name> [--freeze M] [--seed S] [--threads T]
 *       Read a model, run baseline-vs-FrozenQubits, print the report.
 *   plan [--file F] --device <name> [--freeze M] [--max-depth D]
 *        [--max-circuits B] [--partition W]
 *       Build the SolveTree, rank its leaves with the classical scheduler
 *       and print the tree plus the budget trace (cut line included) —
 *       without executing any circuit.
 *   solve [--file F] --device <name> [--freeze M] [--shots K] [--seed S]
 *         [--threads T] [--max-depth D] [--max-circuits B]
 *         [--partition W] [--rerank N|off] [--deadline D]
 *         [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]
 *         [--suspend-after K] [--stats]
 *       Sampled end-to-end solve over the SolveTree: recursive freezing
 *       (--max-depth), budgeted best-first partial execution
 *       (--max-circuits), hybrid bisection (--partition), adaptive budget
 *       re-ranking every N folded leaves (--rerank, plus a plan-vs-
 *       adaptive schedule trace). --stats prints template-cache counters.
 *       Durable solves: --checkpoint writes a crash-safe snapshot every
 *       checkpoint boundary (--checkpoint-every folded leaves, default 1);
 *       --resume restarts a killed/suspended solve from that snapshot
 *       (same model/options; the result is bit-identical to the
 *       uninterrupted run); --suspend-after K stops after K folded leaves
 *       with a degraded anytime result; --deadline D admits only what
 *       fits a 2^width cost budget of D units.
 *   serve-batch --trace FILE [--device NAME] [--threads T] [--wave-size W]
 *               [--queue-depth D] [--shots K] [--serial] [--stats]
 *       Replay a multi-request trace through a SolveService sharing ONE
 *       engine: requests are submitted concurrently and their leaves ride
 *       shared executor waves (per-request results bit-identical to solo
 *       solves; --queue-depth bounds admission). One request per line:
 *         <model-file> [freeze=M] [shots=K] [seed=S] [device=NAME]
 *                      [max-depth=D] [max-circuits=B] [partition=W]
 *                      [wave-share=C] [rerank=N] [deadline=D]
 *                      [checkpoint=N] [migrate=K]
 *       '#' starts a comment. deadline=D rejects requests whose cost (or
 *       projected backlog) exceeds D units; migrate=K suspends a request
 *       at its first checkpoint boundary past K folded leaves and resumes
 *       it via submit_resume after the first drain — exercising live
 *       request migration. --serial replays the same trace one solve
 *       at a time on the same engine (the A/B throughput baseline).
 *   worker --listen ADDR [--threads T]
 *       Distributed leaf-execution worker (net/worker.h): serves the
 *       framed wire protocol on ADDR (unix:/path.sock or host:port),
 *       plans nothing, executes leaves against its own TemplateCache
 *       until killed. Pair with --workers on solve / serve-batch.
 *   devices
 *       List the device catalog.
 *
 * Distributed execution: solve and serve-batch accept
 * --workers a,b,c (comma-separated worker addresses). Leaves are then
 * split across the local executor and the workers by cost-weighted
 * assignment, with hedged local re-dispatch when a worker dies —
 * results stay bit-identical to a local-only run (the determinism
 * contract; see README "Distributed execution"). The serve-batch trace
 * accepts workers=0 to pin one request local.
 *
 * Every command rejects an option it does not accept ("unknown option
 * --X", exit 1).
 *
 * run and solve execute on the ExecutionEngine: sub-problem circuits are
 * batched over a thread pool (--threads, default all cores; results are
 * identical for any thread count) and each invocation ends with a
 * wall-clock summary line.
 *
 * Examples:
 *   fqtool generate --class ba1 --n 16 > problem.ising
 *   fqtool run --file problem.ising --device ibm-montreal --freeze 2
 *   fqtool plan --file problem.ising --freeze 3 --max-circuits 2
 *   fqtool solve --file problem.ising --freeze 2 --max-depth 2 --stats
 */
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/table.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "engine/solve_service.h"
#include "frozenqubits/budget.h"
#include "frozenqubits/driver.h"
#include "frozenqubits/hotspot.h"
#include "graph/generators.h"
#include "graph/powerlaw.h"
#include "ising/io.h"
#include "ising/maxcut.h"
#include "net/worker.h"
#include "net/worker_pool.h"
#include "sim/backend.h"

namespace {

using namespace fq;

/** Parsed --key value options. */
using Options = std::map<std::string, std::string>;

/** One subcommand and the options it accepts, as space-separated names:
 *  @c keys take a value (--key value), @c flags do not (--flag). */
struct Command
{
    const char* name;
    int (*run)(const Options&);
    std::string keys;
    std::string flags;
};

/** True when @p key is one of the space-separated names in @p list. */
bool
listed(const std::string& list, const std::string& key)
{
    return !key.empty() &&
           (" " + list + " ").find(" " + key + " ") != std::string::npos;
}

/** Parse argv[first..] against @p cmd; any key it does not accept is an
 *  error, so a misspelled option can never be silently ignored. */
Options
parse_options(int argc, char** argv, int first, const Command& cmd)
{
    Options opts;
    for (int a = first; a < argc; ++a) {
        std::string key = argv[a];
        FQ_REQUIRE(key.rfind("--", 0) == 0, "expected --option, got " + key);
        key = key.substr(2);
        if (listed(cmd.flags, key)) {
            opts[key] = "1";
            continue;
        }
        if (!listed(cmd.keys, key))
            throw Error("unknown option --" + key);
        FQ_REQUIRE(a + 1 < argc, "missing value for --" + key);
        opts[key] = argv[++a];
    }
    return opts;
}

std::string
option(const Options& opts, const std::string& key,
       const std::string& fallback)
{
    const auto it = opts.find(key);
    return it == opts.end() ? fallback : it->second;
}

int
int_option(const Options& opts, const std::string& key, int fallback)
{
    const auto it = opts.find(key);
    if (it == opts.end())
        return fallback;
    try {
        std::size_t consumed = 0;
        const int value = std::stoi(it->second, &consumed);
        if (consumed == it->second.size())
            return value;
    } catch (const std::logic_error&) {
    }
    throw Error("--" + key + " expects an integer, got " + it->second);
}

/** 64-bit variant for options that take circuit budgets (saturating
 *  budget arithmetic upstream supports values up to LLONG_MAX). */
long long
long_option(const Options& opts, const std::string& key, long long fallback)
{
    const auto it = opts.find(key);
    if (it == opts.end())
        return fallback;
    try {
        std::size_t consumed = 0;
        const long long value = std::stoll(it->second, &consumed);
        if (consumed == it->second.size())
            return value;
    } catch (const std::logic_error&) {
    }
    throw Error("--" + key + " expects an integer, got " + it->second);
}

/** Fractional variant (keep fractions and the like). */
double
double_option(const Options& opts, const std::string& key, double fallback)
{
    const auto it = opts.find(key);
    if (it == opts.end())
        return fallback;
    try {
        std::size_t consumed = 0;
        const double value = std::stod(it->second, &consumed);
        if (consumed == it->second.size())
            return value;
    } catch (const std::logic_error&) {
    }
    throw Error("--" + key + " expects a number, got " + it->second);
}

ising::IsingModel
load_model(const Options& opts)
{
    const auto file = option(opts, "file", "");
    if (file.empty())
        return ising::read_model(std::cin);
    std::ifstream in(file);
    FQ_REQUIRE(in.good(), "cannot open " + file);
    return ising::read_model(in);
}

int
cmd_generate(const Options& opts)
{
    const auto klass = option(opts, "class", "ba1");
    const int n = int_option(opts, "n", 16);
    Rng rng(static_cast<std::uint64_t>(int_option(opts, "seed", 1)));

    graph::Graph g;
    if (klass == "ba1")
        g = graph::barabasi_albert(n, 1, rng);
    else if (klass == "ba2")
        g = graph::barabasi_albert(n, 2, rng);
    else if (klass == "ba3")
        g = graph::barabasi_albert(n, 3, rng);
    else if (klass == "3reg")
        g = graph::random_regular(n, 3, rng);
    else if (klass == "sk")
        g = graph::complete(n);
    else
        FQ_REQUIRE(false, "unknown class: " + klass);
    graph::assign_random_pm1_weights(g, rng);

    std::cout << "# " << klass << " benchmark, N=" << n << "\n";
    ising::write_model(std::cout, ising::maxcut_hamiltonian(g));
    return 0;
}

int
cmd_analyze(const Options& opts)
{
    const auto model = load_model(opts);
    const auto g = model.to_graph();
    const auto stats = graph::degree_stats(g, 5);

    Table t("instance analysis");
    t.set_header({"metric", "value"});
    t.add_row({"spins", Table::num(model.num_spins())});
    t.add_row({"quadratic terms", Table::num(model.num_quadratic_terms())});
    t.add_row({"flip-symmetric (h==0)",
               model.has_zero_linear_terms() ? "yes" : "no"});
    t.add_row({"average degree", Table::num(stats.average_degree, 2)});
    t.add_row({"max degree", Table::num(stats.max_degree)});
    t.add_row({"top-5 hotspot ratio", Table::factor(stats.hotspot_ratio)});
    t.print(std::cout);

    Rng rng(1);
    Table hotspots("hotspots (iterative max-degree order)");
    hotspots.set_header({"rank", "spin", "edges dropped cumulatively"});
    const auto picks = frozenqubits::select_hotspots(
        model, std::min(5, model.num_spins() - 1),
        frozenqubits::HotspotPolicy::MaxDegree, rng);
    for (std::size_t k = 0; k < picks.size(); ++k) {
        const std::vector<int> prefix(picks.begin(),
                                      picks.begin() + k + 1);
        hotspots.add_row({Table::num(k + 1), "z" + Table::num(picks[k]),
                          Table::num(frozenqubits::dropped_edge_count(
                              model, prefix))});
    }
    hotspots.print(std::cout);
    return 0;
}

/**
 * --freeze N or --freeze auto (Section 3.4 recommendation). With auto and
 * --max-depth > 1 the whole-tree recommendation picks the deepest depth
 * whose leaf count fits the budget (config.max_depth is updated to it).
 * Call after apply_tree_options so the depth cap is in effect.
 */
void
resolve_freeze(const Options& opts, const ising::IsingModel& model,
               frozenqubits::DriverConfig& config)
{
    if (option(opts, "freeze", "1") != "auto") {
        config.num_freeze = int_option(opts, "freeze", 1);
        return;
    }
    frozenqubits::FreezeBudget budget;
    budget.max_circuits = long_option(opts, "budget", 4);
    const auto rec = frozenqubits::recommend_tree_freeze(
        model, budget, std::max(1, config.max_depth));
    std::cout << "auto freeze: m=" << rec.num_freeze;
    if (config.max_depth > 1)
        std::cout << ", depth=" << rec.depth << " ("
                  << rec.leaf_circuits << " leaf circuits)";
    for (const auto& step : rec.base.steps)
        std::cout << "  [z" << step.spin << " drops "
                  << step.edges_dropped << " edges]";
    std::cout << "\n";
    config.num_freeze = std::max(1, rec.num_freeze);
    config.max_depth = rec.depth;
}

/** Engine wall-clock summary: printed after every run/solve. */
void
print_wall_clock(const engine::ExecutionEngine& eng)
{
    const auto& d = eng.last_diagnostics();
    std::cout << "wall-clock: " << Table::num(d.wall_ms, 1) << " ms | "
              << d.threads << " thread" << (d.threads == 1 ? "" : "s")
              << " | " << d.tasks_executed << "/" << d.num_subproblems
              << " sub-circuits executed (" << d.mirrors_inferred
              << " mirrored, " << d.template_edits << " template edits"
              << (d.template_cache_hit ? ", template cached" : "") << ")\n";
    if (d.leaves_scalar_backend > 0 || d.leaves_simd_backend > 0)
        std::cout << "backends: " << d.leaves_scalar_backend
                  << " scalar / " << d.leaves_simd_backend
                  << " simd leaves (vector isa: "
                  << sim::BackendRegistry::vector_isa() << ")\n";
    if (d.leaves_beyond_budget > 0 || d.leaves_pruned > 0 ||
        d.tree_depth > 1) {
        std::cout << "solve tree: depth " << d.tree_depth << ", "
                  << d.tree_nodes << " nodes, " << d.leaves_total
                  << " leaves (" << d.tasks_executed << " executed, "
                  << d.leaves_beyond_budget << " beyond budget, "
                  << d.leaves_pruned << " dominated)"
                  << (d.scheduler_scored ? ", SA-ranked" : "") << "\n";
    }
    if (d.reranks > 0) {
        std::cout << "adaptive re-rank: " << d.reranks << " re-rank"
                  << (d.reranks == 1 ? "" : "s") << " over " << d.epochs
                  << " epoch" << (d.epochs == 1 ? "" : "s") << " ("
                  << d.rerank_promoted << " promoted, "
                  << d.rerank_demoted << " demoted, " << d.rerank_pruned
                  << " pruned stale)\n";
    }
}

/** SolveTree controls shared by plan and solve. */
void
apply_tree_options(const Options& opts, frozenqubits::DriverConfig& config)
{
    config.max_depth = int_option(opts, "max-depth", 1);
    config.max_circuits = long_option(opts, "max-circuits", 0);
    config.partition_width = int_option(opts, "partition", 0);
    config.prune_dominated = opts.find("prune-dominated") != opts.end();
    // --rerank off (default) keeps the plan-time ranking final;
    // --rerank N re-ranks the un-dispatched tail every N folded leaves.
    const auto rerank = option(opts, "rerank", "off");
    config.rerank_interval =
        rerank == "off" ? 0 : long_option(opts, "rerank", 0);
    FQ_REQUIRE(rerank == "off" || config.rerank_interval >= 1,
               "--rerank expects a positive interval or 'off'");
    // --sparsify F: Red-QAOA edge sparsification — tune each leaf's
    // angles on a proxy keeping fraction F of its couplings (spanning
    // structure always retained); sampling and energies use the full
    // model. Off when omitted.
    config.sparsify_keep = double_option(opts, "sparsify", 0.0);
    FQ_REQUIRE(config.sparsify_keep >= 0.0 && config.sparsify_keep < 1.0,
               "--sparsify expects a keep fraction in [0, 1)");
}

/** Recursive tree printer: one line per node, indented by depth. */
void
print_tree_node(const engine::SolveTree& tree, int ni, int indent)
{
    const auto& node = tree.nodes[static_cast<std::size_t>(ni)];
    // Name comes from the kind-metadata table (engine/expander.h), so a
    // new expander prints correctly here without a new branch; only the
    // kind-specific annotations below need one.
    std::cout << std::string(static_cast<std::size_t>(indent) * 2, ' ')
              << "node " << node.index << " ["
              << engine::node_kind_info(node.kind).name << "] "
              << node.sub.model.num_spins() << " spins";
    if (node.kind == engine::NodeKind::Freeze) {
        std::cout << ", freezes {";
        for (std::size_t h = 0; h < node.plan.hotspots.size(); ++h)
            std::cout << (h ? "," : "") << "z"
                      << node.sub.original_of[static_cast<std::size_t>(
                             node.plan.hotspots[h])];
        std::cout << "} -> " << node.children.size() << " children";
    } else if (node.kind == engine::NodeKind::Partition) {
        std::cout << ", cut " << node.cut_edges << " edges (|J| "
                  << Table::num(node.cut_weight, 2) << ") -> "
                  << node.children.size() << " fragments";
    } else if (node.kind == engine::NodeKind::Sparsify) {
        std::cout << ", pruned " << node.cut_edges
                  << " proxy edges (|J| " << Table::num(node.cut_weight, 2)
                  << ") -> optimizer proxy";
    } else if (node.mirror_of >= 0) {
        std::cout << ", mirror of leaf " << node.mirror_of;
    } else {
        std::cout << ", leaf " << node.leaf_id;
    }
    std::cout << "\n";
    for (int child : node.children)
        print_tree_node(tree, child, indent + 1);
}

int
cmd_plan(const Options& opts)
{
    const auto model = load_model(opts);
    const auto dev = device::make_device(
        option(opts, "device", "ibm-montreal"));
    frozenqubits::DriverConfig config;
    config.seed = static_cast<std::uint64_t>(int_option(opts, "seed", 7));
    apply_tree_options(opts, config);
    resolve_freeze(opts, model, config);

    engine::TemplateCache cache;
    Rng rng(config.seed);
    const auto tree =
        engine::build_solve_tree(model, dev, config, cache, rng);
    const auto schedule =
        engine::make_schedule(model, tree, config, /*force_scoring=*/true);

    std::cout << "solve tree (depth " << config.max_depth << ", "
              << tree.nodes.size() << " nodes, "
              << tree.num_executable_leaves() << " executable leaves, "
              << tree.num_leaf_nodes() - tree.num_executable_leaves()
              << " mirrors):\n";
    print_tree_node(tree, 0, 0);

    std::cout << "\nclassical presolve: cost "
              << Table::num(schedule.presolve_cost, 3) << "\n";
    Table t("leaf schedule (best-first; SA score ranks, ties by leaf id)");
    const std::vector<std::string> header = {
        "rank", "leaf", "node", "arm",  "spins", "frozen",
        "SA score", "bound", "backend", "status"};
    t.set_header(header);
    int rank = 0;
    const auto add_leaf_row = [&](int leaf_id, const std::string& status) {
        const auto& leaf =
            tree.leaves[static_cast<std::size_t>(leaf_id)];
        const auto& node =
            tree.nodes[static_cast<std::size_t>(leaf.node)];
        const auto& score =
            schedule.scores[static_cast<std::size_t>(leaf_id)];
        // Arm glyph straight from the kind-metadata table — new node
        // kinds appear here with zero printer changes.
        const auto& arm =
            engine::node_kind_info(engine::leaf_arm_kind(tree, leaf_id));
        t.add_row({Table::num(++rank), Table::num(leaf_id),
                   Table::num(leaf.node), arm.glyph,
                   Table::num(node.sub.model.num_spins()),
                   Table::num(static_cast<int>(node.sub.frozen.size())),
                   Table::num(score.score, 3),
                   leaf.needs_repair ? "n/a" : Table::num(score.bound, 3),
                   leaf.fuse ? sim::backend_kind_name(leaf.backend) : "-",
                   status});
    };
    for (int leaf_id : schedule.executed)
        add_leaf_row(leaf_id, "execute");
    if (!schedule.beyond_budget.empty()) {
        // Generated from the header so a grown vocabulary (extra columns)
        // can never shear the cut line out of alignment again.
        std::vector<std::string> cut(header.size() - 1, "----");
        cut.push_back("budget cut (max-circuits=" +
                      Table::num(config.max_circuits) + ")");
        t.add_row(cut);
        for (int leaf_id : schedule.beyond_budget)
            add_leaf_row(leaf_id, "skip: beyond budget");
    }
    for (int leaf_id : schedule.pruned)
        add_leaf_row(leaf_id, "skip: dominated");
    t.print(std::cout);

    std::cout << "budget trace: " << schedule.executed.size()
              << " of " << tree.num_executable_leaves()
              << " leaves scheduled";
    if (config.max_circuits > 0)
        std::cout << " (max-circuits " << config.max_circuits << ")";
    std::cout << "\n";
    return 0;
}

/** Per-reduction-arm counter report (--stats): one row per node kind
 *  that planned any work, keyed by the metadata table's diagnostics key
 *  — so a new expander shows up here without printer changes. */
void
print_kind_stats(const engine::RequestCounters& d)
{
    Table t("reduction arms");
    t.set_header({"arm", "leaves executed", "leaves pruned",
                  "budget units"});
    for (const auto& info : engine::node_kind_table()) {
        const auto k = engine::node_kind_index(info.kind);
        const auto executed = d.kind_leaves_executed[k];
        const auto pruned = d.kind_leaves_pruned[k];
        const auto units = d.kind_budget_units[k];
        if (executed == 0 && pruned == 0 && units == 0)
            continue;
        t.add_row({info.diagnostics_key, Table::num(executed),
                   Table::num(pruned), Table::num(units)});
    }
    t.print(std::cout);
}

/** Compact per-arm executed split for one serve-batch row, e.g.
 *  "frz:6 spr:2" (glyphs from the kind-metadata table; "-" when the
 *  request ran nothing). */
std::string
format_kind_split(const std::array<int, engine::kNumNodeKinds>& executed)
{
    std::string out;
    for (const auto& info : engine::node_kind_table()) {
        const auto k = engine::node_kind_index(info.kind);
        if (executed[k] == 0)
            continue;
        if (!out.empty())
            out += " ";
        out += std::string(info.glyph) + ":" + Table::num(executed[k]);
    }
    return out.empty() ? "-" : out;
}

/** Template-cache counter report (--stats). */
void
print_cache_stats(const engine::ExecutionEngine& eng)
{
    const auto s = eng.template_cache().stats();
    Table t("template cache");
    t.set_header({"counter", "value"});
    t.add_row({"family lookups", Table::num(s.family_lookups)});
    t.add_row({"family hits", Table::num(s.family_hits)});
    t.add_row({"family misses", Table::num(s.family_misses())});
    t.add_row({"family structural compiles",
               Table::num(s.family_structural_compiles)});
    t.add_row({"family evictions", Table::num(s.family_evictions)});
    t.add_row({"structure bytes (shared)", Table::num(s.structure_bytes)});
    t.add_row({"resident bytes", Table::num(eng.template_cache().bytes())});
    t.print(std::cout);
}

std::vector<std::string>
split_list(const std::string& csv)
{
    std::vector<std::string> out;
    std::istringstream in(csv);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/**
 * --workers a,b,c: connect a WorkerPool over the engine's local executor
 * and install it behind the executor seam. Returns nullptr when the
 * option is absent (pure local execution). The pool must outlive every
 * solve on the engine — callers keep the unique_ptr on their stack.
 */
std::unique_ptr<net::WorkerPool>
attach_workers(const Options& opts, engine::ExecutionEngine& eng)
{
    const auto csv = option(opts, "workers", "");
    if (csv.empty())
        return nullptr;
    const auto addresses = split_list(csv);
    FQ_REQUIRE(!addresses.empty(),
               "--workers expects a comma-separated address list");
    auto pool = std::make_unique<net::WorkerPool>(
        eng.local_leaf_executor(), eng.num_threads(), addresses);
    eng.set_leaf_executor(pool.get());
    std::cout << "workers: attached " << pool->num_workers()
              << " remote worker(s)\n";
    return pool;
}

void
print_distributed(const engine::RequestCounters& d,
                  const net::WorkerPool& pool)
{
    std::cout << "distributed: " << d.leaves_remote << " remote / "
              << d.leaves_local << " local leaves";
    if (d.leaves_redispatched > 0)
        std::cout << " (" << d.leaves_redispatched
                  << " re-dispatched after worker death)";
    std::cout << " | " << d.remote_bytes_sent << " B out / "
              << d.remote_bytes_received << " B in | "
              << pool.live_workers() << "/" << pool.num_workers()
              << " workers live\n";
    for (const auto& [address, leaves] : d.worker_dispatches)
        std::cout << "  worker " << address << ": " << leaves
                  << " leaves dispatched\n";
}

int
cmd_run(const Options& opts)
{
    const auto model = load_model(opts);
    const auto dev = device::make_device(
        option(opts, "device", "ibm-montreal"));
    frozenqubits::DriverConfig config;
    resolve_freeze(opts, model, config);
    config.seed = static_cast<std::uint64_t>(int_option(opts, "seed", 7));
    config.threads = int_option(opts, "threads", 0);

    engine::ExecutionEngine eng(config.threads);
    const auto r = eng.run(model, dev, config);
    Table t("baseline vs FrozenQubits(m=" +
            Table::num(config.num_freeze) + ") on " + dev.name);
    t.set_header({"arm", "circuits", "CXs", "SWAPs", "depth", "EPS",
                  "EV ideal", "EV noisy", "ARG"});
    t.add_row({"baseline", "1", Table::num(r.baseline.post_routing_cx),
               Table::num(r.baseline.swaps), Table::num(r.baseline.depth),
               Table::num(r.baseline.eps, 4),
               Table::num(r.baseline.ev_ideal, 3),
               Table::num(r.baseline.ev_noisy, 3),
               Table::num(r.arg_baseline, 2)});
    t.add_row({"FrozenQubits", Table::num(r.num_executed),
               Table::num(r.executed[0].post_routing_cx),
               Table::num(r.executed[0].swaps),
               Table::num(r.executed[0].depth),
               Table::num(r.executed[0].eps, 4),
               Table::num(r.ev_ideal_fq, 3), Table::num(r.ev_noisy_fq, 3),
               Table::num(r.arg_fq, 2)});
    t.print(std::cout);
    std::cout << "fidelity improvement: "
              << Table::factor(r.improvement()) << "\n";
    print_wall_clock(eng);
    return 0;
}

int
cmd_solve(const Options& opts)
{
    const auto model = load_model(opts);
    const auto dev = device::make_device(
        option(opts, "device", "ibm-montreal"));
    frozenqubits::DriverConfig config;
    config.threads = int_option(opts, "threads", 0);
    config.seed = static_cast<std::uint64_t>(int_option(opts, "seed", 7));
    apply_tree_options(opts, config);
    resolve_freeze(opts, model, config);

    // Durability controls. A checkpoint file or a suspension point arms
    // snapshot boundaries (every folded leaf unless --checkpoint-every
    // widens them); --resume restarts from a snapshot written by an
    // earlier (possibly killed) invocation — the other options must match
    // that run's, which the restore fingerprint-checks.
    config.deadline_cost_units = long_option(opts, "deadline", 0);
    const auto checkpoint_path = option(opts, "checkpoint", "");
    const auto resume_path = option(opts, "resume", "");
    const long long suspend_after = long_option(opts, "suspend-after", 0);
    const bool durable = !checkpoint_path.empty() || suspend_after > 0;
    config.checkpoint_interval =
        long_option(opts, "checkpoint-every", durable ? 1 : 0);
    const int shots = int_option(opts, "shots", 8192);

    engine::CheckpointSink sink;
    if (durable)
        sink = [&](const engine::SolveCheckpoint& snapshot) {
            if (!checkpoint_path.empty())
                engine::write_checkpoint_file(checkpoint_path, snapshot);
            // --suspend-after K: stop once K leaves folded; the snapshot
            // just written resumes the remainder.
            return suspend_after <= 0 ||
                   snapshot.cursor <
                       static_cast<std::uint64_t>(suspend_after);
        };

    engine::ExecutionEngine eng(config.threads);
    const auto pool = attach_workers(opts, eng);
    frozenqubits::SampledSolve solved;
    if (!resume_path.empty()) {
        const auto snapshot =
            engine::read_checkpoint_file(resume_path);
        solved = eng.resume(model, dev, config, shots, snapshot, sink);
        std::cout << "resumed from checkpoint " << resume_path
                  << " (cursor " << snapshot.cursor << ")\n";
    } else {
        solved = eng.solve(model, dev, config, shots, config.seed, sink);
    }
    // Plan-vs-adaptive trace: the engine snapshots the plan-time order
    // before any re-rank rewrites the tail.
    if (!eng.last_diagnostics().planned_subproblems.empty()) {
        std::cout << "schedule trace (plan -> adaptive):\n  plan:    ";
        for (int id : eng.last_diagnostics().planned_subproblems)
            std::cout << " " << id;
        std::cout << "\n  adaptive:";
        for (int id : eng.last_diagnostics().executed_subproblems)
            std::cout << " " << id;
        std::cout << "\n";
    }
    std::cout << "best cost: " << solved.best_cost << " ("
              << (solved.from_subproblem < 0
                      ? std::string("classical presolve")
                      : "sub-problem " + Table::num(solved.from_subproblem))
              << ")\n";
    if (solved.from_subproblem < 0)
        std::cout << "quantum decode: " << solved.best_quantum_cost
                  << " (sub-problem " << solved.best_quantum_leaf << ")\n";
    std::cout << "assignment: ";
    for (auto z : solved.best_assignment)
        std::cout << (z > 0 ? '+' : '-');
    std::cout << "\n";
    if (!solved.anytime.empty()) {
        std::cout << "anytime quality (circuits -> incumbent cost):";
        for (const auto& point : solved.anytime)
            std::cout << "  " << point.circuits << " -> "
                      << Table::num(point.incumbent_cost, 3);
        std::cout << "\n";
    }
    if (solved.degraded)
        std::cout << "degraded: anytime incumbent ("
                  << (solved.deadline_trimmed > 0
                          ? Table::num(solved.deadline_trimmed) +
                                " leaves trimmed by the deadline"
                          : std::string("suspended mid-schedule"))
                  << ")\n";
    const auto& diag = eng.last_diagnostics();
    if (diag.checkpoints > 0 || diag.resumed_from >= 0)
        std::cout << "durability: " << diag.checkpoints
                  << " checkpoints written, resumed from "
                  << (diag.resumed_from < 0
                          ? std::string("-")
                          : "cursor " + Table::num(diag.resumed_from))
                  << "\n";
    print_wall_clock(eng);
    if (pool)
        print_distributed(diag, *pool);
    if (opts.find("stats") != opts.end()) {
        print_kind_stats(diag);
        print_cache_stats(eng);
    }
    return 0;
}

/** One parsed trace line of a serve-batch replay. */
struct TraceRequest
{
    std::string model_file;
    std::string device;
    frozenqubits::DriverConfig config;
    int shots = 4096;
    std::uint64_t seed = 7;
    /** migrate=K: suspend at the first checkpoint boundary with K or more
     *  leaves folded, then resume the remainder via submit_resume. */
    long long migrate_after = 0;
    ising::IsingModel model;
};

std::vector<TraceRequest>
load_trace(const std::string& path, const Options& opts)
{
    std::ifstream in(path);
    FQ_REQUIRE(in.good(), "cannot open trace " + path);
    const auto default_device = option(opts, "device", "ibm-montreal");
    const int default_shots = int_option(opts, "shots", 4096);

    std::vector<TraceRequest> requests;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream tokens(line);
        TraceRequest req;
        if (!(tokens >> req.model_file))
            continue; // blank / comment-only line
        req.device = default_device;
        req.shots = default_shots;

        const std::string where =
            " (trace line " + Table::num(lineno) + ")";
        std::string tok;
        while (tokens >> tok) {
            const auto eq = tok.find('=');
            FQ_REQUIRE(eq != std::string::npos && eq > 0,
                       "expected key=value, got '" + tok + "'" + where);
            const auto key = tok.substr(0, eq);
            const auto value = tok.substr(eq + 1);
            if (key == "device") { // non-numeric value
                req.device = value;
                continue;
            }
            if (!listed("freeze shots seed max-depth max-circuits partition "
                        "wave-share rerank deadline sparsify checkpoint "
                        "migrate workers",
                        key))
                throw Error("unknown trace key '" + key + "'" + where);
            long long parsed = 0;
            try {
                std::size_t consumed = 0;
                parsed = std::stoll(value, &consumed);
                FQ_REQUIRE(consumed == value.size(),
                           key + " expects an integer, got '" + value +
                               "'" + where);
            } catch (const std::logic_error&) {
                FQ_REQUIRE(false, key + " expects an integer, got '" +
                                      value + "'" + where);
            }
            if (key == "freeze")
                req.config.num_freeze = static_cast<int>(parsed);
            else if (key == "shots")
                req.shots = static_cast<int>(parsed);
            else if (key == "seed")
                req.seed = static_cast<std::uint64_t>(parsed);
            else if (key == "max-depth")
                req.config.max_depth = static_cast<int>(parsed);
            else if (key == "max-circuits")
                req.config.max_circuits = parsed;
            else if (key == "partition")
                req.config.partition_width = static_cast<int>(parsed);
            else if (key == "wave-share")
                req.config.wave_share = static_cast<int>(parsed);
            else if (key == "rerank") {
                FQ_REQUIRE(parsed >= 0, "rerank expects a non-negative "
                                        "interval (0 = off)" +
                                            where);
                req.config.rerank_interval = parsed;
            } else if (key == "deadline") {
                FQ_REQUIRE(parsed >= 0, "deadline expects a non-negative "
                                        "cost budget (0 = off)" +
                                            where);
                req.config.deadline_cost_units = parsed;
            } else if (key == "sparsify") {
                // Integer percent (trace values are all integers):
                // sparsify=50 keeps half the couplings in each leaf's
                // optimizer proxy; 0 = off.
                FQ_REQUIRE(parsed >= 0 && parsed < 100,
                           "sparsify expects a keep percentage in "
                           "[0, 100)" +
                               where);
                req.config.sparsify_keep =
                    static_cast<double>(parsed) / 100.0;
            } else if (key == "checkpoint") {
                FQ_REQUIRE(parsed >= 0, "checkpoint expects a non-negative "
                                        "interval (0 = off)" +
                                            where);
                req.config.checkpoint_interval = parsed;
            } else if (key == "migrate") {
                FQ_REQUIRE(parsed > 0,
                           "migrate expects a positive fold count" + where);
                req.migrate_after = parsed;
            } else if (key == "workers") {
                // workers=0 pins this tenant's leaves to the local arm
                // even when --workers attached a pool.
                req.config.allow_remote = parsed != 0;
            }
        }
        req.config.seed = req.seed;

        std::ifstream model_in(req.model_file);
        FQ_REQUIRE(model_in.good(),
                   "cannot open model " + req.model_file + where);
        req.model = ising::read_model(model_in);
        requests.push_back(std::move(req));
    }
    FQ_REQUIRE(!requests.empty(), "trace has no requests: " + path);
    return requests;
}

int
cmd_serve_batch(const Options& opts)
{
    const auto trace_path = option(opts, "trace", "");
    FQ_REQUIRE(!trace_path.empty(), "serve-batch needs --trace FILE");
    auto requests = load_trace(trace_path, opts);

    engine::ExecutionEngine eng(int_option(opts, "threads", 0));
    const auto pool = attach_workers(opts, eng);
    const bool serial = opts.find("serial") != opts.end();
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();

    Table t(std::string(serial ? "serial replay" : "batched replay") + " (" +
            Table::num(requests.size()) + " requests, " +
            Table::num(eng.num_threads()) + " threads)");
    if (serial) {
        t.set_header({"req", "model", "leaves", "best cost", "from"});
        for (std::size_t k = 0; k < requests.size(); ++k) {
            auto& req = requests[k];
            const auto dev = device::make_device(req.device);
            const auto solved =
                eng.solve(req.model, dev, req.config, req.shots, req.seed);
            t.add_row({Table::num(k + 1), req.model_file,
                       Table::num(solved.leaves_executed),
                       Table::num(solved.best_cost, 3),
                       solved.from_subproblem < 0
                           ? std::string("presolve")
                           : "leaf " + Table::num(solved.from_subproblem)});
        }
        t.print(std::cout);
    } else {
        engine::SolveService::Config service_config;
        service_config.wave_size = int_option(opts, "wave-size", 0);
        service_config.max_queue_depth = int_option(opts, "queue-depth", 0);
        engine::SolveService service(eng, service_config);

        // migrate=K slots: the assembler thread writes each suspended
        // request's snapshot here (one writer), the main thread reads it
        // only after drain() — no lock needed.
        std::vector<std::unique_ptr<engine::SolveCheckpoint>> snapshots(
            requests.size());

        std::vector<engine::SolveService::Ticket> tickets;
        tickets.reserve(requests.size());
        int rejected = 0;
        for (std::size_t k = 0; k < requests.size(); ++k) {
            auto& req = requests[k];
            engine::SolveService::CheckpointCallback on_checkpoint;
            if (req.migrate_after > 0) {
                if (req.config.checkpoint_interval <= 0)
                    req.config.checkpoint_interval = 1;
                auto* slot = &snapshots[k];
                const auto after =
                    static_cast<std::uint64_t>(req.migrate_after);
                on_checkpoint =
                    [slot, after](std::uint64_t,
                                  const engine::SolveCheckpoint& ck) {
                        if (ck.cursor < after)
                            return true;
                        *slot = std::make_unique<engine::SolveCheckpoint>(
                            ck);
                        return false; // suspend; resumed after drain
                    };
            }
            try {
                tickets.push_back(
                    service.submit(req.model,
                                   device::make_device(req.device),
                                   req.config, req.shots, req.seed,
                                   nullptr, std::move(on_checkpoint)));
            } catch (const engine::DeadlineError& e) {
                // deadline=D projected this request past its budget.
                ++rejected;
                tickets.emplace_back();
                std::cout << "deadline-rejected: " << req.model_file
                          << " — " << e.what() << "\n";
            } catch (const engine::AdmissionError& e) {
                // Admission control (--queue-depth) shed this request;
                // report it instead of aborting the replay.
                ++rejected;
                tickets.emplace_back();
                std::cout << "rejected: " << req.model_file << " — "
                          << e.what() << "\n";
            }
        }
        service.drain();

        // Migration phase: resume every suspended request from its
        // captured snapshot on the same service (same engine, fresh
        // request id) and let the resumed remainder drain.
        std::vector<std::pair<std::size_t, engine::SolveService::Ticket>>
            resumed;
        for (std::size_t k = 0; k < requests.size(); ++k) {
            if (!snapshots[k])
                continue;
            auto& req = requests[k];
            resumed.emplace_back(
                k, service.submit_resume(req.model,
                                         device::make_device(req.device),
                                         req.config, req.shots,
                                         *snapshots[k]));
        }
        if (!resumed.empty())
            service.drain();

        t.set_header({"req", "model", "leaves", "arms", "workers",
                      "best cost", "from", "waves", "occupancy", "reranks",
                      "queue ms", "wall ms"});
        std::map<std::string, long long> worker_totals;
        for (std::size_t k = 0; k < tickets.size(); ++k) {
            auto& ticket = tickets[k];
            if (ticket.id() == 0) { // shed by admission control
                t.add_row({Table::num(k + 1), requests[k].model_file, "-",
                           "-", "-", "-", "rejected", "-", "-", "-", "-",
                           "-"});
                continue;
            }
            // Diagnostics are FIFO-retained (~4k most recent); on a huge
            // trace the oldest rows fall back to dashes rather than
            // aborting the whole report.
            engine::SolveService::TenantDiagnostics diag;
            bool have_diag = true;
            try {
                diag = service.diagnostics(ticket.id());
            } catch (const fq::Error&) {
                have_diag = false;
            }
            std::string best = "FAILED", from = "-";
            try {
                const auto solved = ticket.get();
                best = Table::num(solved.best_cost, 3);
                from = solved.from_subproblem < 0
                           ? std::string("presolve")
                           : "leaf " + Table::num(solved.from_subproblem);
                if (solved.degraded)
                    from += snapshots[k] ? " [suspended]" : " [degraded]";
            } catch (const fq::Error& e) {
                from = e.what();
            }
            if (have_diag) {
                for (const auto& [address, leaves] : diag.worker_dispatches)
                    worker_totals[address] += leaves;
                t.add_row({Table::num(k + 1), requests[k].model_file,
                           Table::num(diag.leaves_executed) + "/" +
                               Table::num(diag.leaves_scheduled),
                           format_kind_split(diag.kind_leaves_executed),
                           pool ? Table::num(diag.leaves_remote) + "/" +
                                      Table::num(diag.leaves_local)
                                : std::string("-"),
                           best, from, Table::num(diag.waves),
                           Table::num(diag.wave_occupancy, 2),
                           Table::num(diag.reranks),
                           Table::num(diag.queue_latency_ms, 1),
                           Table::num(diag.wall_ms, 1)});
            } else
                t.add_row({Table::num(k + 1), requests[k].model_file, "-",
                           "-", "-", best, from, "-", "-", "-", "-", "-"});
        }
        t.print(std::cout);

        for (auto& [k, ticket] : resumed) {
            std::string best = "FAILED";
            int cursor = static_cast<int>(snapshots[k]->cursor);
            try {
                best = Table::num(ticket.get().best_cost, 3);
            } catch (const fq::Error& e) {
                best = e.what();
            }
            std::cout << "migrated: req " << (k + 1) << " ("
                      << requests[k].model_file << ") suspended at cursor "
                      << cursor << ", resumed as request "
                      << ticket.id() << " -> best cost " << best << "\n";
        }

        const auto stats = service.stats();
        std::cout << "service: " << stats.requests_completed << " completed, "
                  << stats.requests_failed << " failed, " << rejected
                  << " rejected | "
                  << stats.waves_executed << " waves, "
                  << Table::num(stats.waves_executed == 0
                                    ? 0.0
                                    : static_cast<double>(stats.wave_slots) /
                                          static_cast<double>(
                                              stats.waves_executed),
                                1)
                  << " leaves/wave, pool fill "
                  << Table::num(stats.mean_pool_fill, 2) << "\n";
        if (pool) {
            std::cout << "workers: " << pool->live_workers() << "/"
                      << pool->num_workers() << " live";
            for (const auto& [address, leaves] : worker_totals)
                std::cout << " | " << address << " " << leaves << " leaves";
            std::cout << "\n";
        }
    }

    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    std::cout << "replayed " << requests.size() << " requests in "
              << Table::num(wall_ms, 1) << " ms ("
              << Table::num(1000.0 * static_cast<double>(requests.size()) /
                                wall_ms,
                            2)
              << " solves/s)\n";
    if (opts.find("stats") != opts.end())
        print_cache_stats(eng);
    return 0;
}

int
cmd_worker(const Options& opts)
{
    const auto listen = option(opts, "listen", "");
    FQ_REQUIRE(!listen.empty(),
               "worker needs --listen unix:/path.sock or host:port");
    net::WorkerServer::Options wopts;
    wopts.threads = int_option(opts, "threads", 1);
    // Fault injection for tests/CI: crash mid-batch after N leaves.
    wopts.die_after_leaves = long_option(opts, "die-after", 0);
    net::WorkerServer server(listen, wopts);
    std::cout << "fqtool worker: listening on " << listen << " ("
              << server.num_threads() << " executor thread"
              << (server.num_threads() == 1 ? "" : "s") << ")"
              << std::endl; // flush: CI waits for this readiness line
    server.run();
    return 0;
}

int
cmd_devices(const Options&)
{
    Table t("device catalog");
    t.set_header({"name", "qubits", "couplings", "avg CX error",
                  "avg readout error"});
    for (const auto& name : device::ibm_device_names()) {
        const auto dev = device::make_device(name);
        t.add_row({name, Table::num(dev.num_qubits()),
                   Table::num(dev.topology.num_couplings()),
                   Table::num(dev.calibration.average_cx_error(), 4),
                   Table::num(dev.calibration.average_readout_error(), 4)});
    }
    t.print(std::cout);
    return 0;
}

int
usage()
{
    std::cerr <<
        "usage: fqtool <command> [options]\n"
        "  generate --class ba1|ba2|ba3|3reg|sk --n N [--seed S]\n"
        "  analyze  [--file F]\n"
        "  run      [--file F] --device NAME [--freeze M|auto] [--seed S]\n"
        "           [--threads T]\n"
        "  plan     [--file F] --device NAME [--freeze M|auto] [--seed S]\n"
        "           [--max-depth D] [--max-circuits B] [--partition W]\n"
        "           [--sparsify F] [--prune-dominated] [--rerank N|off]\n"
        "  solve    [--file F] --device NAME [--freeze M|auto] [--shots K]\n"
        "           [--seed S] [--threads T] [--max-depth D]\n"
        "           [--max-circuits B] [--partition W] [--sparsify F]\n"
        "           [--prune-dominated] [--rerank N|off]\n"
        "           [--deadline D] [--checkpoint FILE] [--checkpoint-every N]\n"
        "           [--resume FILE] [--suspend-after K] [--stats]\n"
        "           [--workers a,b,c]\n"
        "  serve-batch --trace FILE [--device NAME] [--threads T]\n"
        "           [--wave-size W] [--queue-depth D] [--shots K]\n"
        "           [--serial] [--stats] [--workers a,b,c]\n"
        "           trace keys: freeze shots seed device max-depth\n"
        "           max-circuits partition sparsify wave-share rerank\n"
        "           deadline checkpoint migrate workers\n"
        "  worker   --listen unix:/path.sock|host:port [--threads T]\n"
        "  devices\n"
        "  (--freeze auto also takes --budget B; any other option is an\n"
        "  error)\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    // Keys every command that builds a solve tree shares.
    const std::string tree = "file device freeze budget seed max-depth "
                             "max-circuits partition rerank sparsify";
    const std::vector<Command> commands = {
        {"generate", cmd_generate, "class n seed", ""},
        {"analyze", cmd_analyze, "file", ""},
        {"run", cmd_run, "file device freeze budget seed threads", ""},
        {"plan", cmd_plan, tree, "prune-dominated"},
        {"solve", cmd_solve,
         tree + " threads shots deadline checkpoint checkpoint-every "
                "resume suspend-after workers",
         "prune-dominated stats"},
        {"serve-batch", cmd_serve_batch,
         "trace device shots threads wave-size queue-depth workers",
         "serial stats"},
        {"worker", cmd_worker, "listen threads die-after", ""},
        {"devices", cmd_devices, "", ""},
    };
    try {
        for (const auto& cmd : commands)
            if (command == cmd.name)
                return cmd.run(parse_options(argc, argv, 2, cmd));
        return usage();
    } catch (const fq::Error& e) {
        std::cerr << "fqtool: " << e.what() << "\n";
        return 1;
    }
}
