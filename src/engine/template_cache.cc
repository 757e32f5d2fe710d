#include "engine/template_cache.h"

#include <cstring>

#include "common/rng.h"

namespace fq::engine {

namespace {

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    return combine_seeds(h, v);
}

std::uint64_t
mix_double(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return mix(h, bits);
}

/** Salt for the family verification fingerprint (independent hash
 *  chain). */
constexpr std::uint64_t kVerifySalt = 0x5bf0f5163ad2ab1dull;

/** Rough per-template footprint: the transpile's scalars, the layout and
 *  noise vectors (the routed gate list is not kept). Feeds the --stats
 *  byte report and the family byte budget. */
std::size_t
template_entry_bytes(const CompiledTemplate& tpl)
{
    std::size_t bytes = sizeof(CompiledTemplate);
    bytes += tpl.compiled.final_layout.size() * sizeof(int);
    bytes += tpl.readout_flip.size() * sizeof(double);
    return bytes;
}

/** Byte budget for family structures. These hold transpile metrics,
 *  layouts and noise arrays, never gate lists or 2^n tables. */
constexpr std::size_t kMaxFamilyBytes = std::size_t(64) << 20;

/** Per-logical-qubit readout-flip probabilities under @p compiled's
 *  final placement. */
std::vector<double>
readout_flip_for(const transpiler::CompileResult& compiled,
                 const device::Calibration& calibration, int num_spins)
{
    std::vector<double> flip(static_cast<std::size_t>(num_spins));
    for (int q = 0; q < num_spins; ++q) {
        flip[static_cast<std::size_t>(q)] =
            calibration
                .qubit(compiled.final_layout[static_cast<std::size_t>(q)])
                .readout_error;
    }
    return flip;
}

} // namespace

std::uint64_t
device_fingerprint(const device::Device& dev, std::uint64_t salt)
{
    // The compile output depends on the coupling map (routing) and the full
    // calibration (noise-adaptive layout, durations -> metrics), so all of
    // it goes into the key — the name alone cannot alias two structurally
    // different devices. O(N + E) per lookup, noise against a
    // millisecond-scale transpiler run.
    std::uint64_t h = mix(hash_seed(dev.name), salt);
    h = mix(h, static_cast<std::uint64_t>(dev.num_qubits()));
    for (const auto& edge : dev.topology.coupling_graph().edges()) {
        h = mix(h, static_cast<std::uint64_t>(edge.u));
        h = mix(h, static_cast<std::uint64_t>(edge.v));
        h = mix_double(h, dev.calibration.cx_error(edge.u, edge.v));
    }
    for (int q = 0; q < dev.calibration.num_qubits(); ++q) {
        const auto& p = dev.calibration.qubit(q);
        h = mix_double(h, p.t1_us);
        h = mix_double(h, p.t2_us);
        h = mix_double(h, p.readout_error);
        h = mix_double(h, p.sq_error);
    }
    const auto& d = dev.calibration.durations();
    h = mix_double(h, d.single_qubit_ns);
    h = mix_double(h, d.cx_ns);
    h = mix_double(h, d.measure_ns);
    h = mix_double(h, dev.calibration.crosstalk_kappa());
    return h;
}

std::uint64_t
topology_fingerprint(const ising::IsingModel& model, std::uint64_t salt)
{
    std::uint64_t h = mix(hash_seed("fq-topology"), salt);
    h = mix(h, static_cast<std::uint64_t>(model.num_spins()));
    for (const auto& term : model.quadratic_terms()) {
        h = mix(h, static_cast<std::uint64_t>(term.i));
        h = mix(h, static_cast<std::uint64_t>(term.j));
    }
    return h;
}

std::uint64_t
template_key(const ising::IsingModel& model, const device::Device& dev,
             const transpiler::CompileOptions& compile,
             const qaoa::BuildOptions& build, std::uint64_t salt)
{
    std::uint64_t h = topology_fingerprint(model, salt);
    h = mix(h, device_fingerprint(dev, salt));
    h = mix(h, static_cast<std::uint64_t>(compile.layout));
    h = mix(h, static_cast<std::uint64_t>(compile.router.lookahead));
    h = mix_double(h, compile.router.lookahead_weight);
    h = mix_double(h, compile.router.decay);
    h = mix(h, compile.router.seed);
    h = mix(h, (compile.structure_only ? 4u : 0u) |
                   (compile.run_optimization_passes ? 2u : 0u) |
                   (compile.decompose_swaps ? 1u : 0u));
    h = mix(h, static_cast<std::uint64_t>(build.num_layers));
    h = mix(h, (build.include_measurements ? 2u : 0u) |
                   (build.keep_zero_linear_rz ? 1u : 0u));
    // Without keep_zero_linear_rz the builder emits an RZ only for nonzero
    // h_i, so the compiled structure depends on WHICH linear terms are
    // nonzero — that pattern must distinguish keys (with the flag set,
    // every spin gets a slot and the pattern is irrelevant).
    if (!build.keep_zero_linear_rz) {
        std::uint64_t pattern = 0;
        int bit = 0;
        for (double hi : model.linear_terms()) {
            pattern = (pattern << 1) | (hi != 0.0 ? 1u : 0u);
            if (++bit == 64) {
                h = mix(h, pattern);
                pattern = 0;
                bit = 0;
            }
        }
        h = mix(h, pattern);
    }
    return h;
}

bool
ParametricTemplate::matches(const ising::IsingModel& model) const
{
    if (model.num_spins() != num_spins)
        return false;
    const auto& terms = model.quadratic_terms();
    if (terms.size() != quadratic_pairs.size())
        return false;
    for (std::size_t t = 0; t < terms.size(); ++t) {
        if (terms[t].i != quadratic_pairs[t].first ||
            terms[t].j != quadratic_pairs[t].second)
            return false;
    }
    // Without keep_zero_linear_rz the compiled structure depends on which
    // h_i are nonzero; a member whose pattern differs is a different
    // structure.
    if (!linear_present.empty()) {
        for (int i = 0; i < num_spins; ++i) {
            if ((model.linear(i) != 0.0) !=
                static_cast<bool>(linear_present[static_cast<std::size_t>(i)]))
                return false;
        }
    }
    return true;
}

std::size_t
ParametricTemplate::bytes() const
{
    std::size_t total = sizeof(ParametricTemplate);
    total += quadratic_pairs.capacity() * sizeof(std::pair<int, int>);
    total += linear_present.capacity() / 8;
    if (structural)
        total += template_entry_bytes(*structural);
    return total;
}

TemplateCache::TemplateCache() : family_byte_budget_(kMaxFamilyBytes) {}

std::shared_ptr<const sim::FusedProgram>
TemplateCache::get_or_fuse(const ising::IsingModel& model,
                           const qaoa::BuildOptions& build, bool* was_hit,
                           const ParametricTemplate* /*family*/,
                           TemplateTier* tier)
{
    if (was_hit)
        *was_hit = false;
    if (tier)
        *tier = TemplateTier::Compile;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.family_binds;
    }
    // Built OUTSIDE the lock: every sibling carries its own coefficients,
    // so the O(2^n) table builds of a wave's leaves run in parallel.
    return std::make_shared<const sim::FusedProgram>(
        sim::FusedProgram::from_model(model, build.num_layers));
}

TemplateCache::FamilyBinding
TemplateCache::get_or_bind(const ising::IsingModel& model,
                           const device::Device& dev,
                           const transpiler::CompileOptions& compile,
                           const qaoa::BuildOptions& build)
{
    // Family structures are always compiled in structure-only mode so an
    // entry is canonical: bit-identical no matter which member instance
    // paid the structural compile.
    transpiler::CompileOptions structural_opts = compile;
    structural_opts.structure_only = true;

    const std::uint64_t labeled =
        template_key(model, dev, structural_opts, build);
    const std::uint64_t verify =
        template_key(model, dev, structural_opts, build, kVerifySalt);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.family_lookups;
        const auto it = families_.find(labeled);
        if (it != families_.end() && it->second.serves(verify, model)) {
            ++stats_.family_hits;
            return {it->second.value, TemplateTier::Bind};
        }
    }

    // Structural compile OUTSIDE the lock: build the circuit once,
    // transpile it structure-only and derive its noise quantities (all
    // angle-independent).
    auto family = std::make_shared<ParametricTemplate>();
    family->num_spins = model.num_spins();
    const auto& quadratic = model.quadratic_terms();
    family->quadratic_pairs.reserve(quadratic.size());
    for (const auto& term : quadratic)
        family->quadratic_pairs.emplace_back(term.i, term.j);
    if (!build.keep_zero_linear_rz) {
        family->linear_present.resize(
            static_cast<std::size_t>(model.num_spins()));
        for (int i = 0; i < model.num_spins(); ++i)
            family->linear_present[static_cast<std::size_t>(i)] =
                model.linear(i) != 0.0;
    }

    const auto logical = qaoa::build_qaoa_circuit(model, build);
    auto structural = std::make_shared<CompiledTemplate>();
    structural->compiled = transpiler::compile(logical, dev, structural_opts);
    structural->attenuation = sim::compute_attenuation(
        structural->compiled.physical, dev.calibration);
    structural->eps = sim::expected_probability_of_success(
        structural->compiled.physical, dev.calibration);
    structural->readout_flip = readout_flip_for(
        structural->compiled, dev.calibration, model.num_spins());
    structural->compiled.physical =
        circuit::Circuit(structural->compiled.physical.num_qubits());
    family->structural = structural;

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.family_structural_compiles;
    const auto it = families_.find(labeled);
    if (it != families_.end()) {
        // Lost the race: share the winner's structure, but report tier
        // Compile, since this caller paid a full structural compile. A
        // labeled-key collision with another structure is served
        // uncached.
        return {it->second.serves(verify, model) ? it->second.value
                                                 : family,
                TemplateTier::Compile};
    }
    const std::size_t family_entry_bytes = family->bytes();
    family_bytes_ += family_entry_bytes;
    if (family_bytes_ > family_byte_budget_) {
        stats_.family_evictions += families_.size();
        families_.clear();
        family_bytes_ = family_entry_bytes;
    }
    families_.emplace(labeled,
                      FamilyVariant{verify, family_entry_bytes, family});
    return {family, TemplateTier::Compile};
}

void
TemplateCache::set_family_byte_budget(std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    family_byte_budget_ = bytes;
}

TemplateCache::Stats
TemplateCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.structure_bytes = family_bytes_;
    return out;
}

std::size_t
TemplateCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return family_bytes_;
}

void
TemplateCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    families_.clear();
    family_bytes_ = 0;
}

} // namespace fq::engine
