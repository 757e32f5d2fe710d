/**
 * @file
 * Compile-once template cache (Section 3.7.1 made persistent).
 *
 * All 2^m siblings of one freeze share a quadratic structure, so their
 * compiled circuits are identical up to RZ angles; one transpiler run
 * serves them all via edit_template. This cache extends that sharing
 * across engine invocations: it holds one structure-only compile per
 * labeled structure (get_or_bind) — keyed on (model topology, device
 * identity, compile + build options), everything the transpiler's output
 * structurally depends on, and nothing it doesn't (coefficient VALUES are
 * excluded on purpose; they only move RZ angles). Nothing per value is
 * kept: get_or_fuse builds each leaf's fused program straight from its
 * model and hands it to the caller, which drops it when done.
 *
 * Devices are fingerprinted structurally — name, coupling map, and full
 * calibration — so hand-built devices that alias on a name can never be
 * served each other's compiles.
 *
 * Thread-safe; lookups that miss compile OUTSIDE the lock (concurrent
 * misses on distinct keys never serialize — the multi-tenant planning
 * path), with a first-insert-wins race resolution so concurrent requests
 * for the same key still end up sharing one entry.
 */
#ifndef FQ_ENGINE_TEMPLATE_CACHE_H
#define FQ_ENGINE_TEMPLATE_CACHE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "device/catalog.h"
#include "ising/ising_model.h"
#include "qaoa/qaoa_builder.h"
#include "sim/noise_model.h"
#include "sim/qaoa_kernel.h"
#include "transpiler/pipeline.h"

namespace fq::engine {

/** Stable fingerprint of a model's quadratic structure (not its values).
 *  @p salt varies the whole hash chain (for independent verification
 *  fingerprints). */
std::uint64_t topology_fingerprint(const ising::IsingModel& model,
                                   std::uint64_t salt = 0);

/** Stable fingerprint of a device: name, coupling map, calibration. */
std::uint64_t device_fingerprint(const device::Device& dev,
                                 std::uint64_t salt = 0);

/** Stable fingerprint of the full cache key. */
std::uint64_t template_key(const ising::IsingModel& model,
                           const device::Device& dev,
                           const transpiler::CompileOptions& compile,
                           const qaoa::BuildOptions& build,
                           std::uint64_t salt = 0);

/** How a family lookup (get_or_bind) was satisfied. */
enum class TemplateTier : std::uint8_t {
    Compile, ///< this lookup paid the structure-only compile
    Bind,    ///< family structure resident; nothing compiled
};

/**
 * One cached template: the transpile result plus every noise quantity
 * that is a pure function of (circuit structure, device) — all shared
 * verbatim by the template's RZ-angle-edited siblings, so computing them
 * once here amortizes them across tasks AND across engine invocations.
 */
struct CompiledTemplate
{
    /** Metrics, layouts and routing counts of the transpile. The cache
     *  derives the noise quantities below from the routed gate list and
     *  then drops it (`compiled.physical` keeps only its width): nothing
     *  reads the gates again, and they were most of an entry's bytes. */
    transpiler::CompileResult compiled;
    sim::NoiseAttenuation attenuation;
    double eps = 0.0; ///< expected probability of success
    /** Readout-flip probability per logical qubit (final placement). */
    std::vector<double> readout_flip;
};

/**
 * Family-level structural artifact: everything the compile pipeline
 * produces that depends on structure but not on coefficient VALUES,
 * computed once per (graph family, p, width, device) and shared by every
 * member instance: the structure-only transpiled template, noise
 * quantities included (all angle-independent).
 */
struct ParametricTemplate
{
    /// @name Exact labeled structure (bind safety; hash-independent)
    /// @{
    int num_spins = 0;
    std::vector<std::pair<int, int>> quadratic_pairs;
    /** Nonzero-linear pattern; used only when the build omits zero-h RZs
     *  (the compiled structure then depends on WHICH h_i are nonzero). */
    std::vector<bool> linear_present;
    /// @}

    /** Structure-only compile result + noise quantities. */
    std::shared_ptr<const CompiledTemplate> structural;

    /** True when @p model has exactly this labeled structure. O(E). */
    bool matches(const ising::IsingModel& model) const;
    /** Estimated shared-structure footprint (charged once per family). */
    std::size_t bytes() const;
};

class TemplateCache
{
  public:
    TemplateCache();

    /** Cumulative counters (monotone; never reset), plus a snapshot of
     *  the current byte residency. */
    struct Stats
    {
        /** Never incremented: every template compiles through the family
         *  tier (family_structural_compiles). Kept only because perfbench
         *  reads it. */
        std::uint64_t compiles = 0;
        /** Family-tier counters (get_or_bind lookups). */
        std::uint64_t family_lookups = 0;
        /** Lookups served by a resident family structure. */
        std::uint64_t family_hits = 0;
        /** Structure-only compiles (transpile + noise quantities), once
         *  per labeled structure per family. */
        std::uint64_t family_structural_compiles = 0;
        /** Fused programs get_or_fuse built (one per call). */
        std::uint64_t family_binds = 0;
        /** Family structures dropped by the byte-budget reset. */
        std::uint64_t family_evictions = 0;

        /** Byte residency snapshot (filled by stats()): shared family
         *  structure, charged ONCE per labeled structure no matter how
         *  many binds it serves. Equal to bytes(). */
        std::size_t structure_bytes = 0;

        std::uint64_t family_misses() const
        {
            return family_lookups - family_hits;
        }
    };

    /** get_or_bind result: the family artifact plus how this lookup was
     *  satisfied (Bind = structure resident / coefficients to patch,
     *  Compile = this call paid the structural compile). */
    struct FamilyBinding
    {
        std::shared_ptr<const ParametricTemplate> family;
        TemplateTier tier = TemplateTier::Compile;
    };

    /**
     * Build the fused-simulation program of @p model's QAOA circuit with
     * build.num_layers layers (sim::FusedProgram::from_model; no other
     * build option changes it). The program belongs to the caller:
     * nothing is stored, so the 2^n tables live exactly as long as the
     * leaf that uses them.
     *
     * @p was_hit, @p family and @p tier are placeholders kept for source
     * compatibility with perfbench: @p family is ignored, and when
     * non-null @p was_hit is set to false and @p tier to Compile.
     */
    std::shared_ptr<const sim::FusedProgram>
    get_or_fuse(const ising::IsingModel& model,
                const qaoa::BuildOptions& build, bool* was_hit = nullptr,
                const ParametricTemplate* family = nullptr,
                TemplateTier* tier = nullptr);

    /**
     * The engine's only way to a compiled template: return the shared
     * structural artifact for @p model's labeled structure, running the
     * structure-only compile (transpile + noise quantities) exactly once
     * per labeled structure. Warm lookups cost two O(E) key hashes plus
     * an O(E) labeled verification — no transpiler involvement — which
     * is what turns cold-start planning into a parameter patch. Misses
     * compile OUTSIDE the lock, first insert wins, race losers report
     * tier Compile.
     */
    FamilyBinding get_or_bind(const ising::IsingModel& model,
                              const device::Device& dev,
                              const transpiler::CompileOptions& compile,
                              const qaoa::BuildOptions& build);

    /**
     * Override the family byte budget. Exists for eviction-boundary tests
     * and memory-constrained deployments; the default is kMaxFamilyBytes
     * in template_cache.cc.
     */
    void set_family_byte_budget(std::size_t bytes);

    Stats stats() const;
    /**
     * Estimated bytes currently held: each family structure's estimate
     * (transpile metrics, layouts, noise arrays). Cheap enough to poll
     * from a --stats report after every solve.
     */
    std::size_t bytes() const;
    void clear();

  private:
    /** One labeled structure; its shared structure is charged ONCE here. */
    struct FamilyVariant
    {
        std::uint64_t verify_key = 0;
        /** ParametricTemplate::bytes(), captured at insert so eviction
         *  releases exactly what was charged. */
        std::size_t bytes = 0;
        std::shared_ptr<const ParametricTemplate> value;

        /** The labeled key matched; the verify key and the exact labeled
         *  structure must match too. */
        bool
        serves(std::uint64_t verify, const ising::IsingModel& model) const
        {
            return verify_key == verify && value->matches(model);
        }
    };

    mutable std::mutex mutex_;
    /** Keyed by template_key (the labeled key) of the structure. */
    std::unordered_map<std::uint64_t, FamilyVariant> families_;
    /** Estimated bytes held by families_ (shared structures). */
    std::size_t family_bytes_ = 0;
    std::size_t family_byte_budget_;
    Stats stats_;
};

} // namespace fq::engine

#endif // FQ_ENGINE_TEMPLATE_CACHE_H
