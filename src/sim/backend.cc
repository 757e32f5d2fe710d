#include "sim/backend.h"

#include <vector>

#include "common/error.h"
#include "sim/kernels.h"
#include "sim/qaoa_kernel.h"
#include "sim/simd.h"
#include "sim/statevector.h"

namespace fq::sim {

const char*
backend_kind_name(BackendKind kind)
{
    switch (kind) {
      case BackendKind::ScalarFused:
        return "scalar";
      case BackendKind::VectorizedFused:
        return "simd";
    }
    return "?";
}

BackendKind
select_backend(int num_qubits)
{
    return num_qubits >= kAutoVectorizeMinQubits
               ? BackendKind::VectorizedFused
               : BackendKind::ScalarFused;
}

namespace {

/** Today's scalar fused loops, unchanged — the reference backend. */
class ScalarFusedBackend final : public Backend
{
  public:
    BackendKind kind() const override { return BackendKind::ScalarFused; }
    const char* name() const override { return "scalar-fused"; }

    void
    apply_diagonal(const DiagonalTable& table, Amp* amps,
                   double scale) const override
    {
        table.apply(amps, scale);
    }

    void
    apply_mixer_wall(Amp* amps, std::uint64_t dim,
                     const std::vector<int>& qubits,
                     double theta) const override
    {
        std::size_t k = 0;
        for (; k + 1 < qubits.size(); k += 2)
            kernels::apply_rx_pair(amps, dim, qubits[k], qubits[k + 1],
                                   theta);
        if (k < qubits.size())
            kernels::apply_rx(amps, dim, qubits[k], theta);
    }

    double
    expectation(const EnergyTable& table,
                const Statevector& state) const override
    {
        return table.expectation(state);
    }
};

/** The simd.h kernels: AVX2 when compiled in, portable unrolled loops
 *  otherwise. Same pass order and per-amplitude expression tree as the
 *  scalar backend (bit-stable sampled counts). */
class VectorizedFusedBackend final : public Backend
{
  public:
    BackendKind kind() const override
    {
        return BackendKind::VectorizedFused;
    }
    const char* name() const override { return "vectorized-fused"; }

    void
    apply_diagonal(const DiagonalTable& table, Amp* amps,
                   double scale) const override
    {
        if (table.compressed()) {
            // Same phase precompute as the scalar path (one sincos per
            // level); only the per-state gather-multiply is vectorized.
            const auto& levels = table.levels();
            std::vector<Amp> phases(levels.size());
            for (std::size_t k = 0; k < levels.size(); ++k)
                phases[k] = std::polar(1.0, scale * levels[k]);
            simd::diag_apply_lut(amps, table.level_index().data(),
                                 phases.data(), table.dimension());
            return;
        }
        simd::diag_apply_raw(amps, table.raw_weights().data(), scale,
                             table.dimension());
    }

    void
    apply_mixer_wall(Amp* amps, std::uint64_t dim,
                     const std::vector<int>& qubits,
                     double theta) const override
    {
        std::size_t k = 0;
        for (; k + 1 < qubits.size(); k += 2)
            simd::mixer_rx_pair(amps, dim, qubits[k], qubits[k + 1],
                                theta);
        if (k < qubits.size())
            simd::mixer_rx(amps, dim, qubits[k], theta);
    }

    double
    expectation(const EnergyTable& table,
                const Statevector& state) const override
    {
        FQ_REQUIRE(state.num_qubits() == table.num_qubits(),
                   "energy table width must match state width");
        return simd::energy_fold(state.data(), table.values().data(),
                                 state.dimension());
    }
};

} // namespace

BackendRegistry::BackendRegistry()
{
    static const ScalarFusedBackend scalar_backend;
    static const VectorizedFusedBackend vectorized_backend;
    scalar_ = &scalar_backend;
    vectorized_ = &vectorized_backend;
}

const BackendRegistry&
BackendRegistry::instance()
{
    static const BackendRegistry registry;
    return registry;
}

const Backend&
BackendRegistry::get(BackendKind kind) const
{
    switch (kind) {
      case BackendKind::ScalarFused:
        return *scalar_;
      case BackendKind::VectorizedFused:
        return *vectorized_;
    }
    return *scalar_;
}

const Backend&
BackendRegistry::scalar() const
{
    return *scalar_;
}

const Backend&
BackendRegistry::vectorized() const
{
    return *vectorized_;
}

const char*
BackendRegistry::vector_isa()
{
    return simd::compiled_isa();
}

} // namespace fq::sim
