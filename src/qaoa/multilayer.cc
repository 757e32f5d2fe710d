#include "qaoa/multilayer.h"

#include "common/bitops.h"
#include "common/error.h"
#include "optimizer/nelder_mead.h"
#include "qaoa/analytic_p1.h"

namespace fq::qaoa {

StateExpectations
state_expectations(const ising::IsingModel& model,
                   const sim::Statevector& state)
{
    FQ_REQUIRE(model.num_spins() == state.num_qubits(),
               "model/state width mismatch");
    const int n = model.num_spins();
    StateExpectations out;
    out.z.assign(n, 0.0);
    const auto& terms = model.quadratic_terms();
    out.zz.assign(terms.size(), 0.0);

    const auto probs = state.probabilities();
    for (std::uint64_t s = 0; s < probs.size(); ++s) {
        const double p = probs[s];
        if (p == 0.0)
            continue;
        for (int i = 0; i < n; ++i)
            out.z[i] += p * spin_of_bit(s, i);
        for (std::size_t t = 0; t < terms.size(); ++t)
            out.zz[t] += p * spin_of_bit(s, terms[t].i) *
                         spin_of_bit(s, terms[t].j);
    }

    out.energy = model.offset();
    for (int i = 0; i < n; ++i)
        out.energy += model.linear(i) * out.z[i];
    for (std::size_t t = 0; t < terms.size(); ++t)
        out.energy += terms[t].coefficient * out.zz[t];
    return out;
}

QaoaEvaluator::QaoaEvaluator(const ising::IsingModel& model, int num_layers)
    : num_layers_(num_layers),
      program_(sim::FusedProgram::from_model(model, num_layers)),
      energy_table_(model)
{
    FQ_REQUIRE(num_layers >= 1, "need at least one layer");
}

double
QaoaEvaluator::energy(const std::vector<double>& gammas,
                      const std::vector<double>& betas)
{
    FQ_REQUIRE(gammas.size() == static_cast<std::size_t>(num_layers_) &&
                   betas.size() == static_cast<std::size_t>(num_layers_),
               "need one (gamma, beta) pair per layer");
    program_.run(gammas, betas, scratch_);
    ++evaluations_;
    return energy_table_.expectation(scratch_);
}

double
QaoaEvaluator::energy_flat(const std::vector<double>& point)
{
    FQ_REQUIRE(point.size() == 2 * static_cast<std::size_t>(num_layers_),
               "flat point must hold 2p angles");
    const std::vector<double> gammas(point.begin(),
                                     point.begin() + num_layers_);
    const std::vector<double> betas(point.begin() + num_layers_,
                                    point.end());
    return energy(gammas, betas);
}

StateExpectations
evaluate_multilayer(const ising::IsingModel& model,
                    const std::vector<double>& gammas,
                    const std::vector<double>& betas)
{
    FQ_REQUIRE(!gammas.empty() && gammas.size() == betas.size(),
               "need one (gamma, beta) pair per layer");
    FQ_REQUIRE(model.num_spins() <= 20,
               "statevector evaluation limited to 20 spins");
    // One-shot evaluation: build without the level LUT (its build cost
    // only pays off across repeated runs of the same structure).
    const auto program = sim::FusedProgram::from_model(
        model, static_cast<int>(gammas.size()), /*build_luts=*/false);
    sim::Statevector state;
    program.run(gammas, betas, state);
    return state_expectations(model, state);
}

MultilayerResult
optimize_multilayer(const ising::IsingModel& model, int num_layers,
                    int max_evaluations)
{
    FQ_REQUIRE(num_layers >= 1, "need at least one layer");
    FQ_REQUIRE(model.num_spins() <= 20,
               "statevector evaluation limited to 20 spins");

    // Warm start: p=1 optimum, layers ramped linearly (gamma up, beta
    // down) — the standard interpolation heuristic.
    const auto seed = optimize_p1(model, 32);
    std::vector<double> start;
    for (int l = 0; l < num_layers; ++l) {
        start.push_back(seed.angles.gamma * (l + 1) /
                        static_cast<double>(num_layers));
    }
    for (int l = 0; l < num_layers; ++l) {
        start.push_back(seed.angles.beta * (num_layers - l) /
                        static_cast<double>(num_layers));
    }

    // The whole optimizer loop shares ONE fused program and ONE energy
    // table: per iteration only the diagonal scales and mixer angles
    // change, so the tables compiled at construction are reused verbatim.
    QaoaEvaluator evaluator(model, num_layers);

    optimizer::NelderMeadOptions opts;
    opts.max_evaluations = max_evaluations;
    opts.initial_step = 0.15;
    const auto tuned = optimizer::nelder_mead(
        [&](const std::vector<double>& x) {
            return evaluator.energy_flat(x);
        },
        start, opts);

    MultilayerResult out;
    out.gammas.assign(tuned.best_point.begin(),
                      tuned.best_point.begin() + num_layers);
    out.betas.assign(tuned.best_point.begin() + num_layers,
                     tuned.best_point.end());
    out.energy = tuned.best_value;
    out.evaluations = tuned.evaluations;
    return out;
}

} // namespace fq::qaoa
