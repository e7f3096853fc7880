#pragma once
/// \file backend.hpp
/// Evaluation-engine abstraction over ScenarioSpec.
///
/// A Backend turns a validated ScenarioSpec + seed into a ScenarioResult.
/// Two engines implement it:
///   * SimBackend  — the discrete-event simulator (ground truth; every
///     policy, faults, recovery, obs/ledger integration),
///   * analytic::AnalyticBackend (src/analytic/) — Agrawal–Kumar-style
///     closed-form models (cam/psm/bt/hotspot steady state; ~10^3-10^4×
///     cheaper, no fault or recovery modelling).
/// Grids, benches, and the CLI talk only to this interface, so any
/// experiment can be screened analytically and re-run in sim unchanged.

#include <cstdint>
#include <memory>
#include <string>

#include "core/scenario_spec.hpp"

namespace wlanps::core {

/// One evaluation engine.  Implementations are stateless (all methods
/// const): a single instance may run specs from several threads at once.
class Backend {
public:
    virtual ~Backend() = default;

    /// Engine name ("sim", "analytic") — CLI/report identifier.
    [[nodiscard]] virtual std::string name() const = 0;

    /// Empty string when this backend can run \p spec; otherwise an
    /// actionable explanation of what is unsupported.
    [[nodiscard]] virtual std::string unsupported_reason(const ScenarioSpec& spec) const {
        (void)spec;
        return {};
    }

    /// Validate \p spec, reject unsupported specs with a ContractViolation
    /// carrying unsupported_reason(), then execute.  \p seed overrides
    /// spec.stream().seed — the grid axis the ExperimentRunner sweeps.
    [[nodiscard]] ScenarioResult run(const ScenarioSpec& spec, std::uint64_t seed) const;

    /// run() with the spec's own embedded seed.
    [[nodiscard]] ScenarioResult run(const ScenarioSpec& spec) const {
        return run(spec, spec.stream().seed);
    }

protected:
    /// Engine-specific execution; called with a validated, supported spec.
    [[nodiscard]] virtual ScenarioResult do_run(const ScenarioSpec& spec,
                                                std::uint64_t seed) const = 0;
};

/// Discrete-event simulator engine: builds the full world (MAC/PHY,
/// traffic, faults, recovery) and runs it to spec.stream().duration.  Ground
/// truth for every policy; integrates with the obs registry and the
/// energy ledger via obs::current()/current_ledger().
class SimBackend final : public Backend {
public:
    [[nodiscard]] std::string name() const override { return "sim"; }

protected:
    [[nodiscard]] ScenarioResult do_run(const ScenarioSpec& spec,
                                        std::uint64_t seed) const override;
};

}  // namespace wlanps::core
