#pragma once
/// \file backend.hpp
/// Closed-form evaluation engine over ScenarioSpec.
///
/// AnalyticBackend maps a ScenarioSpec onto the mean-value models in
/// model.hpp and returns the same ScenarioResult shape the simulator
/// produces, so grids and benches can screen parameter spaces in
/// microseconds and re-run the interesting points in sim unchanged.
///
/// Supported policies: cam, psm, bt, hotspot — steady state only.
/// Everything transient or event-driven (ec-mac schedules, video/web
/// client mixes, fault plans, recovery, media proxies, scripted link decay,
/// sim-only callbacks) is rejected up front via unsupported_reason() with
/// a message naming the sim backend as the fallback.

#include <memory>
#include <string_view>

#include "core/backend.hpp"

namespace wlanps::analytic {

/// Agrawal–Kumar-style closed-form engine (model.hpp).  Stateless and
/// RNG-free: results are seed-invariant and every client's metrics are
/// identical (the models describe the per-client mean).
class AnalyticBackend final : public core::Backend {
public:
    [[nodiscard]] std::string name() const override { return "analytic"; }

    /// Empty for cam/psm/bt/hotspot steady-state specs; otherwise names
    /// the unsupported feature and the fix (run it on the sim backend).
    [[nodiscard]] std::string unsupported_reason(const core::ScenarioSpec& spec) const override;

protected:
    [[nodiscard]] core::ScenarioResult do_run(const core::ScenarioSpec& spec,
                                              std::uint64_t seed) const override;
};

/// Backend registry for CLI/bench `--backend=` flags: "sim" or
/// "analytic".  Throws a ContractViolation listing the valid names on
/// anything else.
[[nodiscard]] std::shared_ptr<const core::Backend> make_backend(std::string_view name);

}  // namespace wlanps::analytic
