#pragma once
/// \file policy.hpp
/// Power-policy selection: the one place a WLAN station's power policy and
/// its knobs are chosen (core::ScenarioSpec::with_power_policy;
/// ScenarioSpec::psm() and ecmac() are shorthands for it).
///
/// Five kinds are selectable.  Four run on the policy station
/// (PolicyBssWorld): cam, psm (TIM beacons + PS-Polls), micro_nap and
/// pamas.  ecmac (a centrally broadcast superframe schedule) runs on the
/// MAC's own EC-MAC stations.  A single `--policy=<name>` axis sweeps them
/// all.

#include <memory>
#include <string>
#include <string_view>

#include "phy/calibration.hpp"
#include "policy/micro_nap.hpp"
#include "policy/pamas_policy.hpp"
#include "policy/power_policy.hpp"
#include "sim/assert.hpp"

namespace wlanps::policy {

/// Constantly awake mode: the radio idle-listens between frames and no
/// hook ever puts it to sleep.
class CamPolicy final : public PowerPolicy {
public:
    [[nodiscard]] std::string_view name() const override { return "cam"; }
};

/// 802.11 PSM: doze between beacons, wake for every listen_interval-th
/// one, and retrieve TIM-flagged traffic with PS-Polls.  PolicyStation's
/// beacon-driven shape runs the cycle; no hook puts the radio to sleep.
class PsmPolicy final : public PowerPolicy {
public:
    explicit PsmPolicy(int listen_interval = 1) : listen_interval_(listen_interval) {
        WLANPS_REQUIRE(listen_interval >= 1);
    }
    [[nodiscard]] std::string_view name() const override { return "psm"; }
    [[nodiscard]] int listen_interval() const override { return listen_interval_; }

private:
    int listen_interval_;
};

/// Selectable power-saving policy.
enum class PolicyKind : std::uint8_t { cam, psm, ecmac, micro_nap, pamas };

[[nodiscard]] const char* to_string(PolicyKind kind);

/// Parse a policy name; throws ContractViolation listing the valid names.
[[nodiscard]] PolicyKind parse_power_policy(std::string_view name);

/// All valid names, comma-separated (CLI help text).
[[nodiscard]] const char* power_policy_names();

/// Full configuration of one station's power policy.
struct PowerPolicyConfig {
    PolicyKind kind = PolicyKind::micro_nap;

    MicroNapConfig micro_nap;
    PamasPolicyConfig pamas;

    /// AP beacon interval (every kind but ecmac).
    Time beacon_interval = phy::calibration::kWlanBeaconInterval;

    // --- psm / ecmac knobs ---------------------------------------------
    /// Beacons between a psm station's TIM checks.
    int psm_listen_interval = 1;
    /// >1 enables MAC-level aggregation (several MSDUs per PS-Poll).
    int psm_aggregate_limit = 1;
    Time ecmac_superframe = Time::from_ms(100);

    // --- optional uplink workload --------------------------------------
    /// When positive, each station also sends a small uplink frame every
    /// period — this exercises the DCF backoff path (and μNap's backoff
    /// naps) on otherwise downlink-only streaming scenarios.  Only cam,
    /// micro_nap and pamas run it; validate() refuses it for psm and ecmac.
    Time uplink_period = Time::zero();
    DataSize uplink_size = DataSize::from_bytes(200);

    [[nodiscard]] static PowerPolicyConfig of(PolicyKind kind) {
        PowerPolicyConfig c;
        c.kind = kind;
        return c;
    }

    PowerPolicyConfig& with_uplink(Time period, DataSize size) {
        uplink_period = period;
        uplink_size = size;
        return *this;
    }
    PowerPolicyConfig& with_micro_nap(MicroNapConfig c) {
        micro_nap = c;
        return *this;
    }
    PowerPolicyConfig& with_pamas(PamasPolicyConfig c) {
        pamas = std::move(c);
        return *this;
    }
    PowerPolicyConfig& with_psm(int listen_interval, int aggregate_limit) {
        psm_listen_interval = listen_interval;
        psm_aggregate_limit = aggregate_limit;
        return *this;
    }

    void validate() const;
};

/// Instantiate the policy object for \p config.  Every policy-station kind
/// has one; ecmac runs on the MAC's own stations and returns nullptr here.
[[nodiscard]] std::unique_ptr<PowerPolicy> make_power_policy(const PowerPolicyConfig& config);

}  // namespace wlanps::policy
