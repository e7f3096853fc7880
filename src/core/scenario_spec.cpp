#include "core/scenario_spec.hpp"

#include <algorithm>
#include <cstdio>

#include "bt/piconet.hpp"
#include "sim/assert.hpp"

namespace wlanps::core {

namespace {

/// Shortest decimal representation ("3", "0.9", "102.4") for messages.
std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

bool known_scheduler(const std::string& name) {
    static constexpr const char* kNames[] = {"edf", "wfq", "round-robin",
                                             "fixed-priority", "fifo"};
    return std::any_of(std::begin(kNames), std::end(kNames),
                       [&](const char* n) { return name == n; });
}

/// A piconet holds at most max_active slaves; \p remedy says how to get
/// \p per_piconet clients under that.
void check_piconet_fits(int per_piconet, const char* remedy) {
    const int max_active = bt::PiconetConfig{}.max_active;
    WLANPS_REQUIRE_MSG(per_piconet <= max_active,
                       "one piconet holds at most " + std::to_string(max_active) +
                           " active slaves; " + std::to_string(per_piconet) +
                           " clients per piconet need " + remedy);
}

/// Per-power-policy fault whitelist: each WLAN station build routes a
/// different subset of the injector hooks, so reject the rest before arm()
/// would.
void check_fault_hooks(const std::string& label, policy::PolicyKind kind,
                       const policy::PowerPolicyConfig& power, const fault::FaultPlan& plan) {
    for (const auto& f : plan.specs()) {
        bool supported = false;
        std::string hint;
        switch (kind) {
            case policy::PolicyKind::cam:
                supported = f.kind == fault::FaultKind::nic_lockup ||
                            f.kind == fault::FaultKind::wake_stuck ||
                            f.kind == fault::FaultKind::blackout ||
                            f.kind == fault::FaultKind::corruption;
                hint = "cam stations route phy and link hooks only "
                       "(nic-lockup, wake-stuck, blackout, corruption)";
                break;
            case policy::PolicyKind::psm:
                // Narrower than the hooks its world binds: PSM's beacon
                // cycle has not been checked under phy faults.
                supported = f.kind == fault::FaultKind::beacon_loss ||
                            f.kind == fault::FaultKind::poll_drop ||
                            f.kind == fault::FaultKind::blackout ||
                            f.kind == fault::FaultKind::corruption;
                hint = "psm stations route MAC and link hooks only "
                       "(beacon-loss, poll-drop, blackout, corruption)";
                break;
            case policy::PolicyKind::ecmac:
                supported = false;
                hint = "ec-mac stations route no fault hooks — drop the "
                       "plan or pick another policy";
                break;
            case policy::PolicyKind::micro_nap:
                // wake_stuck stretches a nap resume past the DCF
                // carrier-sense guarantee when the policy naps inside
                // its own backoff countdown.
                supported = f.kind == fault::FaultKind::nic_lockup ||
                            f.kind == fault::FaultKind::beacon_loss ||
                            f.kind == fault::FaultKind::blackout ||
                            f.kind == fault::FaultKind::corruption ||
                            (f.kind == fault::FaultKind::wake_stuck &&
                             !power.micro_nap.nap_on_backoff);
                hint = f.kind == fault::FaultKind::wake_stuck
                           ? "wake-stuck would stretch a backoff-nap resume "
                             "past the station's own DCF fire — disable "
                             "micro_nap.nap_on_backoff to inject it"
                           : "micro_nap routes phy, beacon, and link hooks "
                             "(nic-lockup, beacon-loss, blackout, corruption)";
                break;
            case policy::PolicyKind::pamas:
                supported = f.kind == fault::FaultKind::nic_lockup ||
                            f.kind == fault::FaultKind::wake_stuck ||
                            f.kind == fault::FaultKind::beacon_loss ||
                            f.kind == fault::FaultKind::blackout ||
                            f.kind == fault::FaultKind::corruption;
                hint = "pamas routes phy, beacon, and link hooks "
                       "(nic-lockup, wake-stuck, beacon-loss, blackout, "
                       "corruption)";
                break;
        }
        WLANPS_REQUIRE_MSG(supported, "'" + label + "' cannot inject '" +
                                          std::string(fault::to_string(f.kind)) +
                                          "' — " + hint);
    }
}

}  // namespace

power::Power ScenarioResult::mean_wnic() const {
    WLANPS_REQUIRE(!clients.empty());
    power::Power sum;
    for (const ClientMetrics& c : clients) sum += c.wnic_average;
    return sum * (1.0 / static_cast<double>(clients.size()));
}

power::Power ScenarioResult::mean_device() const {
    WLANPS_REQUIRE(!clients.empty());
    power::Power sum;
    for (const ClientMetrics& c : clients) sum += c.device_average;
    return sum * (1.0 / static_cast<double>(clients.size()));
}

double ScenarioResult::min_qos() const {
    WLANPS_REQUIRE(!clients.empty());
    double q = 1.0;
    for (const ClientMetrics& c : clients) q = std::min(q, c.qos);
    return q;
}

void ShardingConfig::validate() const {
    WLANPS_REQUIRE_MSG(shards >= 0, "ShardingConfig.shards cannot be negative");
    if (!enabled()) return;
    WLANPS_REQUIRE_MSG(threads >= 0, "ShardingConfig.threads cannot be negative");
    WLANPS_REQUIRE_MSG(threads <= shards,
                       "ShardingConfig.threads (" + std::to_string(threads) +
                           ") cannot exceed shards (" + std::to_string(shards) +
                           ") — excess workers would never hold a shard; "
                           "lower threads or raise shards");
    WLANPS_REQUIRE_MSG(lookahead > Time::zero(),
                       "ShardingConfig.lookahead must be positive");
    if (!skew_window.is_zero()) {
        WLANPS_REQUIRE_MSG(lax,
                           "ShardingConfig.skew_window is a lax-mode knob "
                           "(set lax = true)");
        WLANPS_REQUIRE_MSG(skew_window >= lookahead,
                           "ShardingConfig.skew_window must be >= lookahead "
                           "(a quantum narrower than the lookahead would stall "
                           "cross-shard delivery) — shrink lookahead or widen "
                           "skew_window");
    }
}

std::string_view to_string(AdmissionPolicy policy) {
    switch (policy) {
        case AdmissionPolicy::reject: return "reject";
        case AdmissionPolicy::defer: return "defer";
        case AdmissionPolicy::degrade: return "degrade";
    }
    WLANPS_REQUIRE_MSG(false, "bad admission policy");
    return "";
}

AdmissionPolicy parse_admission(std::string_view name) {
    if (name == "reject") return AdmissionPolicy::reject;
    if (name == "defer") return AdmissionPolicy::defer;
    if (name == "degrade") return AdmissionPolicy::degrade;
    WLANPS_REQUIRE_MSG(false, "unknown admission policy '" + std::string(name) +
                                  "' (reject, defer, degrade)");
    return AdmissionPolicy::reject;  // unreachable
}

void FederationConfig::validate() const {
    WLANPS_REQUIRE_MSG(aps >= 1, "FederationConfig.aps must be >= 1 (got " +
                                     std::to_string(aps) + ")");
    WLANPS_REQUIRE_MSG(shards >= 1,
                       "FederationConfig.shards must be >= 1 (got " +
                           std::to_string(shards) +
                           ") — the federation always rides the sharded kernel; "
                           "there is no single-queue federation path");
    WLANPS_REQUIRE_MSG(shards <= aps,
                       "FederationConfig.shards (" + std::to_string(shards) +
                           ") cannot exceed aps (" + std::to_string(aps) +
                           ") — a shard with no AP cell would idle forever");
    WLANPS_REQUIRE_MSG(threads >= 0, "FederationConfig.threads cannot be negative");
    WLANPS_REQUIRE_MSG(threads <= shards,
                       "FederationConfig.threads (" + std::to_string(threads) +
                           ") cannot exceed shards (" + std::to_string(shards) +
                           ") — excess workers would never hold a shard; "
                           "lower threads or raise shards");
    WLANPS_REQUIRE_MSG(lookahead > Time::zero(),
                       "FederationConfig.lookahead must be positive");
    if (!skew_window.is_zero()) {
        WLANPS_REQUIRE_MSG(lax,
                           "FederationConfig.skew_window is a lax-mode knob "
                           "(set lax = true)");
        WLANPS_REQUIRE_MSG(skew_window >= lookahead,
                           "FederationConfig.skew_window must be >= lookahead "
                           "(a quantum narrower than the lookahead would stall "
                           "cross-shard handoffs) — shrink lookahead or widen "
                           "skew_window");
    }
    WLANPS_REQUIRE_MSG(!roaming || aps >= 2,
                       "FederationConfig.roaming needs at least 2 APs to roam "
                       "between (got " + std::to_string(aps) +
                           ") — add APs or disable roaming");
    if (roaming) {
        WLANPS_REQUIRE_MSG(mean_dwell > Time::zero(),
                           "FederationConfig.mean_dwell must be positive");
    }
    WLANPS_REQUIRE_MSG(base_arrival_hz >= 0.0 && flash_arrival_hz >= 0.0,
                       "FederationConfig arrival rates cannot be negative");
    if (flash_arrival_hz > 0.0) {
        WLANPS_REQUIRE_MSG(flash_duration > Time::zero(),
                           "FederationConfig.flash_duration must be positive "
                           "when flash_arrival_hz is set");
    }
    WLANPS_REQUIRE_MSG(mean_session > Time::zero(),
                       "FederationConfig.mean_session must be positive");
    WLANPS_REQUIRE_MSG(capacity_per_ap >= 1,
                       "FederationConfig.capacity_per_ap must be >= 1");
    WLANPS_REQUIRE_MSG(defer_retry > Time::zero(),
                       "FederationConfig.defer_retry must be positive");
    WLANPS_REQUIRE_MSG(degrade_factor > 0.0 && degrade_factor <= 1.0,
                       "FederationConfig.degrade_factor must be in (0, 1] (got " +
                           fmt(degrade_factor) + ")");
    WLANPS_REQUIRE_MSG(!stream_rate.is_zero(), "FederationConfig.stream_rate must be positive");
    WLANPS_REQUIRE_MSG(!target_burst.is_zero(),
                       "FederationConfig.target_burst must be positive");
    WLANPS_REQUIRE_MSG(!radio_goodput.is_zero(),
                       "FederationConfig.radio_goodput must be positive");
    WLANPS_REQUIRE_MSG(!backhaul_rate.is_zero(),
                       "FederationConfig.backhaul_rate must be positive");
    WLANPS_REQUIRE_MSG(sample_stride >= 1,
                       "FederationConfig.sample_stride must be >= 1");
}

void HotspotConfig::validate() const {
    WLANPS_REQUIRE_MSG(known_scheduler(scheduler),
                       "HotspotConfig.scheduler '" + scheduler +
                           "' is unknown (edf, wfq, round-robin, fixed-priority, fifo)");
    WLANPS_REQUIRE_MSG(!target_burst.is_zero(),
                       "HotspotConfig.target_burst must be positive");
    WLANPS_REQUIRE_MSG(target_burst_period > Time::zero(),
                       "HotspotConfig.target_burst_period must be positive");
    WLANPS_REQUIRE_MSG(wlan_available || bt_available,
                       "at least one interface must be available "
                       "(set wlan_available or bt_available)");
    WLANPS_REQUIRE_MSG(utilization_cap > 0.0,
                       "HotspotConfig.utilization_cap must be positive (got " +
                           fmt(utilization_cap) + ")");
    WLANPS_REQUIRE_MSG(video_clients >= 0 && web_clients >= 0,
                       "HotspotConfig.video_clients and web_clients cannot be negative");
    WLANPS_REQUIRE_MSG(!mixed() || !media_proxy,
                       "HotspotConfig video/web clients are fed live by the server; "
                       "media_proxy feeds every client — set one or the other");
    resilience.validate();
    if (rejoin_enabled) rejoin.validate();
    if (media_proxy) {
        WLANPS_REQUIRE_MSG(!proxy_config.av_rate.is_zero(),
                           "HotspotConfig.proxy_config.av_rate must be positive");
        WLANPS_REQUIRE_MSG(proxy_config.audio_rate <= proxy_config.av_rate,
                           "HotspotConfig.proxy_config.audio_rate cannot exceed av_rate");
    }
    sharding.validate();
    if (sharding.enabled()) {
        // The sharded world replaces HotspotServer with the schedule-ahead
        // control plane; the features below live in the server (or assume
        // one global event queue) and would be silently ignored.
        WLANPS_REQUIRE_MSG(!media_proxy,
                           "sharded hotspot does not support the media proxy yet");
        WLANPS_REQUIRE_MSG(!mixed(),
                           "sharded hotspot does not support video/web clients yet");
        WLANPS_REQUIRE_MSG(!rejoin_enabled,
                           "sharded hotspot does not support rejoin agents yet");
        WLANPS_REQUIRE_MSG(resilience.liveness_timeout.is_zero() && !resilience.burst_repair,
                           "sharded hotspot does not support the resilience layer yet");
        WLANPS_REQUIRE_MSG(bt_quality_script.empty(),
                           "sharded hotspot does not support BT quality scripts yet");
        WLANPS_REQUIRE_MSG(fault_trace == nullptr && !contract_tweak && !on_start && !inspect,
                           "sharded hotspot does not support server callbacks/traces "
                           "(on_start, inspect, contract_tweak, fault_trace)");
    }
}

std::string ScenarioSpec::label() const {
    switch (policy_) {
        case Policy::cam:
            if (power_set_) {
                switch (power_.kind) {
                    case policy::PolicyKind::cam: return "wlan-cam";
                    case policy::PolicyKind::psm: return "wlan-psm";
                    case policy::PolicyKind::ecmac: return "ec-mac";
                    case policy::PolicyKind::micro_nap: return "micro-nap";
                    case policy::PolicyKind::pamas: return "pamas";
                }
            }
            return "wlan-cam";
        case Policy::bt: return "bt-active";
        case Policy::hotspot:
            if (hotspot_.sharding.enabled()) return "hotspot-sharded-" + hotspot_.scheduler;
            return (hotspot_.mixed() ? "hotspot-mixed-" : "hotspot-") + hotspot_.scheduler;
        case Policy::federation:
            return "federation-" + std::string(to_string(fed_.admission));
    }
    return "?";
}

void ScenarioSpec::validate() const {
    WLANPS_REQUIRE_MSG(stream_.duration > Time::zero(),
                       "ScenarioSpec duration must be positive");
    if (policy_ == Policy::federation) {
        // The initial population may be empty if arrivals feed the cells.
        WLANPS_REQUIRE_MSG(stream_.clients >= 0,
                           "ScenarioSpec clients cannot be negative");
        WLANPS_REQUIRE_MSG(
            stream_.clients >= 1 || fed_.base_arrival_hz > 0.0 ||
                fed_.flash_arrival_hz > 0.0,
            "federation needs an initial population or a nonzero arrival rate");
    } else {
        WLANPS_REQUIRE_MSG(stream_.clients >= 1,
                           "ScenarioSpec needs at least one client (got " +
                               std::to_string(stream_.clients) + ")");
    }
    // Sub-configs only make sense on their own policy: reject the
    // incoherent combinations loudly instead of silently ignoring them.
    const std::string policy_name = label();
    WLANPS_REQUIRE_MSG(!hotspot_set_ || policy_ == Policy::hotspot,
                       "HotspotConfig set on a '" + policy_name +
                           "' scenario — use ScenarioSpec::hotspot()");
    WLANPS_REQUIRE_MSG(!fed_set_ || policy_ == Policy::federation,
                       "FederationConfig set on a '" + policy_name +
                           "' scenario — use ScenarioSpec::federation()");
    // Power policies replace the station build, so they ride the cam base
    // policy only — every other policy already fixes its station behavior.
    WLANPS_REQUIRE_MSG(!power_set_ || policy_ == Policy::cam,
                       "PowerPolicyConfig set on a '" + policy_name +
                           "' scenario — power policies ride the cam base: "
                           "ScenarioSpec::cam().with_power_policy(...)");
    // Only the cam, hotspot, and federation worlds route fault hooks (the
    // cam world takes a per-power-policy whitelist below).
    WLANPS_REQUIRE_MSG(
        stream_.fault_plan.empty() || policy_ == Policy::cam ||
            policy_ == Policy::hotspot || policy_ == Policy::federation,
        "fault plans are only injectable into cam (any power policy), hotspot, "
        "and federation scenarios, not '" + policy_name + "'");
    stream_.fault_plan.validate();
    if (policy_ == Policy::hotspot && hotspot_.sharding.enabled()) {
        // The sharded world routes fault hooks through per-shard injectors,
        // but has no beacon/poll MAC and the schedule-drop gate lives in the
        // (absent) HotspotServer — refuse those kinds with a pointer.
        for (const auto& f : stream_.fault_plan.specs()) {
            const bool supported =
                f.kind != fault::FaultKind::beacon_loss &&
                f.kind != fault::FaultKind::poll_drop &&
                f.kind != fault::FaultKind::schedule_drop;
            WLANPS_REQUIRE_MSG(
                supported,
                std::string("sharded hotspot cannot inject '") +
                    fault::to_string(f.kind) +
                    "' (the schedule-ahead control plane has no beacon/poll MAC "
                    "or schedule-message path) — use the single-queue hotspot "
                    "(shards = 0) for that kind");
        }
    }
    switch (policy_) {
        case Policy::cam: {
            if (power_set_) {
                power_.validate();
                if (power_.kind == policy::PolicyKind::micro_nap) {
                    const phy::NapCostTable& nap = stream_.wlan_nic.nap;
                    WLANPS_REQUIRE_MSG(
                        nap.sleep_latency > Time::zero() && nap.wake_latency > Time::zero(),
                        "μNap needs positive Wnic nap transition latencies "
                        "(stream().wlan_nic.nap) — a free transition would let the "
                        "policy sleep through its own carrier-sense guarantee");
                    WLANPS_REQUIRE_MSG(
                        nap.sleep_latency + nap.wake_latency <= power_.beacon_interval,
                        "μNap transition cost (sleep " +
                            fmt(nap.sleep_latency.to_seconds() * 1e6) + "us + wake " +
                            fmt(nap.wake_latency.to_seconds() * 1e6) +
                            "us) exceeds the beacon interval (" +
                            fmt(power_.beacon_interval.to_seconds() * 1e3) +
                            "ms) — no idle gap could ever amortize a nap; shrink the "
                            "Wnic nap cost table (stream().wlan_nic.nap) or raise the "
                            "beacon interval");
                }
            }
            check_fault_hooks(policy_name, power_set_ ? power_.kind : policy::PolicyKind::cam,
                              power_, stream_.fault_plan);
            break;
        }
        case Policy::bt:
            // sim_bt_active joins every client to one piconet.
            check_piconet_fits(stream_.clients, "fewer clients");
            break;
        case Policy::hotspot: {
            hotspot_.validate();
            WLANPS_REQUIRE_MSG(hotspot_.video_clients + hotspot_.web_clients <= stream_.clients,
                               "HotspotConfig video_clients + web_clients (" +
                                   std::to_string(hotspot_.video_clients +
                                                  hotspot_.web_clients) +
                                   ") exceed clients (" + std::to_string(stream_.clients) +
                                   ") — raise clients or lower the mix");
            if (hotspot_.bt_available) {
                // One piconet per sharded cell, else one in all; every
                // client joins it.
                const int shards = std::max(1, hotspot_.sharding.shards);
                check_piconet_fits((stream_.clients + shards - 1) / shards,
                                   "bt_available = false or more shards");
            }
            break;
        }
        case Policy::federation:
            fed_.validate();
            // The federation models clients as slab records, not device
            // objects: only the kinds with a slab-level meaning inject.
            for (const auto& f : stream_.fault_plan.specs()) {
                const bool supported =
                    f.kind == fault::FaultKind::nic_lockup ||
                    f.kind == fault::FaultKind::client_crash ||
                    f.kind == fault::FaultKind::silent_leave ||
                    f.kind == fault::FaultKind::delayed_registration;
                WLANPS_REQUIRE_MSG(
                    supported,
                    std::string("federation cannot inject '") +
                        fault::to_string(f.kind) +
                        "' (slab clients expose nic-lockup, crash, "
                        "silent-leave, and late-join only) — use a hotspot "
                        "scenario for MAC/link-level kinds");
            }
            break;
    }
}

}  // namespace wlanps::core
