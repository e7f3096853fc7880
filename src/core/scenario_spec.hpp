#pragma once
/// \file scenario_spec.hpp
/// Backend-agnostic description of one evaluation scenario.
///
/// A ScenarioSpec is the single, validated, serializable unit of
/// experiment description: which world runs (cam / bt / hotspot /
/// federation), the stream and world parameters (client count, duration,
/// links, NIC calibration, fault plan), and the world-specific
/// sub-configuration.  A hotspot's client mix (stored MP3, live video,
/// web) is two HotspotConfig counts, not a world of its own.  The WLAN
/// station's power policy (cam, psm, ecmac, micro_nap, pamas) and its
/// knobs live in one place, policy::PowerPolicyConfig, set on the cam
/// world.  Any core::Backend (backend.hpp) — the discrete-event simulator
/// or the closed-form analytic models — executes the *same* spec and
/// returns the same ScenarioResult shape, so grids, benches, and the
/// energy ledger export are backend-independent.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "channel/gilbert_elliott.hpp"
#include "channel/scripted.hpp"
#include "core/media_proxy.hpp"
#include "core/qos.hpp"
#include "core/resilience.hpp"
#include "fault/fault.hpp"
#include "phy/bt_nic.hpp"
#include "phy/calibration.hpp"
#include "phy/wlan_nic.hpp"
#include "policy/policy.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "sim/units.hpp"

namespace wlanps::sim {
class Simulator;
}

namespace wlanps::obs {
struct HealthReport;
}

namespace wlanps::core {

class HotspotServer;
class HotspotClient;

/// Common workload/world parameters (defaults = the Figure 2 experiment).
struct StreamConfig {
    int clients = 3;
    Time duration = Time::from_seconds(300);
    std::uint64_t seed = 42;
    /// Per-client link behaviour (mild burst errors by default).
    channel::GilbertElliottConfig wlan_link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    channel::GilbertElliottConfig bt_link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    /// NIC calibration overrides (defaults = IPAQ measurements) — the
    /// sensitivity ablation sweeps these.
    phy::WlanNicConfig wlan_nic;
    phy::BtNicConfig bt_nic;
    /// Deterministic fault schedule replayed into the run (psm and hotspot
    /// policies).  Empty = no injector is built at all, so the run is
    /// bit-identical to one before the fault subsystem existed.
    fault::FaultPlan fault_plan;
};

/// Ground-truth per-client results.
struct ClientMetrics {
    power::Power wnic_average;     ///< all wireless interfaces
    power::Energy wnic_energy;
    power::Power device_average;   ///< wnic + IPAQ base platform
    double qos = 0.0;              ///< fraction of playout deadlines met
    std::uint64_t underruns = 0;
    DataSize received;
};

/// Result of one scenario run (any backend).
struct ScenarioResult {
    std::string label;
    std::vector<ClientMetrics> clients;
    /// Recovery actions taken (server sweep/repair + every RejoinAgent).
    RecoveryReport recovery;
    /// Per-proxied-client degradation accounting (empty without a proxy).
    std::vector<MediaProxy::DegradationReport> degradation;
    /// Faults the injector actually fired (0 without a plan).
    std::uint64_t faults_injected = 0;

    [[nodiscard]] power::Power mean_wnic() const;
    [[nodiscard]] power::Power mean_device() const;
    [[nodiscard]] double min_qos() const;
};

/// Sharded parallel execution of the hotspot world (sim/sharded.hpp):
/// clients are partitioned into per-shard AP cells, each advanced on its
/// own event queue by the conservative sharded kernel, with a schedule-
/// ahead control plane on shard 0 issuing burst grants through cross-
/// shard mailboxes.  shards == 0 keeps the classic single-queue scenario
/// path.  See DESIGN.md §12.
struct ShardingConfig {
    int shards = 0;
    /// Sim worker threads; 0 = inline sequential execution of the sharded
    /// world — the reference the strict barrier is bit-identical to.
    int threads = 0;
    /// Lax clock-skew window (bounded timestamp error, fewer barriers)
    /// instead of the strict barrier.
    bool lax = false;
    /// Cross-shard grant/completion lookahead; also the strict quantum.
    Time lookahead = Time::from_ms(20);
    /// Lax-mode quantum; zero = lookahead (coincides with strict).
    Time skew_window = Time::zero();

    [[nodiscard]] bool enabled() const { return shards > 0; }

    ShardingConfig& with_shards(int v) { shards = v; return *this; }
    ShardingConfig& with_threads(int v) { threads = v; return *this; }
    ShardingConfig& with_lax(bool v) { lax = v; return *this; }
    ShardingConfig& with_lookahead(Time v) { lookahead = v; return *this; }
    ShardingConfig& with_skew_window(Time v) { skew_window = v; return *this; }

    void validate() const;
};

/// Hotspot scheduling sub-configuration (paper §2: bursts + interface
/// selection + park/off between bursts).
struct HotspotConfig {
    std::string scheduler = "edf";
    DataSize target_burst = DataSize::from_kilobytes(48);
    /// Per-client bursts are max(target_burst, rate * target_burst_period)
    /// — set this below target_burst/rate to sweep small bursts.
    Time target_burst_period = Time::from_seconds(3);
    bool wlan_available = true;
    bool bt_available = true;
    /// Admission-control utilization cap (>1 effectively disables
    /// admission — used by the overload ablation).
    double utilization_cap = 0.90;
    /// Optional scripted BT degradation (per client) — the paper's
    /// "conditions in the link change" switching scenario.
    channel::ScriptedQuality bt_quality_script;
    /// Recovery machinery (liveness reclamation, burst repair) — all off
    /// by default.
    ResilienceConfig resilience;
    /// Build a RejoinAgent per client (re-registration with exponential
    /// backoff + jitter after a crash or liveness reclaim).
    bool rejoin_enabled = false;
    RejoinPolicy rejoin;
    /// Feed each client through a MediaProxy (graceful A/V degradation)
    /// instead of the stored-content path: a PoissonSource generates the
    /// A/V stream at proxy_config.av_rate and the proxy thins it.
    bool media_proxy = false;
    MediaProxy::Config proxy_config;
    /// Mirror injected faults into this trace as a Perfetto lane (must
    /// outlive the run).  Simulation backend only.
    sim::TimelineTrace* fault_trace = nullptr;
    /// Per-client QoS contract adjustment (weights, priorities, rates)
    /// applied before the client is built.  Simulation backend only.
    std::function<void(ClientId, QosContract&)> contract_tweak;
    /// Invoked after the world is built, before the run starts — attach
    /// power traces, schedule mid-run probes, tweak contracts, etc.
    /// Simulation backend only.
    std::function<void(sim::Simulator&, HotspotServer&, std::vector<HotspotClient*>&)> on_start;
    /// Invoked just before teardown for inspection (traces, reports).
    /// Simulation backend only.
    std::function<void(sim::Simulator&, HotspotServer&, std::vector<HotspotClient*>&)> inspect;
    /// Heterogeneous client mix through the one server (paper §2): the
    /// last web_clients client ids browse the web (bursty live ingest, no
    /// playout — their qos reports the delivered share of what was
    /// generated), the video_clients ids before them watch live VBR video
    /// (~600 kb/s mean, too fast for Bluetooth), and the rest stream
    /// stored MP3.  Incompatible with media_proxy and sharding.
    int video_clients = 0;
    int web_clients = 0;
    /// Sharded multi-cell execution (disabled by default).  Incompatible
    /// with the proxy/rejoin/fault machinery — validate() enforces it.
    ShardingConfig sharding;
    /// Filled with the kernel health rollup after a sharded run (must
    /// outlive the run; ignored by the single-kernel paths).  Simulation
    /// backend only.
    obs::HealthReport* health = nullptr;

    HotspotConfig& with_scheduler(std::string v) { scheduler = std::move(v); return *this; }
    HotspotConfig& with_target_burst(DataSize v) { target_burst = v; return *this; }
    HotspotConfig& with_target_burst_period(Time v) { target_burst_period = v; return *this; }
    HotspotConfig& with_wlan_available(bool v) { wlan_available = v; return *this; }
    HotspotConfig& with_bt_available(bool v) { bt_available = v; return *this; }
    HotspotConfig& with_utilization_cap(double v) { utilization_cap = v; return *this; }
    HotspotConfig& with_resilience(ResilienceConfig v) { resilience = v; return *this; }
    HotspotConfig& with_rejoin(RejoinPolicy v) {
        rejoin_enabled = true;
        rejoin = v;
        return *this;
    }
    HotspotConfig& with_media_proxy(MediaProxy::Config v) {
        media_proxy = true;
        proxy_config = v;
        return *this;
    }
    HotspotConfig& with_sharding(ShardingConfig v) {
        sharding = v;
        return *this;
    }

    [[nodiscard]] bool mixed() const { return video_clients > 0 || web_clients > 0; }

    void validate() const;
};

/// What an AP cell does with a client that arrives (or roams in) while the
/// cell is at capacity.
enum class AdmissionPolicy {
    reject,   ///< turn the client away (it departs, handoff fails)
    defer,    ///< queue the admission and retry after defer_retry
    degrade,  ///< admit, but serve bursts scaled by degrade_factor
};

/// Canonical name ("reject", "defer", "degrade").
[[nodiscard]] std::string_view to_string(AdmissionPolicy policy);

/// Parse an admission-policy name; throws a ContractViolation listing the
/// accepted names on anything else.
[[nodiscard]] AdmissionPolicy parse_admission(std::string_view name);

/// City-scale hotspot federation (src/fed, DESIGN.md §13): N AP cells on
/// the sharded kernel, slab-backed client populations (10⁴–10⁶), client
/// roaming/handoff between cells, per-AP admission control under
/// flash-crowd arrival processes, and per-AP backhaul contention.  The
/// initial population and run length come from StreamConfig (clients,
/// duration, seed); everything federation-specific lives here.
struct FederationConfig {
    /// AP cells; distributed round-robin over the shards.
    int aps = 16;
    /// Kernel shards — must be >= 1 (federation always rides the sharded
    /// kernel; there is no single-queue federation path).
    int shards = 4;
    /// Worker threads; 0 = inline sequential reference execution.  Must
    /// not exceed shards (excess workers would never hold a shard).
    int threads = 0;
    /// Lax clock-skew sync instead of the strict barrier.
    bool lax = false;
    /// Cross-shard handoff/grant lookahead; also the strict quantum.
    Time lookahead = Time::from_ms(20);
    /// Lax-mode quantum; zero = lookahead (coincides with strict).
    Time skew_window = Time::zero();

    // --- arrival process (deterministic seeded MMPP ramp per cell) ------
    /// Calm-state mean arrival rate per AP, in clients/second.
    double base_arrival_hz = 0.0;
    /// Elevated rate during the flash-crowd window (0 = no flash).
    double flash_arrival_hz = 0.0;
    Time flash_start = Time::from_seconds(60);
    Time flash_duration = Time::from_seconds(60);
    /// Mean exponential session length before a client departs.
    Time mean_session = Time::from_seconds(120);

    // --- roaming --------------------------------------------------------
    /// Clients roam to a uniformly chosen other AP after an exponential
    /// dwell (requires aps >= 2).
    bool roaming = false;
    Time mean_dwell = Time::from_seconds(45);

    // --- admission control ----------------------------------------------
    AdmissionPolicy admission = AdmissionPolicy::reject;
    /// Concurrent associations one AP accepts before the policy kicks in.
    int capacity_per_ap = 1024;
    /// Defer-mode retry interval.
    Time defer_retry = Time::from_seconds(2);
    /// Degrade-mode burst scale factor (0 < f <= 1).
    double degrade_factor = 0.5;

    // --- service / backhaul model ---------------------------------------
    /// Per-client stream rate (paper's MP3 default).
    Rate stream_rate = phy::calibration::kMp3Rate;
    /// Burst size scheduled per service round.
    DataSize target_burst = DataSize::from_kilobytes(48);
    /// Radio goodput an AP can deliver to one client.
    Rate radio_goodput = Rate::from_mbps(5.0);
    /// Shared backhaul feeding each AP; effective per-client goodput is
    /// min(radio, backhaul / associated) — the contention model.
    Rate backhaul_rate = Rate::from_mbps(20.0);

    // --- export ---------------------------------------------------------
    /// 1-in-N clients keep full ClientMetrics and energy-ledger causes;
    /// the rest exist only in the population summary (10⁶ clients cannot
    /// each carry a JSON ledger entry).
    int sample_stride = 64;
    /// Optional path for the streaming binary metrics export (obs
    /// metrics_stream.hpp); empty = no stream written.
    std::string stream_path;
    /// Optional path for the deterministic kernel health report JSON
    /// (obs/health_report.hpp); empty = no file written.  The rollup is
    /// always available in FederationResult::health.
    std::string health_path;

    FederationConfig& with_aps(int v) { aps = v; return *this; }
    FederationConfig& with_shards(int v) { shards = v; return *this; }
    FederationConfig& with_threads(int v) { threads = v; return *this; }
    FederationConfig& with_lax(bool v) { lax = v; return *this; }
    FederationConfig& with_lookahead(Time v) { lookahead = v; return *this; }
    FederationConfig& with_skew_window(Time v) { skew_window = v; return *this; }
    FederationConfig& with_arrivals(double base_hz, double flash_hz,
                                    Time start, Time duration) {
        base_arrival_hz = base_hz;
        flash_arrival_hz = flash_hz;
        flash_start = start;
        flash_duration = duration;
        return *this;
    }
    FederationConfig& with_mean_session(Time v) { mean_session = v; return *this; }
    FederationConfig& with_roaming(Time dwell) {
        roaming = true;
        mean_dwell = dwell;
        return *this;
    }
    FederationConfig& with_admission(AdmissionPolicy v) { admission = v; return *this; }
    FederationConfig& with_capacity_per_ap(int v) { capacity_per_ap = v; return *this; }
    FederationConfig& with_defer_retry(Time v) { defer_retry = v; return *this; }
    FederationConfig& with_degrade_factor(double v) { degrade_factor = v; return *this; }
    FederationConfig& with_stream_rate(Rate v) { stream_rate = v; return *this; }
    FederationConfig& with_target_burst(DataSize v) { target_burst = v; return *this; }
    FederationConfig& with_radio_goodput(Rate v) { radio_goodput = v; return *this; }
    FederationConfig& with_backhaul_rate(Rate v) { backhaul_rate = v; return *this; }
    FederationConfig& with_sample_stride(int v) { sample_stride = v; return *this; }
    FederationConfig& with_health_path(std::string v) { health_path = std::move(v); return *this; }
    FederationConfig& with_stream_path(std::string v) {
        stream_path = std::move(v);
        return *this;
    }

    void validate() const;
};

/// Which world a scenario builds.  The WLAN station's power policy (cam,
/// psm, ecmac, micro_nap, pamas) is not a Policy: it is chosen on the cam
/// world with with_power_policy().
enum class Policy { cam, bt, hotspot, federation };

/// One scenario, fully described: policy + stream/world parameters +
/// policy-specific sub-config.  Fluent construction:
/// \code
///   auto spec = ScenarioSpec::cam()
///                   .with_clients(8)
///                   .with_duration(Time::from_seconds(120))
///                   .with_power_policy(policy::PowerPolicyConfig::of(policy::PolicyKind::psm)
///                                          .with_psm(/*listen_interval=*/2,
///                                                    /*aggregate_limit=*/1));
///   spec.validate();
///   auto result = SimBackend().run(spec, /*seed=*/42);
/// \endcode
/// validate() rejects incoherent combinations (a HotspotConfig on a cam
/// run, a fault plan on a policy without injection hooks, ...) with
/// actionable messages.
class ScenarioSpec {
public:
    // Named constructors, one per world; psm() and ecmac() are the cam
    // world with that power policy at its default knobs.
    [[nodiscard]] static ScenarioSpec cam() { return ScenarioSpec{Policy::cam}; }
    [[nodiscard]] static ScenarioSpec psm() {
        return cam().with_power_policy(policy::PowerPolicyConfig::of(policy::PolicyKind::psm));
    }
    [[nodiscard]] static ScenarioSpec ecmac() {
        return cam().with_power_policy(policy::PowerPolicyConfig::of(policy::PolicyKind::ecmac));
    }
    [[nodiscard]] static ScenarioSpec bt() { return ScenarioSpec{Policy::bt}; }
    [[nodiscard]] static ScenarioSpec hotspot() { return ScenarioSpec{Policy::hotspot}; }
    [[nodiscard]] static ScenarioSpec federation() {
        return ScenarioSpec{Policy::federation};
    }

    ScenarioSpec() = default;

    // --- stream / world ---------------------------------------------------
    ScenarioSpec& with_stream(StreamConfig stream) {
        stream_ = std::move(stream);
        return *this;
    }
    ScenarioSpec& with_clients(int clients) {
        stream_.clients = clients;
        return *this;
    }
    ScenarioSpec& with_duration(Time duration) {
        stream_.duration = duration;
        return *this;
    }
    ScenarioSpec& with_wlan_link(channel::GilbertElliottConfig link) {
        stream_.wlan_link = link;
        return *this;
    }
    ScenarioSpec& with_bt_link(channel::GilbertElliottConfig link) {
        stream_.bt_link = link;
        return *this;
    }
    ScenarioSpec& with_wlan_nic(phy::WlanNicConfig nic) {
        stream_.wlan_nic = nic;
        return *this;
    }
    ScenarioSpec& with_bt_nic(phy::BtNicConfig nic) {
        stream_.bt_nic = nic;
        return *this;
    }
    ScenarioSpec& with_fault_plan(fault::FaultPlan plan) {
        stream_.fault_plan = std::move(plan);
        return *this;
    }

    // --- policy sub-configs ----------------------------------------------
    ScenarioSpec& with_hotspot(HotspotConfig config) {
        hotspot_ = std::move(config);
        hotspot_set_ = true;
        return *this;
    }
    ScenarioSpec& with_federation(FederationConfig config) {
        fed_ = std::move(config);
        fed_set_ = true;
        return *this;
    }
    /// Select the WLAN station's power policy and its knobs (src/policy):
    /// cam, psm, ecmac, micro_nap or pamas.  Rides the cam world only;
    /// without it the cam world runs CAM.
    ScenarioSpec& with_power_policy(policy::PowerPolicyConfig config) {
        power_ = std::move(config);
        power_set_ = true;
        return *this;
    }

    // --- accessors --------------------------------------------------------
    [[nodiscard]] Policy policy() const { return policy_; }
    [[nodiscard]] const StreamConfig& stream() const { return stream_; }
    [[nodiscard]] StreamConfig& stream() { return stream_; }
    [[nodiscard]] const HotspotConfig& hotspot_config() const { return hotspot_; }
    [[nodiscard]] const FederationConfig& federation_config() const { return fed_; }
    [[nodiscard]] bool has_power_policy() const { return power_set_; }
    [[nodiscard]] const policy::PowerPolicyConfig& power_policy_config() const { return power_; }

    /// Scenario label matching the historical ScenarioResult labels
    /// ("wlan-cam", "wlan-psm", "ec-mac", "bt-active", "hotspot-<sched>",
    /// "hotspot-mixed-<sched>" with video/web clients).
    [[nodiscard]] std::string label() const;

    /// Reject structurally invalid or incoherent specs with a
    /// ContractViolation whose message names the offending field and the
    /// fix.  Backends call this before running.
    void validate() const;

private:
    explicit ScenarioSpec(Policy policy) : policy_(policy) {}

    Policy policy_ = Policy::cam;
    StreamConfig stream_;
    HotspotConfig hotspot_;
    FederationConfig fed_;
    policy::PowerPolicyConfig power_;
    // Sub-configs explicitly set via with_* — validate() rejects ones that
    // do not belong to the chosen policy.
    bool hotspot_set_ = false;
    bool fed_set_ = false;
    bool power_set_ = false;
};

}  // namespace wlanps::core
