#pragma once
/// \file station.hpp
/// Policy-driven 802.11 client station.
///
/// The station handles MAC mechanics only — frame delivery, uplink DCF,
/// battery accounting — and delegates every sleep decision to an attached
/// PowerPolicy.  Three operating shapes fall out of the policy:
///  - listen (zero sleep_quantum() and listen_interval(): CAM, μNap): the
///    radio stays associated and idle-listening; μNap naps it inside
///    NAV/backoff gaps via the MAC hooks.
///  - duty-cycle (positive sleep_quantum(): PAMAS): the station duty-cycles
///    against a buffering (PSM-mode) AP — sleep a quantum, wake if traffic
///    is buffered, drain it, sleep again — re-querying the quantum every
///    cycle so the policy can stretch it as the battery drains.
///  - beacon-driven (positive listen_interval(): 802.11 PSM): doze by
///    default, wake for every listen_interval-th beacon, and when the
///    beacon's TIM flags buffered traffic, retrieve it with PS-Polls until
///    the More-Data bit clears, then doze again.

#include <cstdint>
#include <functional>
#include <optional>

#include "mac/access_point.hpp"
#include "mac/bss.hpp"
#include "mac/dcf.hpp"
#include "mac/frame.hpp"
#include "phy/wlan_nic.hpp"
#include "policy/policy.hpp"
#include "power/battery.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace wlanps::policy {

/// A client station whose radio idle time is owned by a PowerPolicy.
class PolicyStation final : public mac::MacEntity {
public:
    using ReceiveCallback = std::function<void(DataSize payload, Time mac_latency)>;

    /// \p rng feeds the DCF backoff; its fork(2) feeds the uplink jitter.
    PolicyStation(sim::Simulator& sim, mac::Bss& bss, mac::AccessPoint& ap,
                  mac::StationId id, PowerPolicy& policy, PowerPolicyConfig config,
                  mac::DcfConfig dcf, phy::WlanNicConfig nic_config, sim::Random rng);

    /// Attach the policy to the radio, register the MAC hooks and begin
    /// operating (duty cycling / beacon waking / uplink, as configured).
    /// A beacon-driven station expects the AP's first beacon one beacon
    /// interval from now, i.e. it starts together with the AP.
    void start();

    void set_receive_callback(ReceiveCallback cb) { on_receive_ = std::move(cb); }

    /// Send \p payload upstream to the AP, waking a sleeping radio first.
    void send_up(DataSize payload, std::function<void(bool delivered)> done = {});

    [[nodiscard]] mac::StationId id() const { return id_; }
    [[nodiscard]] PowerPolicy& policy() { return policy_; }
    [[nodiscard]] const PowerPolicyConfig& config() const { return config_; }

    // Accounting.
    [[nodiscard]] power::Energy energy_consumed() const { return nic_.energy_consumed(); }
    [[nodiscard]] power::Power average_power() const { return nic_.average_power(); }
    [[nodiscard]] std::uint64_t frames_received() const { return frames_received_; }
    [[nodiscard]] DataSize bytes_received() const { return bytes_received_; }
    [[nodiscard]] DataSize bytes_sent() const { return bytes_sent_; }
    [[nodiscard]] std::uint64_t beacons_heard() const { return beacons_heard_; }
    [[nodiscard]] std::uint64_t polls_sent() const { return polls_sent_; }
    [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
    [[nodiscard]] const sim::Accumulator& delivery_latency() const { return latency_; }
    [[nodiscard]] phy::WlanNic& wlan_nic() { return nic_; }
    [[nodiscard]] mac::DcfTransmitter& dcf() { return dcf_; }
    /// Battery, when the policy duty-cycles (nullopt for listen-mode).
    [[nodiscard]] const power::Battery* battery() const {
        return battery_ ? &*battery_ : nullptr;
    }

    // --- MacEntity -----------------------------------------------------
    [[nodiscard]] phy::WlanNic& nic() override { return nic_; }
    [[nodiscard]] bool listening() const override { return nic_.awake(); }
    void on_frame(const mac::Frame& frame) override;

private:
    [[nodiscard]] bool beacon_driven() const { return listen_interval_ > 0; }
    [[nodiscard]] bool may_sleep() const {
        return dcf_.idle() && uplink_in_flight_ == 0;
    }
    void cycle();
    void reschedule_cycle();
    void drain_battery();
    void schedule_uplink();
    /// Doze after an uplink unless a retrieval or beacon wait needs the radio.
    void maybe_doze();

    // Beacon-driven (PSM) cycle.
    void schedule_wake_for_next_beacon();
    void on_beacon(const mac::Frame& beacon);
    void send_poll();
    void poll_timed_out();
    void back_to_doze();

    sim::Simulator& sim_;
    mac::Bss& bss_;
    mac::AccessPoint& ap_;
    mac::StationId id_;
    PowerPolicy& policy_;
    PowerPolicyConfig config_;
    bool duty_cycle_;
    int listen_interval_;
    phy::WlanNic nic_;
    mac::DcfTransmitter dcf_;
    sim::Random rng_;
    std::optional<power::Battery> battery_;
    power::Energy drained_;
    ReceiveCallback on_receive_;

    std::uint64_t frames_received_ = 0;
    DataSize bytes_received_;
    DataSize bytes_sent_;
    std::uint64_t beacons_heard_ = 0;
    std::uint64_t polls_sent_ = 0;
    std::uint64_t cycles_ = 0;
    /// The radio is up to drain the AP's buffer (a duty-cycle flush or a
    /// PS-Poll retrieval).
    bool retrieving_ = false;
    int uplink_in_flight_ = 0;
    sim::Accumulator latency_;

    Time next_beacon_at_ = Time::zero();
    bool awaiting_beacon_ = false;
    int poll_retries_ = 0;
    /// One causal flow per TIM-flagged retrieval: (station id << 32 | seq),
    /// so PSM flows never collide with the hotspot server's 1-based mint.
    std::uint64_t flow_seq_ = 0;
    obs::TraceContext current_flow_;
    sim::EventHandle timeout_event_;
};

}  // namespace wlanps::policy
