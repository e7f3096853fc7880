#pragma once
/// \file power_policy.hpp
/// Pluggable power-saving policy interface (ROADMAP item 4).
///
/// A PowerPolicy observes the MAC's medium-state transitions through
/// explicit hooks — NAV set/clear, backoff start, TX/RX boundaries, beacon
/// ticks, battery-level updates — and decides when the station's radio
/// sleeps.  The MAC never sleeps on its own in a policy-driven world: the
/// policy owns the radio's idle time, the MAC owns its busy time.
///
/// The interface deliberately sits below mac/ in the layering: it depends
/// only on sim/ and phy/, so mac::Bss and mac::DcfTransmitter can drive
/// the hooks through a forward-declared pointer without a dependency
/// cycle.  Concrete policies (policy.hpp, micro_nap.hpp, pamas_policy.hpp)
/// and the policy-driven station live in the wlanps_policy library above
/// mac/.

#include <functional>
#include <string_view>

#include "phy/wlan_nic.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wlanps::policy {

/// Per-station power-saving policy driven by MAC callbacks.
///
/// Hook contract (DESIGN.md §14):
///  - Hooks are notifications, never questions: the MAC reports what is
///    happening on the medium and carries on.  A policy acts only through
///    the attached NIC (request_state/wake) and its own scheduled events.
///  - `on_nav_set(until)` fires when a third-party frame exchange reserves
///    the medium up to `until` (data airtime + SIFS + ACK).  The station
///    is neither the source nor the destination of that exchange.
///  - `on_backoff_start(fire_at)` fires when the station's own DCF
///    schedules a transmit attempt at `fire_at`; the radio must be awake
///    again by then (DcfTransmitter::fire asserts it).
///  - `on_tx_start/on_rx_start(done_at)` bracket the station's own
///    airtime; `on_tx_end/on_rx_end` fire when the exchange resolves.
///  - `on_beacon_tick(next)` fires at each AP beacon with the time of the
///    next one; `on_battery_level(level)` reports the battery fraction in
///    [0,1] after each drain.
///  - `on_host_wake()` fires when the host stack independently needs the
///    radio awake (e.g. an uplink enqueue while napping); the policy must
///    cancel any sleep bookkeeping so the host's wake() lands cleanly.
class PowerPolicy {
public:
    /// Host predicate: true when the MAC has no pending work that needs
    /// the radio (DCF idle, no uplink in flight).  Policies consult it
    /// before voluntary sleeps that are not bounded by their own hooks.
    using MaySleep = std::function<bool()>;

    virtual ~PowerPolicy() = default;

    [[nodiscard]] virtual std::string_view name() const = 0;

    /// Bind the policy to its station's simulator and radio.  Called once
    /// by the policy-driven station before the simulation starts.
    virtual void attach(sim::Simulator& sim, phy::WlanNic& nic, MaySleep may_sleep = {}) {
        sim_ = &sim;
        nic_ = &nic;
        may_sleep_ = std::move(may_sleep);
    }

    // --- medium-state hooks (all optional) -----------------------------
    virtual void on_nav_set(Time until) { (void)until; }
    virtual void on_nav_clear() {}
    virtual void on_backoff_start(Time fire_at) { (void)fire_at; }
    virtual void on_tx_start(Time done_at) { (void)done_at; }
    virtual void on_tx_end() {}
    virtual void on_rx_start(Time done_at) { (void)done_at; }
    virtual void on_rx_end() {}
    virtual void on_beacon_tick(Time next) { (void)next; }
    virtual void on_battery_level(double level) { (void)level; }
    virtual void on_host_wake() {}

    /// Duty-cycle period the station should sleep between activity
    /// checks, or zero for policies that do not duty-cycle (CAM, PSM,
    /// μNap).  Re-queried every cycle so the policy can adapt
    /// it (PAMAS stretches it as the battery drains).
    [[nodiscard]] virtual Time sleep_quantum() const { return Time::zero(); }

    /// Beacons between TIM checks for a policy that dozes on the AP's
    /// beacon grid (802.11 PSM), or zero for every other policy.
    [[nodiscard]] virtual int listen_interval() const { return 0; }

protected:
    sim::Simulator* sim_ = nullptr;
    phy::WlanNic* nic_ = nullptr;
    MaySleep may_sleep_;
};

}  // namespace wlanps::policy
