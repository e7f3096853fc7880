#include "policy/station.hpp"

#include <algorithm>
#include <utility>

#include "obs/energy_ledger.hpp"
#include "obs/flight.hpp"
#include "obs/hooks.hpp"
#include "sim/assert.hpp"
#include "sim/logger.hpp"

namespace wlanps::policy {

using mac::Frame;
using mac::FrameKind;

namespace {

// Beacon-driven (PSM) timing.
/// Extra guard the station wakes ahead of the expected beacon, on top of
/// the doze wake latency.
constexpr Time kWakeGuard = Time::from_ms(1);
/// Give up waiting for a beacon this long after its expected time.
constexpr Time kBeaconTimeout = Time::from_ms(20);
/// Give up on a PS-Poll response after this long and re-poll / doze.
constexpr Time kPollTimeout = Time::from_ms(50);
constexpr int kPollRetryLimit = 3;
constexpr DataSize kPsPollSize = DataSize::from_bytes(20);

}  // namespace

PolicyStation::PolicyStation(sim::Simulator& sim, mac::Bss& bss, mac::AccessPoint& ap,
                             mac::StationId id, PowerPolicy& policy,
                             PowerPolicyConfig config, mac::DcfConfig dcf,
                             phy::WlanNicConfig nic_config, sim::Random rng)
    : sim_(sim),
      bss_(bss),
      ap_(ap),
      id_(id),
      policy_(policy),
      config_(std::move(config)),
      duty_cycle_(policy.sleep_quantum() > Time::zero()),
      listen_interval_(policy.listen_interval()),
      nic_(sim, nic_config,
           duty_cycle_ || beacon_driven() ? phy::WlanNic::State::doze
                                          : phy::WlanNic::State::idle),
      dcf_(sim, bss.medium(), nic_, bss, rng, dcf),
      rng_(rng.fork(2)) {
    WLANPS_REQUIRE_MSG(id != mac::kApId && id != mac::kBroadcast, "reserved station id");
    if (duty_cycle_) {
        WLANPS_REQUIRE_MSG(ap.mode() == mac::ApMode::psm,
                           "duty-cycling policies need a buffering (PSM-mode) AP");
        battery_.emplace(config_.pamas.battery);
    }
    bss_.attach(id, *this);
}

void PolicyStation::start() {
    policy_.attach(sim_, nic_, [this] { return may_sleep(); });
    bss_.register_policy(id_, &policy_);
    dcf_.set_power_policy(&policy_);
    bss_.medium().on_idle([this] { policy_.on_nav_clear(); });
    ap_.on_beacon([this](const std::set<mac::StationId>&) {
        policy_.on_beacon_tick(sim_.now() + ap_.config().beacon_interval);
    });
    if (duty_cycle_) {
        policy_.on_battery_level(battery_->level());
        reschedule_cycle();
    }
    if (beacon_driven()) {
        next_beacon_at_ = sim_.now() + ap_.config().beacon_interval;
        schedule_wake_for_next_beacon();
    }
    if (!config_.uplink_period.is_zero()) schedule_uplink();
}

void PolicyStation::reschedule_cycle() {
    const Time quantum = policy_.sleep_quantum();
    WLANPS_REQUIRE_MSG(quantum > Time::zero(), "duty-cycle quantum must stay positive");
    sim_.post_in(quantum, [this] { cycle(); });
}

void PolicyStation::cycle() {
    drain_battery();
    if (battery_->empty()) {
        nic_.deep_sleep();  // dead node: radio off, no more cycles
        return;
    }
    ++cycles_;
    // Probe (free, signaling channel): anything buffered for us?
    if (ap_.buffered(id_) == 0) {
        reschedule_cycle();
        return;
    }
    // Close the doze span (idle_listen, matching the PSM convention) and
    // charge the wake transition + buffer drain to beacon_wake until the
    // first data frame flips it to burst_rx.
    nic_.set_energy_cause(obs::EnergyCause::beacon_wake);
    retrieving_ = true;
    nic_.wake([this] {
        ap_.flush_to(id_, [this] {
            retrieving_ = false;
            nic_.doze();
            nic_.set_energy_cause(obs::EnergyCause::idle_listen);
            drain_battery();
            reschedule_cycle();
        });
    });
}

void PolicyStation::drain_battery() {
    const power::Energy total = nic_.energy_consumed();
    const power::Energy delta = total - drained_;
    drained_ = total;
    if (delta > power::Energy::zero()) {
        battery_->drain(delta, nic_.average_power());
    }
    policy_.on_battery_level(battery_->level());
}

void PolicyStation::on_frame(const Frame& frame) {
    switch (frame.kind) {
        case FrameKind::beacon:
            ++beacons_heard_;
            if (beacon_driven()) {
                WLANPS_OBS_COUNT("mac.psm.beacons_heard", 1);
                if (awaiting_beacon_) {
                    awaiting_beacon_ = false;
                    timeout_event_.cancel();
                    on_beacon(frame);
                }
            }
            return;
        case FrameKind::data:
            if (!frame.payload.is_zero()) {
                ++frames_received_;
                bytes_received_ += frame.payload;
                latency_.add((sim_.now() - frame.enqueued_at).to_seconds());
                if (duty_cycle_) nic_.set_energy_cause(obs::EnergyCause::burst_rx);
                if (on_receive_) on_receive_(frame.payload, sim_.now() - frame.enqueued_at);
            }
            // A PS-Poll response (even a zero-length null frame) continues
            // or ends the retrieval.
            if (beacon_driven() && retrieving_) {
                nic_.set_energy_cause(obs::EnergyCause::burst_rx);
                timeout_event_.cancel();
                if (frame.more_data) {
                    poll_retries_ = 0;
                    send_poll();
                } else {
                    retrieving_ = false;
                    back_to_doze();
                }
            }
            return;
        case FrameKind::ack:
        case FrameKind::ps_poll:
        case FrameKind::schedule:
            return;
    }
}

void PolicyStation::send_up(DataSize payload, std::function<void(bool)> done) {
    ++uplink_in_flight_;
    auto transmit = [this, payload, done = std::move(done)]() mutable {
        Frame f;
        f.kind = FrameKind::data;
        f.src = id_;
        f.dst = mac::kApId;
        f.payload = payload;
        dcf_.enqueue(std::move(f), [this, payload, done = std::move(done)](
                                       const mac::DcfTransmitter::Result& r) {
            --uplink_in_flight_;
            if (r.delivered) bytes_sent_ += payload;
            if (done) done(r.delivered);
            // A sleeping shape dozes again once its uplink drains.  The
            // beacon-wake cycle keeps running, so only the radio state
            // changes here — no rescheduling.
            maybe_doze();
        });
    };
    // A PSM station charges the uplink airtime (and any wake it forces)
    // to transmission.
    if (beacon_driven()) nic_.set_energy_cause(obs::EnergyCause::tx);
    if (!nic_.awake()) {
        // The host preempts any policy nap; the policy drops its resume
        // bookkeeping and this wake() drives the radio back up.
        policy_.on_host_wake();
        nic_.wake(std::move(transmit));
    } else {
        transmit();
    }
}

void PolicyStation::schedule_uplink() {
    // Per-station random phase within the period decorrelates the fleet's
    // uplink attempts (all-at-once uplinks would collide every period).
    const Time jitter = config_.uplink_period * rng_.uniform(0.0, 1.0);
    sim_.post_in(config_.uplink_period + jitter, [this] {
        send_up(config_.uplink_size);
        schedule_uplink();
    });
}


void PolicyStation::maybe_doze() {
    if (!duty_cycle_ && !beacon_driven()) return;
    if (retrieving_ || awaiting_beacon_ || !may_sleep()) return;
    nic_.doze();
    nic_.set_energy_cause(obs::EnergyCause::idle_listen);
    if (beacon_driven()) {
        WLANPS_OBS_COUNT("mac.psm.doze_enters", 1);
    }
}

void PolicyStation::schedule_wake_for_next_beacon() {
    // Skip ahead by listen_interval beacons; if retrieval overran past the
    // next expected beacon, catch the first one still in the future.
    Time target = next_beacon_at_;
    const Time stride = ap_.config().beacon_interval * static_cast<double>(listen_interval_);
    while (target <= sim_.now()) target += stride;
    const Time margin = nic_.config().doze_wake_latency + kWakeGuard;
    Time wake_at = target - margin;
    if (wake_at < sim_.now()) wake_at = sim_.now();

    sim_.post_at(wake_at, [this, target] {
        // The doze span ends here; the wake transition and the listen for
        // the beacon are the price of the PSM listen cycle.
        nic_.set_energy_cause(obs::EnergyCause::beacon_wake);
        const Time wake_issued = sim_.now();
        nic_.wake([this, target, wake_issued] {
            WLANPS_OBS_COUNT("mac.psm.beacon_wakes", 1);
            WLANPS_OBS_FLIGHT(sim_.now().ns(), doze_wakeup, 0, id_, obs::kFlightItfWlan,
                              (sim_.now() - wake_issued).ns());
            WLANPS_LOG(sim::LogLevel::debug, sim_.now(), "psm",
                       "station " << id_ << " awake for beacon at " << target.str());
            awaiting_beacon_ = true;
            // If the beacon never arrives (collision/loss), doze again.
            timeout_event_ = sim_.schedule_at(target + kBeaconTimeout, [this] {
                if (awaiting_beacon_) {
                    awaiting_beacon_ = false;
                    back_to_doze();
                }
            });
        });
    });
    next_beacon_at_ = target + stride;
}

void PolicyStation::on_beacon(const Frame& beacon) {
    const bool flagged =
        std::find(beacon.tim.begin(), beacon.tim.end(), id_) != beacon.tim.end();
    if (!flagged) {
        back_to_doze();
        return;
    }
    retrieving_ = true;
    poll_retries_ = 0;
    // Mint a causal flow for this retrieval: every poll, data frame, and
    // doze of the cycle shares it in the flight recorder.
    ++flow_seq_;
    current_flow_ = obs::TraceContext{
        (static_cast<std::uint64_t>(id_) << 32) | flow_seq_,
        static_cast<std::uint32_t>(id_)};
    nic_.set_trace_context(current_flow_);
    send_poll();
}

void PolicyStation::send_poll() {
    Frame poll;
    poll.kind = FrameKind::ps_poll;
    poll.src = id_;
    poll.dst = mac::kApId;
    poll.payload = kPsPollSize;
    ++polls_sent_;
    WLANPS_OBS_COUNT("mac.psm.ps_polls", 1);
    WLANPS_OBS_FLIGHT(sim_.now().ns(), polled, current_flow_.flow, id_,
                      obs::kFlightItfWlan, poll_retries_);
    nic_.set_energy_cause(obs::EnergyCause::tx);
    dcf_.enqueue(std::move(poll), [this](const mac::DcfTransmitter::Result& r) {
        if (!retrieving_) {
            // Stale poll (retrieval already ended): doze if nothing else
            // keeps the radio up.
            maybe_doze();
            return;
        }
        if (!r.delivered) {
            poll_timed_out();
            return;
        }
        // Poll delivered; now wait for the AP's data response.
        timeout_event_ = sim_.schedule_in(kPollTimeout, [this] {
            if (retrieving_) poll_timed_out();
        });
    });
}

void PolicyStation::poll_timed_out() {
    ++poll_retries_;
    WLANPS_OBS_COUNT("mac.psm.poll_timeouts", 1);
    WLANPS_LOG(sim::LogLevel::debug, sim_.now(), "psm",
               "station " << id_ << " poll timeout, retry " << poll_retries_);
    if (poll_retries_ >= kPollRetryLimit) {
        retrieving_ = false;
        back_to_doze();  // give up until the next beacon re-advertises
        return;
    }
    send_poll();
}

void PolicyStation::back_to_doze() {
    // Never doze under an in-flight DCF transmission (e.g. a stale re-poll
    // racing a late AP response): the pending frame's completion calls
    // maybe_doze() once the transmitter drains.
    if (may_sleep()) {
        nic_.doze();
        nic_.set_energy_cause(obs::EnergyCause::idle_listen);
        WLANPS_OBS_COUNT("mac.psm.doze_enters", 1);
    }
    schedule_wake_for_next_beacon();
}

}  // namespace wlanps::policy
