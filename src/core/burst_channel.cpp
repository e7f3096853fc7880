#include "core/burst_channel.hpp"

#include <algorithm>
#include <utility>

#include "obs/flight.hpp"
#include "sim/assert.hpp"

namespace wlanps::core {

WlanBurstChannel::WlanBurstChannel(sim::Simulator& sim, phy::WlanNic& nic,
                                   channel::WirelessLink* link, Config config)
    : sim_(sim), nic_(nic), link_(link), config_(config) {
    WLANPS_REQUIRE(config_.mpdu > DataSize::zero());
    WLANPS_REQUIRE(config_.rate > Rate::zero());
    WLANPS_REQUIRE(config_.retry_limit >= 1);
}

Rate WlanBurstChannel::goodput() const {
    // One scheduled MPDU exchange: DIFS + DATA + SIFS + ACK.
    const DataSize on_air = config_.mpdu + phy::calibration::kWlanMacHeader;
    const Time data_air = phy::calibration::kWlanPlcpOverhead + config_.rate.transmit_time(on_air);
    const Time ack_air = phy::calibration::kWlanPlcpOverhead +
                         phy::calibration::kWlanRate2.transmit_time(phy::calibration::kWlanAckFrame);
    const Time exchange = phy::calibration::kWlanDifs + data_air +
                          phy::calibration::kWlanSifs + ack_air;
    return Rate::from_bps(static_cast<double>(config_.mpdu.bits()) / exchange.to_seconds());
}

double WlanBurstChannel::quality(Time now) {
    // A locked-up NIC reports a dead channel so the selector routes around
    // it (the client RM can still observe the lockup, just not fix it).
    if (nic_.locked(now)) return 0.0;
    return link_ == nullptr ? 1.0 : link_->quality(now);
}

void WlanBurstChannel::transfer(DataSize size, Completion done) {
    WLANPS_REQUIRE_MSG(!busy_, "burst channel already transferring");
    WLANPS_REQUIRE_MSG(nic_.awake(), "client WLAN NIC must be awake for a scheduled burst");
    WLANPS_REQUIRE(size > DataSize::zero());
    busy_ = true;
    progress_ = Progress{size, Result{}, std::move(done), sim_.now(), 0};
    next_chunk();
}

void WlanBurstChannel::next_chunk() {
    if (progress_.remaining.is_zero()) {
        busy_ = false;
        progress_.result.ok = progress_.result.lost.is_zero();
        progress_.result.elapsed = sim_.now() - progress_.started_at;
        if (progress_.done) progress_.done(progress_.result);
        return;
    }
    const DataSize chunk = std::min(progress_.remaining, config_.mpdu);
    const DataSize on_air = chunk + phy::calibration::kWlanMacHeader;
    const Time data_air = phy::calibration::kWlanPlcpOverhead + config_.rate.transmit_time(on_air);
    const Time ack_air = nic_.ack_airtime();
    const Time exchange = phy::calibration::kWlanDifs + data_air +
                          phy::calibration::kWlanSifs + ack_air;

    // Forced failures (crashed client, locked-up NIC firmware) bypass the
    // link entirely so the Gilbert–Elliott chain and its RNG see exactly
    // the same sequence as a fault-free run — the determinism contract.
    const bool forced_fail = forced_outage() || nic_.locked(sim_.now());
    const bool ok =
        !forced_fail && (link_ == nullptr || link_->transmit(sim_.now(), on_air, config_.rate));

    // Client radio: listens through DIFS (idle), receives the data frame,
    // transmits the ACK.
    sim_.post_in(phy::calibration::kWlanDifs, [this, data_air, ack_air] {
        if (nic_.awake()) {
            // A retry re-receives the same chunk: its airtime is energy the
            // first attempt should not have cost.
            nic_.set_energy_cause(progress_.retries > 0
                                      ? obs::EnergyCause::retransmission
                                      : obs::EnergyCause::burst_rx);
            WLANPS_OBS_FLIGHT(sim_.now().ns(), rx, trace_context().flow,
                              trace_context().client, obs::kFlightItfWlan, data_air.ns());
            nic_.occupy(phy::WlanNic::State::rx, data_air);
            sim_.post_in(data_air + phy::calibration::kWlanSifs, [this, ack_air] {
                if (nic_.awake()) {
                    nic_.set_energy_cause(obs::EnergyCause::tx);
                    WLANPS_OBS_FLIGHT(sim_.now().ns(), tx, trace_context().flow,
                                      trace_context().client, obs::kFlightItfWlan,
                                      ack_air.ns());
                    nic_.occupy(phy::WlanNic::State::tx, ack_air);
                }
            });
        }
    });

    sim_.post_in(exchange, [this, chunk, ok] {
        if (ok) {
            progress_.remaining -= chunk;
            progress_.result.delivered += chunk;
            progress_.retries = 0;
            deliver(chunk);
        } else {
            ++progress_.retries;
            WLANPS_OBS_FLIGHT(sim_.now().ns(), retx, trace_context().flow,
                              trace_context().client, obs::kFlightItfWlan,
                              progress_.retries);
            if (progress_.retries >= config_.retry_limit) {
                progress_.remaining -= chunk;
                progress_.result.lost += chunk;
                progress_.retries = 0;
            }
        }
        next_chunk();
    });
}

BtBurstChannel::BtBurstChannel(bt::Piconet& piconet, bt::SlaveId id, bt::BtSlave& slave)
    : piconet_(piconet), id_(id), slave_(slave) {
    slave_.set_receive_callback([this](DataSize chunk) { deliver(chunk); });
}

double BtBurstChannel::quality(Time now) {
    auto* link = piconet_.link(id_);
    return link == nullptr ? 1.0 : link->quality(now);
}

void BtBurstChannel::transfer(DataSize size, Completion done) {
    WLANPS_REQUIRE_MSG(!busy_, "burst channel already transferring");
    WLANPS_REQUIRE(size > DataSize::zero());
    busy_ = true;
    slave_.nic().set_energy_cause(obs::EnergyCause::burst_rx);
    const Time started = slave_.nic().simulator().now();
    piconet_.send(id_, size, [this, size, started, done = std::move(done)](bool ok) {
        busy_ = false;
        WLANPS_OBS_FLIGHT(slave_.nic().simulator().now().ns(), rx, trace_context().flow,
                          trace_context().client, obs::kFlightItfBt,
                          (slave_.nic().simulator().now() - started).ns());
        // The baseband streams at the piconet's pace either way; a crashed
        // slave simply never ACKs at L2CAP level, so the burst is lost.
        if (forced_outage()) ok = false;
        Result r;
        r.ok = ok;
        r.delivered = ok ? size : DataSize::zero();
        r.lost = ok ? DataSize::zero() : size;
        r.elapsed = slave_.nic().simulator().now() - started;
        if (done) done(r);
    });
}

}  // namespace wlanps::core
