/// Parameterized property sweeps: monotonicity and cross-model agreement
/// over parameter ranges (not single points).

#include <gtest/gtest.h>

#include <memory>

#include "bt/piconet.hpp"
#include "channel/gilbert_elliott.hpp"
#include "core/backend.hpp"
#include "core/burst_channel.hpp"
#include "core/scenario_spec.hpp"
#include "core/selector.hpp"
#include "power/duty_cycle.hpp"
#include "sim/simulator.hpp"

namespace wlanps {
namespace {

using namespace time_literals;

const core::SimBackend backend;

// ---- Gilbert-Elliott stationarity across configurations --------------------------

class GeSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GeSweep, ObservedFractionMatchesStationary) {
    const auto [good_ms, bad_ms] = GetParam();
    channel::GilbertElliottConfig cfg;
    cfg.mean_good = Time::from_ms(good_ms);
    cfg.mean_bad = Time::from_ms(bad_ms);
    channel::GilbertElliott ch(cfg, sim::Random(static_cast<std::uint64_t>(good_ms)));
    (void)ch.state_at(Time::from_seconds(3000));
    EXPECT_NEAR(ch.observed_good_fraction(), cfg.stationary_good(), 0.04)
        << good_ms << "/" << bad_ms;
}

INSTANTIATE_TEST_SUITE_P(Sojourns, GeSweep,
                         ::testing::Values(std::pair{100, 100}, std::pair{500, 50},
                                           std::pair{50, 500}, std::pair{1000, 10},
                                           std::pair{20, 20}));

// ---- PSM listen interval monotonicity ----------------------------------------------

class ListenIntervalSweep : public ::testing::TestWithParam<int> {};

TEST_P(ListenIntervalSweep, PowerFallsLatencyRises) {
    core::StreamConfig config;
    config.clients = 1;
    config.duration = Time::from_seconds(45);

    const auto psm = [&](int listen_interval) {
        return backend.run(core::ScenarioSpec::cam().with_stream(config).with_power_policy(
            policy::PowerPolicyConfig::of(policy::PolicyKind::psm).with_psm(listen_interval, 1)));
    };
    const auto r1 = psm(1);
    const auto rn = psm(GetParam());
    EXPECT_LE(rn.mean_wnic().watts(), r1.mean_wnic().watts() * 1.02)
        << "listen interval " << GetParam();
    // QoS still holds (MP3 tolerates the added beacon-multiple latency).
    EXPECT_DOUBLE_EQ(rn.min_qos(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Intervals, ListenIntervalSweep, ::testing::Values(2, 3, 5, 10));

// ---- Burst channel goodput grows with MPDU size --------------------------------------

class MpduSweep : public ::testing::TestWithParam<int> {};

TEST_P(MpduSweep, BiggerMpdusMeanFewerOverheadsAndFasterBursts) {
    sim::Simulator sim;
    phy::WlanNic nic(sim, phy::WlanNicConfig{}, phy::WlanNic::State::idle);
    core::WlanBurstChannel::Config small_cfg;
    small_cfg.mpdu = DataSize::from_bytes(GetParam());
    core::WlanBurstChannel::Config big_cfg;
    big_cfg.mpdu = DataSize::from_bytes(GetParam() * 2);
    core::WlanBurstChannel small(sim, nic, nullptr, small_cfg);
    core::WlanBurstChannel big(sim, nic, nullptr, big_cfg);
    EXPECT_GT(big.goodput().bps(), small.goodput().bps());
}

INSTANTIATE_TEST_SUITE_P(Mpdus, MpduSweep, ::testing::Values(250, 500, 750, 1000));

// ---- Selector prediction agrees with the analytic duty-cycle model ----------------------

TEST(SelectorCrossCheck, PredictedPowerMatchesDutyCycleModel) {
    sim::Simulator sim;
    bt::Piconet piconet(sim, bt::PiconetConfig{}, sim::Random(1));
    bt::BtSlave slave(sim, phy::BtNicConfig{}, phy::BtNic::State::active);
    const auto sid = piconet.join(slave);
    core::BtBurstChannel channel(piconet, sid, slave);

    const Rate rate = phy::calibration::kMp3Rate;
    const DataSize burst = DataSize::from_kilobytes(48);
    const auto predicted = core::InterfaceSelector::predicted_power(channel, rate, burst);

    // Same quantity via the analytic DutyCycleModel.
    power::DutyCycleModel duty;
    const Time period = rate.transmit_time(burst);
    const Time active = slave.nic().wake_latency() + channel.goodput().transmit_time(burst);
    duty.add_phase(slave.nic().active_power(), active);
    duty.add_phase(slave.nic().sleep_power(), period - active);
    EXPECT_NEAR(predicted.watts(), duty.average_power().watts(), 1e-9);
}

// ---- Simulated burst cadence matches the predicted duty cycle ---------------------------

class BurstCadenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(BurstCadenceSweep, SimulatedPowerNearPrediction) {
    const double kb = GetParam();
    core::StreamConfig config;
    config.clients = 1;
    config.duration = Time::from_seconds(90);
    // Perfect links isolate the duty-cycle arithmetic.
    config.bt_link.ber_good = config.bt_link.ber_bad = 0.0;
    config.wlan_link.ber_good = config.wlan_link.ber_bad = 0.0;
    core::HotspotConfig options;
    options.target_burst = DataSize::from_kilobytes(kb);
    options.target_burst_period = Time::from_ms(1);  // burst size governs
    const auto result = backend.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));

    // Analytic prediction for the BT-served stream.
    const Rate stream = phy::calibration::kMp3Rate;
    const Rate goodput = phy::calibration::kBtAclPeak;
    const double duty = stream / goodput;
    const double expected =
        duty * phy::calibration::kBtRx.watts() * (5.0 / 6.0) +
        duty * phy::calibration::kBtTx.watts() * (1.0 / 6.0) +
        (1.0 - duty) * phy::calibration::kBtPark.watts();
    // Within 20%: transitions, polls, and the unpark energy are extra.
    EXPECT_NEAR(result.mean_wnic().watts(), expected, expected * 0.20) << kb << " KB";
}

INSTANTIATE_TEST_SUITE_P(Bursts, BurstCadenceSweep, ::testing::Values(24.0, 48.0, 96.0));

// ---- Beacon interval sweep ----------------------------------------------------------------

class BeaconSweep : public ::testing::TestWithParam<int> {};

TEST_P(BeaconSweep, PsmWorksAcrossBeaconIntervals) {
    core::StreamConfig config;
    config.clients = 1;
    config.duration = Time::from_seconds(45);
    auto psm = policy::PowerPolicyConfig::of(policy::PolicyKind::psm);
    psm.beacon_interval = Time::from_ms(GetParam());
    const auto result =
        backend.run(core::ScenarioSpec::cam().with_stream(config).with_power_policy(psm));
    EXPECT_DOUBLE_EQ(result.min_qos(), 1.0) << GetParam() << " ms beacons";
    EXPECT_LT(result.mean_wnic().watts(), 0.45);
}

INSTANTIATE_TEST_SUITE_P(Beacons, BeaconSweep, ::testing::Values(50, 102, 200, 400));

}  // namespace
}  // namespace wlanps
