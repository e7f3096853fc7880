/// Robustness tests: the paper's headline claims must hold across random
/// seeds, and the protocols must degrade gracefully (not collapse or
/// crash) on genuinely bad channels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "bt/piconet.hpp"
#include "core/backend.hpp"
#include "core/burst_channel.hpp"
#include "core/client.hpp"
#include "core/scenario_spec.hpp"
#include "core/server.hpp"
#include "mac/access_point.hpp"
#include "policy/station.hpp"
#include "traffic/source.hpp"

namespace wlanps {
namespace {

using namespace time_literals;

const core::SimBackend backend;

// ---- The headline claim, across seeds -----------------------------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, HotspotSavingHoldsForAnySeed) {
    core::StreamConfig config;
    config.clients = 3;
    config.duration = Time::from_seconds(60);
    config.seed = GetParam();

    const auto cam = backend.run(core::ScenarioSpec::cam().with_stream(config));
    const auto hotspot = backend.run(core::ScenarioSpec::hotspot().with_stream(config));

    const double saving = 1.0 - hotspot.mean_wnic() / cam.mean_wnic();
    EXPECT_GT(saving, 0.90) << "seed " << GetParam();
    EXPECT_LT(saving, 0.995) << "seed " << GetParam();
    EXPECT_DOUBLE_EQ(hotspot.min_qos(), 1.0) << "seed " << GetParam();
}

TEST_P(SeedSweep, TechniqueLadderOrderingHolds) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = Time::from_seconds(60);
    config.seed = GetParam() + 100;

    const auto cam = backend.run(core::ScenarioSpec::cam().with_stream(config));
    const auto psm = backend.run(core::ScenarioSpec::psm().with_stream(config));
    const auto bt = backend.run(core::ScenarioSpec::bt().with_stream(config));
    EXPECT_GT(cam.mean_wnic().watts(), psm.mean_wnic().watts() * 2.0);
    EXPECT_GT(psm.mean_wnic().watts(), bt.mean_wnic().watts());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1, 7, 1234, 99999));

// ---- Graceful degradation on bad channels --------------------------------------

TEST(BadChannelTest, PsmDeliversMostTrafficOverLossyLink) {
    sim::Simulator sim;
    sim::Random root(55);
    mac::Bss bss(sim);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = mac::ApMode::psm;
    mac::AccessPoint ap(sim, bss, ap_cfg, mac::DcfConfig{}, root.fork(1));
    policy::PsmPolicy psm;
    policy::PolicyStation st(sim, bss, ap, 1, psm,
                             policy::PowerPolicyConfig::of(policy::PolicyKind::psm),
                             mac::DcfConfig{}, phy::WlanNicConfig{}, root.fork(2));
    channel::GilbertElliottConfig lossy;
    lossy.mean_good = 100_ms;
    lossy.mean_bad = 100_ms;
    lossy.ber_good = 1e-6;
    lossy.ber_bad = 2e-4;  // most 1500 B frames die in the bad state
    bss.set_link(1, lossy, root.fork(3));

    int sent = 0, delivered = 0;
    traffic::PoissonSource src(sim, [&](DataSize s) {
        ++sent;
        ap.send(1, s, [&](bool ok) { delivered += ok; });
    }, DataSize::from_bytes(1400), Rate::from_kbps(64), root.fork(4));

    ap.start();
    st.start();
    src.start();
    sim.run_until(Time::from_seconds(60));

    ASSERT_GT(sent, 200);
    // MAC retries recover most frames; a residue is dropped at the retry
    // limit (retries within one 100 ms bad burst all fail together) —
    // never a stall or a crash.
    EXPECT_GT(static_cast<double>(delivered) / sent, 0.78);
    // The station still dozes most of the time despite the retry traffic.
    EXPECT_LT(st.average_power().watts(), 0.35);
}

TEST(BadChannelTest, HotspotRebuffersLostChunksAndHoldsQos) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = Time::from_seconds(90);
    // Very bursty, error-prone links on both interfaces.
    config.wlan_link = {300_ms, 150_ms, 1e-6, 2e-4};
    config.bt_link = {300_ms, 150_ms, 1e-6, 2e-4};
    const auto result = backend.run(core::ScenarioSpec::hotspot().with_stream(config));
    // Lost chunks are re-bought by the server (live) / re-sent (stored);
    // the deep client buffer rides out the bad bursts.
    EXPECT_GT(result.min_qos(), 0.99);
    // Retries cost energy: still far below always-on.
    EXPECT_LT(result.mean_wnic().watts(), 0.20);
}

TEST(BadChannelTest, HotspotSurvivesBothLinksDegraded) {
    // Both interfaces scripted to poor quality: the selector falls back to
    // the best available channel, the run completes, QoS degrades but the
    // system neither crashes nor wedges.
    core::StreamConfig config;
    config.clients = 1;
    config.duration = Time::from_seconds(60);
    core::HotspotConfig options;
    channel::ScriptedQuality bad;
    bad.add_point(10_s, 1.0);
    bad.add_point(15_s, 0.35);
    options.bt_quality_script = bad;
    config.wlan_link = {100_ms, 400_ms, 1e-5, 1e-3};  // mostly bad WLAN
    const auto result = backend.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));
    EXPECT_GT(result.clients.front().received.bytes(),
              DataSize::from_kilobytes(200).bytes());
}

TEST(BadChannelTest, CamSurvivesNearDeadLink) {
    core::StreamConfig config;
    config.clients = 1;
    config.duration = Time::from_seconds(30);
    config.wlan_link = {50_ms, 500_ms, 1e-4, 2e-3};  // awful
    const auto result = backend.run(core::ScenarioSpec::cam().with_stream(config));
    // Retries exhaust on most frames; the run completes and power stays at
    // the always-on level (retries don't change the NIC duty much).
    EXPECT_GT(result.mean_wnic().watts(), 0.80);
    EXPECT_LT(result.min_qos(), 1.0);  // the stream does suffer
}

// ---- Fault recovery --------------------------------------------------------------

TEST(RecoveryTest, CrashMidBurstReclaimsReservationAndRejoins) {
    // Client 1 dies at 30 s (mid-stream, bursts in flight) and revives at
    // 45 s.  The liveness sweep must reclaim its reservation while it is
    // down, and the rejoin agent must get it re-registered after revival.
    core::StreamConfig config;
    config.clients = 3;
    config.duration = Time::from_seconds(120);
    config.fault_plan.client_crash(30_s, 15_s, 1);
    core::HotspotConfig options;
    options.resilience =
        core::ResilienceConfig{}.with_liveness_timeout(5_s).with_burst_repair(true);
    options.rejoin_enabled = true;
    const auto result = backend.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));

    EXPECT_GE(result.recovery.liveness_reclaims, 1u);
    EXPECT_GE(result.recovery.rejoins, 1u);
    ASSERT_FALSE(result.recovery.recover_times_s.empty());
    // The outage clock starts at the crash; rejoin can't beat the revival.
    EXPECT_GE(result.recovery.recover_times_s.front(), 15.0);
    EXPECT_LT(result.recovery.recover_times_s.front(), 40.0);
    // The survivors never notice.
    EXPECT_DOUBLE_EQ(result.clients[1].qos, 1.0);
    EXPECT_DOUBLE_EQ(result.clients[2].qos, 1.0);
    // The crashed client resumes streaming after the rejoin.
    EXPECT_GT(result.clients[0].received.bytes(),
              DataSize::from_kilobytes(800).bytes());
}

TEST(RecoveryTest, RejoinBackoffJitteredButSeedDeterministic) {
    // Drive a RejoinAgent against a server whose admission always refuses
    // (utilization cap ~0): every attempt fails, so attempt_times exposes
    // the full backoff ladder.
    const auto attempt_times = [](std::uint64_t seed) {
        sim::Simulator sim;
        sim::Random root(321);
        bt::Piconet piconet(sim, bt::PiconetConfig{}, root.fork(1));
        core::ServerConfig cfg;
        cfg.utilization_cap = 1e-9;  // nothing is admissible
        core::HotspotServer server(sim, cfg, core::make_scheduler("edf"));
        core::QosContract contract;
        contract.stream_rate = phy::calibration::kMp3Rate;
        core::HotspotClient client(sim, 1, contract);
        bt::BtSlave slave(sim, phy::BtNicConfig{}, phy::BtNic::State::active);
        const auto sid = piconet.join(slave);
        client.add_channel(std::make_unique<core::BtBurstChannel>(piconet, sid, slave));

        core::RejoinPolicy policy;
        policy.max_attempts = 6;
        core::RejoinAgent agent(sim, server, client, policy, sim::Random(seed));
        agent.on_lost();
        sim.run();
        EXPECT_EQ(agent.attempts(), 6u);
        EXPECT_EQ(agent.rejoins(), 0u);
        EXPECT_TRUE(agent.in_outage());  // gave up, still out
        return agent.attempt_times();
    };

    const auto a = attempt_times(910);
    const auto b = attempt_times(910);
    const auto c = attempt_times(911);
    EXPECT_EQ(a, b);  // bit-identical per seed
    EXPECT_NE(a, c);  // ...but genuinely random across seeds

    // Each gap is the exponential base stretched by jitter in [0, 50%).
    core::RejoinPolicy policy;
    bool any_jittered = false;
    for (std::size_t i = 1; i < a.size(); ++i) {
        const double gap = (a[i] - a[i - 1]).to_seconds();
        const double base =
            std::min(policy.initial_backoff.to_seconds() *
                         std::pow(policy.multiplier, static_cast<double>(i)),
                     policy.max_backoff.to_seconds());
        EXPECT_GE(gap, base * 0.999) << "attempt " << i;
        EXPECT_LE(gap, base * (1.0 + policy.jitter) * 1.001) << "attempt " << i;
        if (gap > base * 1.01) any_jittered = true;
    }
    EXPECT_TRUE(any_jittered);
}

TEST(RecoveryTest, ScheduleRepairNeverDoubleBooksWakeWindows) {
    // Aggressive schedule-message loss with the repair watchdog on.  Every
    // repair must hand the interface to exactly one successor: a double
    // booking would wake two clients into the same window and trip the
    // NIC-occupancy contracts (ContractViolation aborts the run).
    core::StreamConfig config;
    config.clients = 3;
    config.duration = Time::from_seconds(120);
    config.fault_plan.schedule_drop(5_s, 100_s, 0.5);
    core::HotspotConfig options;
    options.resilience = core::ResilienceConfig{}.with_burst_repair(true);
    const auto result = backend.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));

    EXPECT_GE(result.recovery.schedule_drops, 3u);
    EXPECT_GE(result.recovery.burst_repairs, 3u);
    // A drop wedges the interface until its watchdog fires, so repairs
    // can't outnumber drops (each repair corresponds to one lost message).
    EXPECT_LE(result.recovery.burst_repairs, result.recovery.schedule_drops);
    // Despite losing half the schedule messages for 100 s, every client
    // keeps streaming — the planner replans the repaired bursts.
    for (const auto& c : result.clients) {
        EXPECT_GT(c.received.bytes(), DataSize::from_kilobytes(900).bytes());
    }
}

// ---- Long-run stability ----------------------------------------------------------

TEST(LongRunTest, HotspotStableOverTwentyMinutes) {
    core::StreamConfig config;
    config.clients = 3;
    config.duration = Time::from_seconds(1200);
    const auto result = backend.run(core::ScenarioSpec::hotspot().with_stream(config));
    EXPECT_DOUBLE_EQ(result.min_qos(), 1.0);
    for (const auto& c : result.clients) {
        EXPECT_NEAR(c.wnic_average.watts(), 0.035, 0.004);
        // 1200 s * 16 KB/s ~ 18.75 MB each.
        EXPECT_GT(c.received.bytes(), DataSize::from_kilobytes(18000).bytes());
    }
}

}  // namespace
}  // namespace wlanps
