/// Targeted edge-case and regression tests across modules.

#include <gtest/gtest.h>

#include <memory>

#include "core/scheduler.hpp"
#include "mac/access_point.hpp"
#include "mac/ecmac.hpp"
#include "net/probing.hpp"
#include "policy/station.hpp"
#include "power/state_machine.hpp"
#include "sim/simulator.hpp"

namespace wlanps {
namespace {

using namespace time_literals;

// ---- sim kernel --------------------------------------------------------------

TEST(EdgeSim, CancelDuringSameTimestampBatch) {
    sim::Simulator sim;
    int fired = 0;
    sim::EventHandle second;
    sim.schedule_at(1_ms, [&] {
        ++fired;
        second.cancel();  // cancel a simultaneous, not-yet-run event
    });
    second = sim.schedule_at(1_ms, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
}

TEST(EdgeSim, PeriodicRestartReplacesSchedule) {
    sim::Simulator sim;
    std::vector<Time> fires;
    sim::PeriodicEvent periodic(sim, 10_ms, [&] { fires.push_back(sim.now()); });
    periodic.start();
    sim.run_until(15_ms);          // fired at 10
    periodic.start_at(100_ms);     // re-anchor
    sim.run_until(125_ms);         // fires at 100, 110, 120
    ASSERT_EQ(fires.size(), 4u);
    EXPECT_EQ(fires[1], 100_ms);
}

TEST(EdgeSim, ScheduleAtCurrentTimeRunsThisTurn) {
    sim::Simulator sim;
    bool inner = false;
    sim.schedule_at(5_ms, [&] {
        sim.schedule_at(sim.now(), [&] { inner = true; });
    });
    sim.run();
    EXPECT_TRUE(inner);
}

// ---- power -------------------------------------------------------------------

TEST(EdgePower, RequestDuringTransitionToSameTargetCoalesces) {
    sim::Simulator sim;
    power::PowerModel model;
    const auto off = model.add_state("off", power::Power::zero());
    const auto on = model.add_state("on", power::Power::from_watts(1.0));
    model.add_transition(off, on, 100_ms, power::Energy::from_joules(0.01));
    power::PowerStateMachine machine(sim, model, off);
    int completions = 0;
    machine.request(on, [&] { ++completions; });
    machine.request(on, [&] { ++completions; });  // queued to the same target
    sim.run();
    EXPECT_EQ(machine.state(), on);
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(machine.entries(on), 1u);  // entered once, not twice
}

TEST(EdgePower, AverageOfFreshMachineIsCurrentDraw) {
    sim::Simulator sim;
    power::PowerModel model;
    const auto on = model.add_state("on", power::Power::from_watts(0.7));
    power::PowerStateMachine machine(sim, model, on);
    EXPECT_NEAR(machine.average_power().watts(), 0.7, 1e-12);  // zero elapsed
}

// ---- mac ---------------------------------------------------------------------

TEST(EdgeMac, PsmStationSurvivesMissingBeacons) {
    // The AP never starts: the station wakes for expected beacons, times
    // out, and returns to doze — power stays near the doze level.
    sim::Simulator sim;
    sim::Random root(5);
    mac::Bss bss(sim);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = mac::ApMode::psm;
    mac::AccessPoint ap(sim, bss, ap_cfg, mac::DcfConfig{}, root.fork(1));
    policy::PsmPolicy psm;
    policy::PolicyStation st(sim, bss, ap, 1, psm,
                             policy::PowerPolicyConfig::of(policy::PolicyKind::psm),
                             mac::DcfConfig{}, phy::WlanNicConfig{}, root.fork(2));
    st.start();  // no ap.start()
    sim.run_until(Time::from_seconds(10));
    EXPECT_EQ(st.beacons_heard(), 0u);
    EXPECT_LT(st.average_power().watts(), 0.30);  // wake+timeout duty only
    EXPECT_EQ(st.wlan_nic().state(), phy::WlanNic::State::doze);
}

TEST(EdgeMac, ApNullResponseToStalePoll) {
    // A PS-Poll for an already-drained buffer gets a zero-length null
    // frame so the station can doze.
    sim::Simulator sim;
    sim::Random root(6);
    mac::Bss bss(sim);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = mac::ApMode::psm;
    mac::AccessPoint ap(sim, bss, ap_cfg, mac::DcfConfig{}, root.fork(1));
    policy::CamPolicy cam;  // stays awake so we can poll manually
    policy::PolicyStation st(sim, bss, ap, 1, cam,
                             policy::PowerPolicyConfig::of(policy::PolicyKind::cam),
                             mac::DcfConfig{}, phy::WlanNicConfig{}, root.fork(2));
    mac::Frame poll;
    poll.kind = mac::FrameKind::ps_poll;
    poll.src = 1;
    poll.dst = mac::kApId;
    poll.payload = DataSize::from_bytes(20);
    st.dcf().enqueue(poll);
    sim.run();
    // The null response is not counted as received data.
    EXPECT_EQ(st.frames_received(), 0u);
    EXPECT_TRUE(st.bytes_received().is_zero());
}

TEST(EdgeMac, EcMacIdleSuperframesCarryOnlySchedules) {
    sim::Simulator sim;
    sim::Random root(7);
    mac::Bss bss(sim);
    mac::EcMacConfig cfg;
    mac::EcMacController controller(sim, bss, cfg, root.fork(1));
    mac::EcMacStation st(sim, bss, 1, cfg, phy::WlanNicConfig{});
    controller.start();
    st.start(controller.superframe_anchor());
    sim.run_until(Time::from_seconds(2));
    // ~20 superframes, one schedule broadcast each, zero data.
    EXPECT_EQ(controller.superframes(), 20u);
    EXPECT_EQ(bss.medium().transmissions(), 20u);
    EXPECT_EQ(st.frames_received(), 0u);
}

// ---- core scheduler -----------------------------------------------------------

TEST(EdgeScheduler, WfqNormalizedServiceAccounting) {
    core::WfqScheduler wfq;
    core::BurstRequest r;
    r.client = 3;
    r.size = DataSize::from_kilobytes(10);
    r.weight = 2.0;
    EXPECT_DOUBLE_EQ(wfq.normalized_service(3), 0.0);
    wfq.on_dispatch(r, 1_ms);
    EXPECT_DOUBLE_EQ(wfq.normalized_service(3),
                     static_cast<double>(r.size.bits()) / 2.0);
}

TEST(EdgeScheduler, SinglePendingAlwaysPicked) {
    for (const char* name : {"edf", "wfq", "round-robin", "fixed-priority", "fifo"}) {
        auto s = core::make_scheduler(name);
        std::vector<core::BurstRequest> pending(1);
        pending[0].client = 9;
        pending[0].weight = 1.0;
        EXPECT_EQ(s->pick(pending, Time::zero()), 0u) << name;
    }
}

// ---- net ----------------------------------------------------------------------

TEST(EdgeNet, ProbingSegmentAccounting) {
    net::ProbingConfig cfg;
    const net::ProbingTcpAgent agent(cfg);
    channel::GilbertElliottConfig clean;
    clean.ber_good = clean.ber_bad = 0.0;
    channel::GilbertElliott ch(clean, sim::Random(9));
    const DataSize payload = cfg.tcp.mss * 10.0;  // exactly 10 segments
    const auto r = agent.bulk_transfer(payload, ch);
    EXPECT_EQ(r.segments_sent, 10);
    EXPECT_GE(r.rounds, 4);  // slow start: 1+2+4+3
}

}  // namespace
}  // namespace wlanps
