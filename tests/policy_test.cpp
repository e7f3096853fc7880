/// Tests for the pluggable power-policy subsystem (src/policy): policy
/// selection/parsing, μNap break-even math and nav_sleep reallocation,
/// PAMAS battery-driven stretching and duty cycling, plain cam() running
/// the cam kind, uplink support, per-policy fault whitelists, and exact
/// ledger attribution.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "fault/fault.hpp"
#include "mac/access_point.hpp"
#include "mac/bss.hpp"
#include "obs/energy_ledger.hpp"
#include "phy/calibration.hpp"
#include "phy/wlan_nic.hpp"
#include "policy/micro_nap.hpp"
#include "policy/pamas_policy.hpp"
#include "policy/policy.hpp"
#include "policy/station.hpp"
#include "policy/world.hpp"
#include "sim/assert.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "traffic/source.hpp"

namespace wlanps {
namespace {

namespace cal = phy::calibration;

const core::SimBackend backend;

core::ScenarioSpec policy_spec(policy::PowerPolicyConfig power, int clients = 2,
                               Time duration = Time::from_seconds(15)) {
    return core::ScenarioSpec::cam()
        .with_power_policy(std::move(power))
        .with_clients(clients)
        .with_duration(duration);
}

// --- selection & parsing -----------------------------------------------

TEST(PowerPolicySelectionTest, ParseRoundTripsEveryName) {
    const policy::PolicyKind kinds[] = {
        policy::PolicyKind::cam, policy::PolicyKind::psm, policy::PolicyKind::ecmac,
        policy::PolicyKind::micro_nap, policy::PolicyKind::pamas};
    for (const auto kind : kinds) {
        EXPECT_EQ(policy::parse_power_policy(policy::to_string(kind)), kind);
    }
    // CLI-friendly aliases.
    EXPECT_EQ(policy::parse_power_policy("micro-nap"), policy::PolicyKind::micro_nap);
    EXPECT_EQ(policy::parse_power_policy("ec-mac"), policy::PolicyKind::ecmac);
}

TEST(PowerPolicySelectionTest, ParseRejectsUnknownNameListingValidOnes) {
    try {
        (void)policy::parse_power_policy("warp-core");
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("warp-core"), std::string::npos);
        EXPECT_NE(what.find("micro_nap"), std::string::npos);
        EXPECT_NE(what.find("pamas"), std::string::npos);
    }
}

TEST(PowerPolicySelectionTest, EveryKindButEcmacHasAPolicyObject) {
    for (const auto kind : {policy::PolicyKind::cam, policy::PolicyKind::psm,
                            policy::PolicyKind::micro_nap, policy::PolicyKind::pamas}) {
        const auto made = policy::make_power_policy(policy::PowerPolicyConfig::of(kind));
        ASSERT_NE(made, nullptr) << policy::to_string(kind);
        EXPECT_EQ(made->name(), policy::to_string(kind));
    }
    const auto ecmac = policy::PowerPolicyConfig::of(policy::PolicyKind::ecmac);
    EXPECT_EQ(policy::make_power_policy(ecmac), nullptr);
    // psm carries its listen interval to the station's beacon-driven shape.
    EXPECT_EQ(policy::make_power_policy(
                  policy::PowerPolicyConfig::of(policy::PolicyKind::psm).with_psm(5, 1))
                  ->listen_interval(),
              5);
}

TEST(PowerPolicySelectionTest, LabelsFollowTheSelectedKind) {
    using policy::PolicyKind;
    using policy::PowerPolicyConfig;
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::cam)).label(), "wlan-cam");
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::psm)).label(), "wlan-psm");
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::ecmac)).label(), "ec-mac");
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::micro_nap)).label(),
              "micro-nap");
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::pamas)).label(), "pamas");
}

TEST(PowerPolicySelectionTest, PowerPolicyRidesTheCamBaseOnly) {
    const auto spec = core::ScenarioSpec::bt().with_power_policy(
        policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap));
    EXPECT_THROW(spec.validate(), ContractViolation);
}

// --- μNap break-even math ----------------------------------------------

TEST(MicroNapTest, BreakEvenGapMatchesNapCostTable) {
    sim::Simulator sim;
    phy::WlanNicConfig config;
    phy::WlanNic nic(sim, config);
    policy::MicroNapPolicy policy;
    policy.attach(sim, nic);

    // g* = max(round_trip + 2·guard,
    //          (E_trans − P_nap·t_trans) / (P_idle − P_nap))
    const phy::NapCostTable nap = config.nap;
    const double energy_term =
        (nap.round_trip_energy().joules() -
         config.doze.watts() * nap.round_trip().to_seconds()) /
        (config.idle.watts() - config.doze.watts());
    const Time fit_floor =
        nap.round_trip() + Time::from_us(20) + Time::from_us(20);
    const Time expected = std::max(fit_floor, Time::from_seconds(energy_term));
    EXPECT_EQ(policy.break_even_gap(), expected);

    // The default table must leave an MP3 exchange's NAV span (~780 µs)
    // worth napping through, or the whole policy is a no-op.
    EXPECT_LT(policy.break_even_gap(), Time::from_us(780));
}

TEST(MicroNapTest, AttachRejectsVulnerableWakeMargin) {
    sim::Simulator sim;
    phy::WlanNicConfig config;
    config.nap.wake_latency = Time::from_us(4);  // + 10µs guard < one 20µs slot
    phy::WlanNic nic(sim, config);
    policy::MicroNapConfig mc;
    mc.guard = Time::from_us(10);
    policy::MicroNapPolicy policy(mc);
    EXPECT_THROW(policy.attach(sim, nic), ContractViolation);
}

// --- μNap end-to-end: idle_listen -> nav_sleep reallocation -------------

TEST(MicroNapTest, ReallocatesIdleListenIntoNavSleep) {
    const Time duration = Time::from_seconds(15);

    obs::EnergyLedger cam_ledger;
    core::ScenarioResult cam;
    {
        obs::ScopedEnergyLedger scope(cam_ledger);
        cam = backend.run(
            policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::cam), 2,
                        duration),
            42);
    }

    obs::EnergyLedger nap_ledger;
    core::ScenarioResult nap;
    {
        obs::ScopedEnergyLedger scope(nap_ledger);
        nap = backend.run(
            policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap), 2,
                        duration),
            42);
    }

    // Sleep energy appears, idle listening shrinks, and the total drops —
    // all without costing playout QoS.
    EXPECT_GT(nap_ledger.cause_total(obs::EnergyCause::nav_sleep), 0.0);
    EXPECT_LT(nap_ledger.cause_total(obs::EnergyCause::idle_listen),
              cam_ledger.cause_total(obs::EnergyCause::idle_listen));
    EXPECT_LT(nap.mean_wnic().watts(), cam.mean_wnic().watts());
    EXPECT_GE(nap.min_qos(), 0.99);
    EXPECT_GT(nap.clients.size(), 0u);
    for (const auto& client : nap.clients) {
        EXPECT_GT(client.received.bytes(), 0);
    }
}

TEST(PolicyLedgerTest, ReconcilesAgainstAggregateNicEnergy) {
    const policy::PolicyKind kinds[] = {policy::PolicyKind::micro_nap,
                                        policy::PolicyKind::pamas};
    for (const auto kind : kinds) {
        obs::EnergyLedger ledger;
        double aggregate_j = 0.0;
        {
            obs::ScopedEnergyLedger scope(ledger);
            const auto result = backend.run(
                policy_spec(policy::PowerPolicyConfig::of(kind), 2,
                            Time::from_seconds(10)),
                42);
            for (const auto& client : result.clients) {
                aggregate_j += client.wnic_energy.joules();
            }
        }
        EXPECT_LT(std::fabs(ledger.total() - aggregate_j), 1e-9)
            << "policy " << policy::to_string(kind);
    }
}

// --- μNap world diagnostics (naps fire, uplink exercises backoff) -------

TEST(MicroNapTest, WorldCountsNapsAndServesUplink) {
    sim::Simulator sim;
    policy::PolicyWorldConfig wc;
    wc.clients = 2;
    wc.seed = 7;
    wc.policy = policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap)
                    .with_uplink(Time::from_ms(200), DataSize::from_bytes(200));
    policy::PolicyBssWorld world(sim, wc, nullptr);
    world.start();
    sim.run_until(Time::from_seconds(10));
    world.settle();

    for (int i = 0; i < wc.clients; ++i) {
        auto& policy = dynamic_cast<policy::MicroNapPolicy&>(world.policy(i));
        EXPECT_GT(policy.naps(), 0u) << "station " << i;
        EXPECT_GT(policy.napped(), Time::zero()) << "station " << i;
        EXPECT_FALSE(policy.napping()) << "station " << i;
        EXPECT_GT(world.station(i).frames_received(), 0u) << "station " << i;
        EXPECT_GT(world.station(i).bytes_sent().bytes(), 0) << "station " << i;
        EXPECT_EQ(world.station(i).battery(), nullptr);  // listen-mode: no pack
    }
}

// --- PAMAS: battery-driven stretch --------------------------------------

TEST(PamasTest, StretchFollowsThresholdTable) {
    policy::PamasPolicy policy{policy::PamasPolicyConfig{}};
    const Time base = policy.config().base_period;

    EXPECT_DOUBLE_EQ(policy.current_stretch(), 1.0);  // full battery
    EXPECT_EQ(policy.sleep_quantum(), base);

    policy.on_battery_level(0.6);
    EXPECT_DOUBLE_EQ(policy.current_stretch(), 2.0);
    policy.on_battery_level(0.3);
    EXPECT_DOUBLE_EQ(policy.current_stretch(), 4.0);
    policy.on_battery_level(0.1);
    EXPECT_DOUBLE_EQ(policy.current_stretch(), 8.0);
    EXPECT_EQ(policy.sleep_quantum(),
              Time::from_seconds(base.to_seconds() * 8.0));
}

TEST(PamasTest, ConfigValidateRejectsMalformedTables) {
    policy::PamasPolicyConfig ascending;
    ascending.thresholds = {{0.25, 4.0}, {0.75, 1.0}, {0.0, 8.0}};
    EXPECT_THROW(ascending.validate(), ContractViolation);

    policy::PamasPolicyConfig shrink;
    shrink.thresholds = {{0.75, 4.0}, {0.50, 2.0}, {0.0, 8.0}};  // stretch drops
    EXPECT_THROW(shrink.validate(), ContractViolation);

    policy::PamasPolicyConfig uncovered;
    uncovered.thresholds = {{0.75, 1.0}, {0.50, 2.0}};  // no level-0 row
    EXPECT_THROW(uncovered.validate(), ContractViolation);

    policy::PamasPolicyConfig sub_unity;
    sub_unity.thresholds = {{0.5, 0.5}, {0.0, 8.0}};
    EXPECT_THROW(sub_unity.validate(), ContractViolation);
}

TEST(PamasTest, WorldDrainsBatteryWhileDutyCycling) {
    sim::Simulator sim;
    policy::PolicyWorldConfig wc;
    wc.clients = 1;
    wc.seed = 11;
    wc.policy = policy::PowerPolicyConfig::of(policy::PolicyKind::pamas);
    policy::PolicyBssWorld world(sim, wc, nullptr);
    world.start();
    sim.run_until(Time::from_seconds(20));
    world.settle();

    auto& station = world.station(0);
    ASSERT_NE(station.battery(), nullptr);
    EXPECT_LT(station.battery()->level(), 1.0);
    EXPECT_GT(station.cycles(), 0u);
    EXPECT_GT(station.frames_received(), 0u);
    // Duty cycling must beat always-on listening on average power.
    EXPECT_LT(station.average_power().watts(), cal::kWlanIdle.watts());
}

// --- PAMAS station: duty cycling against a buffering AP ------------------

policy::PowerPolicyConfig pamas_with_battery(power::Energy capacity) {
    auto config = policy::PowerPolicyConfig::of(policy::PolicyKind::pamas);
    config.pamas.battery.capacity = capacity;
    config.pamas.battery.rate_exponent = 0.0;
    return config;
}

mac::AccessPointConfig ap_in(mac::ApMode mode) {
    mac::AccessPointConfig c;
    c.mode = mode;
    return c;
}

/// One started PAMAS station behind a PSM-mode AP; the test feeds the AP.
struct PamasRig {
    sim::Simulator sim;
    sim::Random root{5};
    mac::Bss bss{sim};
    policy::PowerPolicyConfig config;
    mac::AccessPoint ap;
    policy::PamasPolicy pamas;
    policy::PolicyStation station;

    explicit PamasRig(power::Energy capacity = power::Energy::from_joules(200.0))
        : config(pamas_with_battery(capacity)),
          ap(sim, bss, ap_in(mac::ApMode::psm), mac::DcfConfig{}, root.fork(1)),
          pamas(config.pamas),
          station(sim, bss, ap, 1, pamas, config, mac::DcfConfig{}, phy::WlanNicConfig{},
                  root.fork(6)) {
        ap.start();
        station.start();
    }

    /// Poisson downlink of \p size frames at \p rate into the AP's buffer.
    traffic::PoissonSource feed(DataSize size, Rate rate, std::uint64_t fork,
                                DataSize* sent = nullptr) {
        return traffic::PoissonSource(
            sim,
            [this, sent](DataSize s) {
                if (sent != nullptr) *sent += s;
                ap.send(1, s);
            },
            size, rate, root.fork(fork));
    }
};

TEST(PamasDutyCycleTest, RequiresBufferingAp) {
    sim::Simulator sim;
    mac::Bss bss(sim);
    mac::AccessPoint ap(sim, bss, ap_in(mac::ApMode::cam), mac::DcfConfig{},
                        sim::Random(5).fork(1));
    const auto config = policy::PowerPolicyConfig::of(policy::PolicyKind::pamas);
    policy::PamasPolicy pamas(config.pamas);
    EXPECT_THROW(policy::PolicyStation(sim, bss, ap, 1, pamas, config, mac::DcfConfig{},
                                       phy::WlanNicConfig{}, sim::Random(6)),
                 ContractViolation);
}

TEST(PamasDutyCycleTest, ReceivesBufferedTraffic) {
    PamasRig rig;
    DataSize sent;
    auto src = rig.feed(DataSize::from_bytes(1000), Rate::from_kbps(64), 2, &sent);
    src.start();
    rig.sim.run_until(Time::from_seconds(30));
    src.stop();
    rig.sim.run_until(Time::from_seconds(32));
    EXPECT_GT(sent.bytes(), 0);
    // Nearly all bytes must arrive (buffered, then flushed on wake; the
    // flush aggregates several MSDUs per MPDU, so compare bytes).
    EXPECT_GE(rig.station.bytes_received().bytes(), sent.bytes() * 9 / 10);
}

TEST(PamasDutyCycleTest, SleepsWhenIdle) {
    PamasRig rig;
    rig.sim.run_until(Time::from_seconds(20));
    // No traffic at all: the radio stays in doze, power ~ doze level.
    EXPECT_LT(rig.station.average_power().watts(), 0.06);
}

TEST(PamasDutyCycleTest, PeriodStretchesAsBatteryDrains) {
    PamasRig rig(power::Energy::from_joules(20.0));  // small battery
    auto src = rig.feed(DataSize::from_bytes(1400), Rate::from_kbps(128), 3);
    src.start();
    const Time initial_period = rig.pamas.sleep_quantum();
    rig.sim.run_until(Time::from_seconds(120));
    // Below the table's first threshold row (0.75), the period stretches.
    EXPECT_LT(rig.station.battery()->level(), 0.75);
    EXPECT_GT(rig.pamas.sleep_quantum(), initial_period);
}

TEST(PamasDutyCycleTest, DeadBatteryStopsTheRadio) {
    PamasRig rig(power::Energy::from_joules(3.0));  // dies almost immediately
    auto src = rig.feed(DataSize::from_bytes(1400), Rate::from_kbps(256), 3);
    src.start();
    rig.sim.run_until(Time::from_seconds(300));
    EXPECT_TRUE(rig.station.battery()->empty());
    EXPECT_EQ(rig.station.wlan_nic().state(), phy::WlanNic::State::off);
    // Frames stop flowing once dead: the buffer grows at the AP.
    EXPECT_GT(rig.ap.buffered(1), 100u);
}

TEST(PamasDutyCycleTest, LatencyReflectsSleepCycle) {
    PamasRig rig;
    auto src = rig.feed(DataSize::from_bytes(1000), Rate::from_kbps(32), 4);
    src.start();
    rig.sim.run_until(Time::from_seconds(60));
    ASSERT_GT(rig.station.delivery_latency().count(), 10u);
    // Mean latency is of the order of half the base cycle period (250 ms).
    EXPECT_GT(rig.station.delivery_latency().mean(), 0.05);
    EXPECT_LT(rig.station.delivery_latency().mean(), 1.0);
}

// --- plain cam() is the cam kind ---------------------------------------

TEST(PolicyAdapterTest, CamAdapterIsBitIdenticalToPlainCam) {
    const Time duration = Time::from_seconds(10);
    const auto native = backend.run(
        core::ScenarioSpec::cam().with_clients(2).with_duration(duration), 42);
    const auto adapted = backend.run(
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::cam), 2,
                    duration),
        42);

    EXPECT_EQ(adapted.label, native.label);
    ASSERT_EQ(adapted.clients.size(), native.clients.size());
    for (std::size_t i = 0; i < native.clients.size(); ++i) {
        EXPECT_DOUBLE_EQ(adapted.clients[i].wnic_energy.joules(),
                         native.clients[i].wnic_energy.joules());
    }
}

// --- uplink runs on the policy station only -----------------------------

TEST(PolicyUplinkTest, AdapterKindsRejectUplinkNamingTheKindsThatSupportIt) {
    for (const auto kind : {policy::PolicyKind::psm, policy::PolicyKind::ecmac}) {
        const auto power = policy::PowerPolicyConfig::of(kind).with_uplink(
            Time::from_ms(200), DataSize::from_bytes(200));
        try {
            power.validate();
            FAIL() << "expected ContractViolation for " << policy::to_string(kind);
        } catch (const ContractViolation& e) {
            EXPECT_NE(std::string(e.what()).find("cam, micro_nap and pamas"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_THROW(policy_spec(power).validate(), ContractViolation);
    }
}

TEST(PolicyUplinkTest, CamUplinkSpendsMoreWnicEnergy) {
    const auto plain =
        backend.run(policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::cam)), 42);
    const auto uplink = backend.run(
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::cam)
                        .with_uplink(Time::from_ms(200), DataSize::from_bytes(200))),
        42);
    ASSERT_EQ(uplink.clients.size(), plain.clients.size());
    for (std::size_t i = 0; i < plain.clients.size(); ++i) {
        EXPECT_GT(uplink.clients[i].wnic_energy.joules(), plain.clients[i].wnic_energy.joules())
            << "client " << i + 1;
        EXPECT_DOUBLE_EQ(uplink.clients[i].qos, 1.0);
    }
}

// --- validate(): μNap transition-cost guard (the PR's small fix) --------

TEST(PolicyValidateTest, RejectsNapTableThatCannotAmortizeInsideABeacon) {
    auto spec =
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap));
    core::StreamConfig stream = spec.stream();
    stream.wlan_nic.nap.sleep_latency = Time::from_ms(60);
    stream.wlan_nic.nap.wake_latency = Time::from_ms(50);  // 110ms > 102.4ms beacon
    spec.with_stream(stream);
    try {
        spec.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("beacon interval"), std::string::npos);
        EXPECT_NE(what.find("nap cost table"), std::string::npos);
    }
}

TEST(PolicyValidateTest, RejectsFreeNapTransitions) {
    auto spec =
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap));
    core::StreamConfig stream = spec.stream();
    stream.wlan_nic.nap.sleep_latency = Time::zero();
    spec.with_stream(stream);
    EXPECT_THROW(spec.validate(), ContractViolation);
}

// --- per-policy fault whitelists ----------------------------------------

TEST(PolicyFaultTest, WhitelistsFollowEachPolicysDependencies) {
    using policy::PolicyKind;
    using policy::PowerPolicyConfig;

    // μNap has no PS-Poll dependence: poll_drop is meaningless there.
    fault::FaultPlan polls;
    polls.poll_drop(Time::from_seconds(1), Time::from_seconds(2), 0.5);
    EXPECT_THROW(policy_spec(PowerPolicyConfig::of(PolicyKind::micro_nap))
                     .with_fault_plan(polls)
                     .validate(),
                 ContractViolation);

    // wake_stuck can stretch a backoff-nap resume past the DCF fire: only
    // injectable once backoff naps are off.
    fault::FaultPlan stuck;
    stuck.wake_stuck(Time::from_seconds(1), Time::from_ms(1));
    EXPECT_THROW(policy_spec(PowerPolicyConfig::of(PolicyKind::micro_nap))
                     .with_fault_plan(stuck)
                     .validate(),
                 ContractViolation);
    policy::MicroNapConfig nav_only;
    nav_only.nap_on_backoff = false;
    EXPECT_NO_THROW(
        policy_spec(PowerPolicyConfig::of(PolicyKind::micro_nap).with_micro_nap(nav_only))
            .with_fault_plan(stuck)
            .validate());

    // PAMAS duty-cycles on its own clock; wake_stuck merely delays a cycle.
    EXPECT_NO_THROW(policy_spec(PowerPolicyConfig::of(PolicyKind::pamas))
                        .with_fault_plan(stuck)
                        .validate());

    // The EC-MAC adapter world has no injector wiring at all.
    fault::FaultPlan corrupt;
    corrupt.corruption(Time::from_seconds(1), Time::from_seconds(2), 0.25);
    EXPECT_THROW(policy_spec(PowerPolicyConfig::of(PolicyKind::ecmac))
                     .with_fault_plan(corrupt)
                     .validate(),
                 ContractViolation);
}

TEST(PolicyFaultTest, NativePsmRejectsUnboundKindsLikeTheAdapter) {
    // psm's whitelist leaves out the phy kinds: it must refuse a
    // nic_lockup plan at validate(), not later inside the run.
    fault::FaultPlan lockup;
    lockup.nic_lockup(Time::from_seconds(1), Time::from_seconds(2));
    try {
        core::ScenarioSpec::psm().with_clients(2).with_fault_plan(lockup).validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("cannot inject 'nic-lockup'"), std::string::npos)
            << e.what();
    }

    // The kinds the psm world does bind still pass.
    fault::FaultPlan mac_faults;
    mac_faults.beacon_loss(Time::from_seconds(1), Time::from_seconds(2))
        .poll_drop(Time::from_seconds(4), Time::from_seconds(2), 0.5);
    EXPECT_NO_THROW(core::ScenarioSpec::psm().with_fault_plan(mac_faults).validate());
}

TEST(PolicyFaultTest, FaultedMicroNapRunInjectsAndKeepsStreaming) {
    fault::FaultPlan plan;
    plan.corruption(Time::from_seconds(3), Time::from_seconds(4), 0.4);
    const auto result = backend.run(
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap), 2,
                    Time::from_seconds(12))
            .with_fault_plan(plan),
        42);
    EXPECT_GT(result.faults_injected, 0u);
    for (const auto& client : result.clients) {
        EXPECT_GT(client.received.bytes(), 0);
    }
}

}  // namespace
}  // namespace wlanps
