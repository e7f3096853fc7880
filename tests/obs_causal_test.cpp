/// Causal-tracing subsystem tests: the flight-recorder ring buffer
/// (wraparound, monotone counts, JSON dump), Perfetto flow events in the
/// Chrome-trace exporter, the per-client energy-attribution ledger and its
/// reconciliation against aggregate Wnic energy across the scenario grid
/// (including fault-injected runs), the sim-time sampler, and the
/// post-mortem dumper.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "fault/fault.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/flight.hpp"
#include "obs/hooks.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "sim/sampler.hpp"
#include "sim/simulator.hpp"

namespace wlanps {
namespace {

using namespace time_literals;

const core::SimBackend backend;

obs::FlightEvent make_event(std::int64_t t_ns, obs::Hop hop, std::uint64_t flow,
                            std::uint32_t client, std::uint8_t itf, double value) {
    obs::FlightEvent e;
    e.t_ns = t_ns;
    e.hop = hop;
    e.flow = flow;
    e.client = client;
    e.itf = itf;
    e.value = value;
    return e;
}

// ---- flight recorder ring buffer -------------------------------------------------

TEST(FlightRecorderTest, FillsWithoutDropsBelowCapacity) {
    obs::FlightRecorder rec(8);
    EXPECT_EQ(rec.capacity(), 8u);
    EXPECT_EQ(rec.size(), 0u);
    for (int i = 0; i < 5; ++i) {
        rec.record(make_event(i, obs::Hop::rx, 1, 1, obs::kFlightItfWlan, i));
    }
    EXPECT_EQ(rec.size(), 5u);
    EXPECT_EQ(rec.total(), 5u);
    EXPECT_EQ(rec.dropped(), 0u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(rec.at(i).t_ns, static_cast<std::int64_t>(i));
    }
}

TEST(FlightRecorderTest, WrapAroundOverwritesOldestAndKeepsCountMonotone) {
    obs::FlightRecorder rec(4);
    for (int i = 0; i < 6; ++i) {
        rec.record(make_event(i, obs::Hop::tx, 0, 0, obs::kFlightItfNone, i));
    }
    // Capacity reached: the two oldest were overwritten, the total is
    // monotone, and surviving events read oldest-first.
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.total(), 6u);
    EXPECT_EQ(rec.dropped(), 2u);
    EXPECT_EQ(rec.at(0).t_ns, 2);
    EXPECT_EQ(rec.at(3).t_ns, 5);

    // A full extra lap: still capacity-bounded, total still counting.
    for (int i = 6; i < 10; ++i) {
        rec.record(make_event(i, obs::Hop::tx, 0, 0, obs::kFlightItfNone, i));
    }
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.total(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
    EXPECT_EQ(rec.at(0).t_ns, 6);
    EXPECT_EQ(rec.at(3).t_ns, 9);
}

TEST(FlightRecorderTest, ClearResetsCounts) {
    obs::FlightRecorder rec(2);
    rec.record(make_event(1, obs::Hop::rx, 1, 1, obs::kFlightItfWlan, 0));
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.total(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorderTest, DumpJsonGolden) {
    obs::FlightRecorder rec(4);
    rec.record(make_event(1500, obs::Hop::scheduled, 7, 0, obs::kFlightItfWlan, 4096));
    rec.record(make_event(2500, obs::Hop::rx, 7, 2, obs::kFlightItfWlan, 250.5));
    const std::string expected =
        "{\"capacity\":4,\"total\":2,\"dropped\":0,\"events\":["
        "{\"t_ns\":1500,\"hop\":\"scheduled\",\"flow\":7,\"client\":0,\"itf\":0,"
        "\"value\":4096},"
        "{\"t_ns\":2500,\"hop\":\"rx\",\"flow\":7,\"client\":2,\"itf\":0,"
        "\"value\":250.5}]}";
    EXPECT_EQ(rec.dump_json(), expected);
}

TEST(FlightRecorderTest, DumpJsonLastNTakesTheTail) {
    obs::FlightRecorder rec(4);
    for (int i = 0; i < 3; ++i) {
        rec.record(make_event(i, obs::Hop::polled, 0, 1, obs::kFlightItfWlan, i));
    }
    const std::string tail = rec.dump_json(1);
    EXPECT_NE(tail.find("\"t_ns\":2"), std::string::npos);
    EXPECT_EQ(tail.find("\"t_ns\":0,"), std::string::npos);
}

TEST(FlightRecorderTest, ScopeInstallsAndRestores) {
    EXPECT_EQ(obs::current_flight(), nullptr);
    obs::FlightRecorder outer(4);
    {
        obs::ScopedFlightRecorder s1(outer);
        EXPECT_EQ(obs::current_flight(), &outer);
        obs::FlightRecorder inner(4);
        {
            obs::ScopedFlightRecorder s2(inner);
            EXPECT_EQ(obs::current_flight(), &inner);
        }
        EXPECT_EQ(obs::current_flight(), &outer);
    }
    EXPECT_EQ(obs::current_flight(), nullptr);
}

// ---- Perfetto flow events --------------------------------------------------------

TEST(ObsFlowTest, FlowEventGolden) {
    obs::ChromeTraceWriter writer;
    const int tid = writer.lane("C1 flow");
    writer.add_flow(42, tid, "burst", Time::from_us(10), obs::ChromeTraceWriter::FlowPhase::start);
    writer.add_flow(42, tid, "burst", Time::from_us(20), obs::ChromeTraceWriter::FlowPhase::step);
    writer.add_flow(42, tid, "burst", Time::from_us(30), obs::ChromeTraceWriter::FlowPhase::finish);
    const std::string expected =
        "{\"traceEvents\":["
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"C1 flow\"}},\n"
        "{\"name\":\"burst\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":42,\"pid\":1,"
        "\"tid\":1,\"ts\":10.000},\n"
        "{\"name\":\"burst\",\"cat\":\"flow\",\"ph\":\"t\",\"id\":42,\"pid\":1,"
        "\"tid\":1,\"ts\":20.000},\n"
        "{\"name\":\"burst\",\"cat\":\"flow\",\"ph\":\"f\",\"id\":42,\"pid\":1,"
        "\"tid\":1,\"ts\":30.000,\"bp\":\"e\"}"
        "],\"displayTimeUnit\":\"ms\"}";
    EXPECT_EQ(writer.str(), expected);
}

TEST(ObsFlowTest, ExportFlightGolden) {
    obs::FlightRecorder rec(8);
    rec.record(make_event(1000, obs::Hop::scheduled, 7, 0, obs::kFlightItfWlan, 4096));
    rec.record(make_event(2000, obs::Hop::doze_wakeup, 7, 1, obs::kFlightItfWlan, 250000));
    rec.record(make_event(300000, obs::Hop::rx, 7, 1, obs::kFlightItfWlan, 1000));

    obs::ChromeTraceWriter writer;
    obs::export_flight(writer, rec);
    const std::string expected =
        "{\"traceEvents\":["
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"server flow\"}},\n"
        "{\"name\":\"scheduled\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.000,"
        "\"dur\":0.000,\"args\":{\"level_mw\":4096}},\n"
        "{\"name\":\"burst\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":7,\"pid\":1,"
        "\"tid\":1,\"ts\":1.000},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
        "\"args\":{\"name\":\"C1 flow\"}},\n"
        "{\"name\":\"doze_wakeup\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":2.000,"
        "\"dur\":250.000,\"args\":{\"level_mw\":250000}},\n"
        "{\"name\":\"burst\",\"cat\":\"flow\",\"ph\":\"t\",\"id\":7,\"pid\":1,"
        "\"tid\":2,\"ts\":2.000},\n"
        "{\"name\":\"rx\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":300.000,"
        "\"dur\":1.000,\"args\":{\"level_mw\":1000}},\n"
        "{\"name\":\"burst\",\"cat\":\"flow\",\"ph\":\"f\",\"id\":7,\"pid\":1,"
        "\"tid\":2,\"ts\":300.000,\"bp\":\"e\"}"
        "],\"displayTimeUnit\":\"ms\"}";
    EXPECT_EQ(writer.str(), expected);
}

TEST(ObsFlowTest, ExportFlightSkipsUnstampedFlows) {
    obs::FlightRecorder rec(4);
    rec.record(make_event(1000, obs::Hop::fault, 0, 0, obs::kFlightItfNone, 2));
    obs::ChromeTraceWriter writer;
    obs::export_flight(writer, rec);
    const std::string doc = writer.str();
    // The hop slice is there, but no flow arrow was minted for flow 0.
    EXPECT_NE(doc.find("\"name\":\"fault\""), std::string::npos);
    EXPECT_EQ(doc.find("\"cat\":\"flow\""), std::string::npos);
}

// ---- energy ledger ---------------------------------------------------------------

TEST(EnergyLedgerTest, ChargesAccumulatePerClientAndCause) {
    obs::EnergyLedger led;
    led.charge(1, obs::EnergyCause::idle_listen, 2.0);
    led.charge(1, obs::EnergyCause::burst_rx, 0.5);
    led.charge(2, obs::EnergyCause::idle_listen, 1.0);
    led.charge(2, obs::EnergyCause::idle_listen, 0.25);
    EXPECT_DOUBLE_EQ(led.charged(1, obs::EnergyCause::idle_listen), 2.0);
    EXPECT_DOUBLE_EQ(led.charged(2, obs::EnergyCause::idle_listen), 1.25);
    EXPECT_DOUBLE_EQ(led.client_total(1), 2.5);
    EXPECT_DOUBLE_EQ(led.cause_total(obs::EnergyCause::idle_listen), 3.25);
    EXPECT_DOUBLE_EQ(led.total(), 3.75);
    EXPECT_EQ(led.clients(), (std::vector<std::uint32_t>{1, 2}));
}

TEST(EnergyLedgerTest, ZeroChargeStillCreatesTheRow) {
    obs::EnergyLedger led;
    led.charge(3, obs::EnergyCause::mode_switch, 0.0);
    EXPECT_EQ(led.clients(), (std::vector<std::uint32_t>{3}));
    EXPECT_DOUBLE_EQ(led.client_total(3), 0.0);
}

TEST(EnergyLedgerTest, ToJsonGolden) {
    obs::EnergyLedger led;
    led.charge(1, obs::EnergyCause::idle_listen, 1.5);
    led.charge(1, obs::EnergyCause::tx, 0.25);
    const std::string expected =
        "{\"total_j\":1.75,"
        "\"causes\":{\"idle_listen\":1.5,\"beacon_wake\":0,\"burst_rx\":0,"
        "\"retransmission\":0,\"mode_switch\":0,\"tx\":0.25,\"nav_sleep\":0},"
        "\"clients\":{\"1\":{\"total_j\":1.75,\"idle_listen\":1.5,\"beacon_wake\":0,"
        "\"burst_rx\":0,\"retransmission\":0,\"mode_switch\":0,\"tx\":0.25,"
        "\"nav_sleep\":0}}}";
    EXPECT_EQ(led.to_json(), expected);
}

TEST(EnergyLedgerTest, SnapshotJsonCarriesTheLedgerSection) {
    obs::MetricsRegistry reg;
    reg.counter("x").add(1);
    obs::EnergyLedger led;
    led.charge(1, obs::EnergyCause::burst_rx, 0.125);
    const std::string with = obs::to_json(reg.snapshot(), &led);
    EXPECT_NE(with.find("\"energy_ledger\":{\"total_j\":0.125"), std::string::npos);
    // Null ledger degrades to the plain document.
    EXPECT_EQ(obs::to_json(reg.snapshot(), nullptr), obs::to_json(reg.snapshot()));
}

TEST(EnergyLedgerTest, ScopeInstallsAndRestores) {
    EXPECT_EQ(obs::current_ledger(), nullptr);
    obs::EnergyLedger led;
    {
        obs::ScopedEnergyLedger scope(led);
        EXPECT_EQ(obs::current_ledger(), &led);
    }
    EXPECT_EQ(obs::current_ledger(), nullptr);
}

// ---- ledger reconciliation across the scenario grid ------------------------------

double result_energy_j(const core::ScenarioResult& result) {
    double sum = 0.0;
    for (const auto& c : result.clients) sum += c.wnic_energy.joules();
    return sum;
}

double causes_sum_j(const obs::EnergyLedger& led) {
    double sum = 0.0;
    for (std::size_t c = 0; c < obs::kEnergyCauseCount; ++c) {
        sum += led.cause_total(static_cast<obs::EnergyCause>(c));
    }
    return sum;
}

void expect_reconciles(const obs::EnergyLedger& led, const core::ScenarioResult& result) {
    ASSERT_FALSE(result.clients.empty());
    EXPECT_NEAR(led.total(), result_energy_j(result), 1e-9);
    EXPECT_NEAR(causes_sum_j(led), led.total(), 1e-9);
    EXPECT_EQ(led.clients().size(), result.clients.size());
}

TEST(LedgerReconcileTest, WlanCam) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = 45_s;
    obs::EnergyLedger led;
    obs::ScopedEnergyLedger scope(led);
    expect_reconciles(led, backend.run(core::ScenarioSpec::cam().with_stream(config)));
}

TEST(LedgerReconcileTest, WlanPsmUnderFaults) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = 60_s;
    config.fault_plan.beacon_loss(20_s, 3_s).poll_drop(30_s, 10_s, 0.5);
    obs::EnergyLedger led;
    obs::ScopedEnergyLedger scope(led);
    const auto result = backend.run(core::ScenarioSpec::psm().with_stream(config));
    EXPECT_EQ(result.faults_injected, 2u);
    expect_reconciles(led, result);
    // PSM spends real energy on beacon wakes; the ledger must see it.
    EXPECT_GT(led.cause_total(obs::EnergyCause::beacon_wake), 0.0);
}

TEST(LedgerReconcileTest, EcMac) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = 45_s;
    obs::EnergyLedger led;
    obs::ScopedEnergyLedger scope(led);
    expect_reconciles(led, backend.run(core::ScenarioSpec::ecmac().with_stream(config)));
}

TEST(LedgerReconcileTest, BtActive) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = 45_s;
    obs::EnergyLedger led;
    obs::ScopedEnergyLedger scope(led);
    expect_reconciles(led, backend.run(core::ScenarioSpec::bt().with_stream(config)));
}

TEST(LedgerReconcileTest, Hotspot) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = 60_s;
    obs::EnergyLedger led;
    obs::ScopedEnergyLedger scope(led);
    const auto result = backend.run(core::ScenarioSpec::hotspot().with_stream(config));
    expect_reconciles(led, result);
    // Hotspot bursts are the whole point: burst_rx energy must dominate
    // mode switches, and both must be present.
    EXPECT_GT(led.cause_total(obs::EnergyCause::burst_rx), 0.0);
    EXPECT_GT(led.cause_total(obs::EnergyCause::mode_switch), 0.0);
}

TEST(LedgerReconcileTest, HotspotMixed) {
    core::StreamConfig config;
    config.clients = 3;
    config.duration = 45_s;
    core::HotspotConfig mix;
    mix.video_clients = 1;
    mix.web_clients = 1;
    obs::EnergyLedger led;
    obs::ScopedEnergyLedger scope(led);
    expect_reconciles(
        led, backend.run(core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(mix)));
}

TEST(LedgerReconcileTest, HotspotMixedUnderFaults) {
    // The video and web clients ride the same fault hooks as MP3 clients:
    // crash the video client, then black out every WLAN link.
    core::StreamConfig config;
    config.clients = 3;
    config.duration = 60_s;
    config.fault_plan.client_crash(15_s, 10_s, 2).blackout(35_s, 5_s, 0,
                                                             fault::FaultSpec::Itf::wlan);
    core::HotspotConfig mix;
    mix.video_clients = 1;
    mix.web_clients = 1;
    obs::EnergyLedger led;
    obs::ScopedEnergyLedger scope(led);
    const auto result =
        backend.run(core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(mix));
    EXPECT_EQ(result.faults_injected, 2u);
    expect_reconciles(led, result);
}

TEST(LedgerReconcileTest, HotspotUnderCrashAndScheduleDrops) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = 90_s;
    config.fault_plan.client_crash(30_s, 15_s, 1).schedule_drop(50_s, 10_s, 0.5);
    core::HotspotConfig options;
    options.resilience =
        core::ResilienceConfig{}.with_liveness_timeout(8_s).with_burst_repair(true);
    options.rejoin_enabled = true;
    obs::EnergyLedger led;
    obs::ScopedEnergyLedger scope(led);
    const auto result = backend.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));
    EXPECT_GT(result.faults_injected, 0u);
    expect_reconciles(led, result);
}

// ---- determinism: attribution must not perturb the run ---------------------------

TEST(CausalDeterminismTest, HotspotBitIdenticalWithAndWithoutScopes) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = 60_s;
    const auto spec = core::ScenarioSpec::hotspot().with_stream(config);

    const auto bare = backend.run(spec);

    obs::EnergyLedger led;
    obs::FlightRecorder rec(512);
    obs::ScopedEnergyLedger ledger_scope(led);
    obs::ScopedFlightRecorder flight_scope(rec);
    const auto traced = backend.run(spec);

    ASSERT_EQ(bare.clients.size(), traced.clients.size());
    for (std::size_t i = 0; i < bare.clients.size(); ++i) {
        EXPECT_EQ(bare.clients[i].wnic_energy.joules(), traced.clients[i].wnic_energy.joules());
        EXPECT_EQ(bare.clients[i].wnic_average.watts(), traced.clients[i].wnic_average.watts());
        EXPECT_EQ(bare.clients[i].received, traced.clients[i].received);
        EXPECT_EQ(bare.clients[i].underruns, traced.clients[i].underruns);
        EXPECT_EQ(bare.clients[i].qos, traced.clients[i].qos);
    }
}

// ---- sim-time sampler ------------------------------------------------------------

TEST(SimSamplerTest, SamplesProbesAtTheConfiguredInterval) {
    sim::Simulator sim;
    int calls = 0;
    sim::SimSampler sampler(sim, 1_s);
    sampler.add_track("calls", [&calls] { return static_cast<double>(++calls); });
    sampler.add_track("sim time s", [&sim] { return sim.now().to_seconds(); });
    sampler.start();
    sim.run_until(5_s);
    sampler.stop();

    ASSERT_EQ(sampler.series().size(), 2u);
    const auto& series = sampler.series()[0];
    EXPECT_EQ(series.name, "calls");
    // One sample at start() plus one per elapsed second (t=5 fires before
    // run_until stops).
    ASSERT_EQ(series.samples.size(), 6u);
    EXPECT_EQ(series.samples.front().first, Time::zero());
    EXPECT_EQ(series.samples.back().first, 5_s);
    EXPECT_DOUBLE_EQ(series.samples.back().second, 6.0);
    EXPECT_DOUBLE_EQ(sampler.series()[1].samples[3].second, 3.0);
}

TEST(SimSamplerTest, StopHaltsSampling) {
    sim::Simulator sim;
    sim::SimSampler sampler(sim, 1_s);
    sampler.add_track("x", [] { return 1.0; });
    sampler.start();
    sim.run_until(2_s);
    sampler.stop();
    const std::size_t n = sampler.series()[0].samples.size();
    sim.run_until(10_s);
    EXPECT_EQ(sampler.series()[0].samples.size(), n);
}

// ---- post-mortem dumps -----------------------------------------------------------

TEST(PostMortemTest, DumpsOnlyAboveThresholdAndUpToMaxDumps) {
    obs::FlightRecorder rec(8);
    rec.record(make_event(1, obs::Hop::fault, 0, 1, obs::kFlightItfNone, 4));
    obs::PostMortemConfig cfg;
    cfg.threshold_s = 0.5;
    cfg.path_prefix = "obs_causal_pm_unit";
    cfg.max_dumps = 2;
    obs::PostMortem pm(rec, cfg);

    pm.on_recovery(0.1, 1);  // fast recovery: below threshold, no dump
    EXPECT_EQ(pm.dumps(), 0u);
    pm.on_recovery(1.5, 1);
    pm.on_recovery(2.5, 2);
    pm.on_recovery(3.5, 3);  // beyond max_dumps: ignored
    EXPECT_EQ(pm.dumps(), 2u);
    ASSERT_EQ(pm.files().size(), 2u);
    EXPECT_EQ(pm.files()[0], "obs_causal_pm_unit.c1.0.flight.json");
    EXPECT_EQ(pm.files()[1], "obs_causal_pm_unit.c2.1.flight.json");
    for (const std::string& path : pm.files()) {
        std::FILE* f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr) << path;
        char first = 0;
        ASSERT_EQ(std::fread(&first, 1, 1, f), 1u);
        EXPECT_EQ(first, '{');
        std::fclose(f);
        std::remove(path.c_str());
    }
}

TEST(PostMortemTest, SlowRejoinRecoveryTriggersDump) {
    // A crashed client rejoining after ~17 s is far beyond a 1 s
    // threshold: the resilience layer must hand the recovery time to the
    // scoped post-mortem, which dumps the flight recorder's tail.
    core::StreamConfig config;
    config.clients = 2;
    config.duration = 90_s;
    config.fault_plan.client_crash(30_s, 15_s, 1);
    core::HotspotConfig options;
    options.resilience =
        core::ResilienceConfig{}.with_liveness_timeout(8_s).with_burst_repair(true);
    options.rejoin_enabled = true;

    obs::FlightRecorder rec(256);
    obs::PostMortemConfig cfg;
    cfg.threshold_s = 1.0;
    cfg.path_prefix = "obs_causal_pm_scenario";
    obs::PostMortem pm(rec, cfg);
    obs::ScopedFlightRecorder flight_scope(rec);
    obs::ScopedPostMortem pm_scope(pm);

    const auto result = backend.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));
    EXPECT_GT(result.recovery.rejoins, 0u);
    EXPECT_GE(pm.dumps(), 1u);
    for (const std::string& path : pm.files()) std::remove(path.c_str());
}

// ---- flight hops from a real run (obs builds only) -------------------------------

TEST(FlightScenarioTest, HotspotRunRecordsCausalHopsWhenCompiledIn) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = 45_s;
    obs::FlightRecorder rec(4096);
    obs::ScopedFlightRecorder scope(rec);
    (void)backend.run(core::ScenarioSpec::hotspot().with_stream(config));
#if defined(WLANPS_OBS_ENABLED)
    // The causal chain must cover the scheduler and the radio: bursts are
    // enqueued, scheduled, woken for, and received, all flow-stamped.
    ASSERT_GT(rec.total(), 0u);
    bool saw_enqueued = false, saw_scheduled = false, saw_rx = false, saw_wake = false;
    bool saw_flow = false;
    for (const obs::FlightEvent& e : rec.events()) {
        saw_enqueued |= e.hop == obs::Hop::enqueued;
        saw_scheduled |= e.hop == obs::Hop::scheduled;
        saw_rx |= e.hop == obs::Hop::rx;
        saw_wake |= e.hop == obs::Hop::doze_wakeup;
        saw_flow |= e.flow != 0;
    }
    EXPECT_TRUE(saw_enqueued);
    EXPECT_TRUE(saw_scheduled);
    EXPECT_TRUE(saw_rx);
    EXPECT_TRUE(saw_wake);
    EXPECT_TRUE(saw_flow);
#else
    // Hop recording compiles out entirely in default builds.
    EXPECT_EQ(rec.total(), 0u);
#endif
}

}  // namespace
}  // namespace wlanps
