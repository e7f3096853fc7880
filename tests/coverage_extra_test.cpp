/// Additional focused tests: formatting, logging, multi-lane charts,
/// scheduled-path edge cases, and server dispatch ordering.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "bt/piconet.hpp"
#include "core/burst_channel.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "phy/bt_nic.hpp"
#include "power/energy_meter.hpp"
#include "sim/logger.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace wlanps {
namespace {

using namespace time_literals;

// ---- formatting ---------------------------------------------------------------

TEST(FormatTest, PowerAndEnergyStrings) {
    EXPECT_EQ(power::Power::from_watts(1.4).str(), "1.4W");
    EXPECT_EQ(power::Power::from_milliwatts(45).str(), "45mW");
    EXPECT_EQ(power::Energy::from_joules(2.5).str(), "2.5J");
    EXPECT_EQ(power::Energy::from_millijoules(12).str(), "12mJ");
    std::ostringstream os;
    os << power::Power::from_watts(0.83) << " " << power::Energy::from_joules(1.0);
    EXPECT_EQ(os.str(), "0.83W 1J");
}

TEST(FormatTest, DataSizeAndRateStrings) {
    EXPECT_EQ(DataSize::from_bytes(500).str(), "500B");
    EXPECT_EQ(DataSize::from_kilobytes(48).str(), "48KB");
    EXPECT_EQ(DataSize::from_kilobytes(2048).str(), "2MB");
    EXPECT_EQ(DataSize::from_bits(12).str(), "1.5B");  // not byte-aligned
    EXPECT_EQ(Rate::from_kbps(128).str(), "128kb/s");
    EXPECT_EQ(Rate::from_mbps(11).str(), "11Mb/s");
    EXPECT_EQ(Rate::from_bps(500).str(), "500b/s");
}

// ---- logger --------------------------------------------------------------------

TEST(LoggerTest, LevelGatesOutput) {
    std::ostringstream captured;
    auto* old = std::clog.rdbuf(captured.rdbuf());
    sim::Logger::set_level(sim::LogLevel::off);
    sim::Logger::log(sim::LogLevel::info, 5_ms, "test", "hidden");
    EXPECT_TRUE(captured.str().empty());
    sim::Logger::set_level(sim::LogLevel::info);
    sim::Logger::log(sim::LogLevel::info, 5_ms, "test", "shown");
    sim::Logger::log(sim::LogLevel::debug, 5_ms, "test", "hidden2");
    sim::Logger::set_level(sim::LogLevel::off);
    std::clog.rdbuf(old);
    EXPECT_EQ(captured.str(), "[5ms] test: shown\n");
}

// ---- Gantt, multi-lane -----------------------------------------------------------

TEST(GanttTest, MultipleLanesAlignNames) {
    sim::TimelineTrace a, b;
    a.set_state(0_ms, "x", 1.0);
    a.finish(10_ms);
    b.set_state(5_ms, "y", 1.0);
    b.finish(10_ms);
    sim::GanttChart chart;
    chart.add_lane("c1", a);
    chart.add_lane("client2", b);
    const std::string out = chart.render(0_ms, 10_ms, 10);
    EXPECT_NE(out.find("c1      |##########|"), std::string::npos);
    EXPECT_NE(out.find("client2 |     #####|"), std::string::npos);
}

// ---- burst channels ----------------------------------------------------------------

TEST(BurstChannelExtraTest, PartialLossAccountingSumsToRequest) {
    sim::Simulator sim;
    phy::WlanNic nic(sim, phy::WlanNicConfig{}, phy::WlanNic::State::idle);
    channel::GilbertElliottConfig shaky;
    shaky.mean_good = 5_ms;
    shaky.mean_bad = 5_ms;
    shaky.ber_good = 0.0;
    shaky.ber_bad = 5e-4;
    channel::WirelessLink link(shaky, sim::Random(21));
    core::WlanBurstChannel::Config cfg;
    cfg.retry_limit = 2;  // give up quickly -> some chunks lost
    core::WlanBurstChannel ch(sim, nic, &link, cfg);
    core::BurstChannel::Result result;
    const DataSize request = DataSize::from_kilobytes(64);
    ch.transfer(request, [&](const core::BurstChannel::Result& r) { result = r; });
    sim.run();
    EXPECT_EQ(result.delivered + result.lost, request);
    EXPECT_GT(result.lost.bytes(), 0);
    EXPECT_FALSE(result.ok);
}

TEST(BurstChannelExtraTest, BtChannelBusyGuard) {
    sim::Simulator sim;
    bt::Piconet piconet(sim, bt::PiconetConfig{}, sim::Random(22));
    bt::BtSlave slave(sim, phy::BtNicConfig{}, phy::BtNic::State::active);
    const auto sid = piconet.join(slave);
    core::BtBurstChannel ch(piconet, sid, slave);
    ch.transfer(DataSize::from_kilobytes(10), {});
    EXPECT_TRUE(ch.busy());
    EXPECT_THROW(ch.transfer(DataSize::from_kilobytes(1), {}), ContractViolation);
    sim.run();
    EXPECT_FALSE(ch.busy());
}

// ---- piconet sniff data path ---------------------------------------------------------

TEST(PiconetExtraTest, SendToSniffingSlaveWaitsForAnchor) {
    sim::Simulator sim;
    bt::Piconet piconet(sim, bt::PiconetConfig{}, sim::Random(23));
    bt::BtSlave slave(sim, phy::BtNicConfig{}, phy::BtNic::State::active);
    const auto sid = piconet.join(slave);
    piconet.sniff(sid);
    sim.run();
    ASSERT_EQ(piconet.mode(sid), bt::SlaveMode::sniff);
    Time done_at = Time::zero();
    const Time sent_at = sim.now();
    piconet.send(sid, DataSize::from_bytes(339), [&](bool ok) {
        EXPECT_TRUE(ok);
        done_at = sim.now();
    });
    sim.run();
    // The transfer waited for a sniff anchor (up to sniff_interval away).
    EXPECT_GT(done_at - sent_at, Time::from_ms(3));
    EXPECT_EQ(slave.bytes_received(), DataSize::from_bytes(339));
}

// ---- server dispatch ordering ----------------------------------------------------------

TEST(ServerDispatchTest, EdfServesTighterDeadlineFirst) {
    // Two clients with very different buffer levels: the one closer to
    // underrun must be dispatched first whenever both are pending.
    sim::Simulator sim;
    sim::Random root(24);
    bt::Piconet piconet(sim, bt::PiconetConfig{}, root.fork(1));
    core::ServerConfig cfg;
    core::HotspotServer server(sim, cfg, core::make_scheduler("edf"));

    std::vector<std::unique_ptr<bt::BtSlave>> slaves;
    std::vector<std::unique_ptr<core::HotspotClient>> clients;
    for (int i = 0; i < 2; ++i) {
        core::QosContract contract;
        contract.stream_rate = phy::calibration::kMp3Rate;
        // Client 2 prerolls later -> consistently tighter deadlines.
        contract.preroll = i == 0 ? Time::from_seconds(4) : Time::from_seconds(2);
        auto client = std::make_unique<core::HotspotClient>(
            sim, static_cast<core::ClientId>(i + 1), contract);
        slaves.push_back(std::make_unique<bt::BtSlave>(sim, phy::BtNicConfig{},
                                                       phy::BtNic::State::active));
        const auto sid = piconet.join(*slaves.back());
        client->add_channel(
            std::make_unique<core::BtBurstChannel>(piconet, sid, *slaves.back()));
        ASSERT_TRUE(server.try_register(*client));
        server.set_stored_content(client->id(), true);
        client->start();
        clients.push_back(std::move(client));
    }
    server.start();
    sim.run_until(Time::from_seconds(30));

    // Both served, zero underruns: EDF interleaved them correctly.
    EXPECT_EQ(clients[0]->playout().underruns(), 0u);
    EXPECT_EQ(clients[1]->playout().underruns(), 0u);
    // The decision log alternates between the two clients.
    int c1 = 0, c2 = 0;
    for (const auto& d : server.decisions()) {
        (d.client == 1 ? c1 : c2)++;
    }
    EXPECT_GT(c1, 3);
    EXPECT_GT(c2, 3);
}

TEST(ServerDispatchTest, ReportsAreStableAcrossQueries) {
    sim::Simulator sim;
    sim::Random root(25);
    bt::Piconet piconet(sim, bt::PiconetConfig{}, root.fork(1));
    core::HotspotServer server(sim, core::ServerConfig{}, core::make_scheduler("fifo"));
    core::QosContract contract;
    auto client = std::make_unique<core::HotspotClient>(sim, 1, contract);
    auto slave = std::make_unique<bt::BtSlave>(sim, phy::BtNicConfig{},
                                               phy::BtNic::State::active);
    const auto sid = piconet.join(*slave);
    client->add_channel(std::make_unique<core::BtBurstChannel>(piconet, sid, *slave));
    ASSERT_TRUE(server.try_register(*client));
    server.set_stored_content(1, true);
    client->start();
    server.start();
    sim.run_until(Time::from_seconds(20));
    const auto a = server.report(1);
    const auto b = server.report(1);  // const query: no side effects
    EXPECT_EQ(a.bursts, b.bursts);
    EXPECT_EQ(a.delivered, b.delivered);
    const auto all = server.reports();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].bursts, a.bursts);
}

// ---- energy meter with scenario components --------------------------------------------

TEST(MeterIntegrationTest, MeterAggregatesNicAndBaseLoads) {
    sim::Simulator sim;
    power::EnergyMeter meter(sim);
    phy::WlanNic wlan(sim, phy::WlanNicConfig{}, phy::WlanNic::State::idle);
    phy::BtNic bt_nic(sim, phy::BtNicConfig{}, phy::BtNic::State::park);
    meter.add_source("wlan", [&wlan](Time) { return wlan.energy_consumed(); });
    meter.add_source("bt", [&bt_nic](Time) { return bt_nic.energy_consumed(); });
    meter.add_constant("platform", phy::calibration::kIpaqBase);
    sim.run_until(Time::from_seconds(10));
    // Idle WLAN 0.83 W + parked BT 12 mW + platform 1.3 W over 10 s.
    EXPECT_NEAR(meter.total_energy().joules(), (0.83 + 0.012 + 1.3) * 10.0, 1e-6);
    const auto rows = meter.breakdown();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_NEAR(rows[0].average.watts(), 0.83, 1e-9);
    EXPECT_NEAR(rows[1].average.watts(), 0.012, 1e-9);
    EXPECT_NEAR(rows[2].average.watts(), 1.30, 1e-9);
}

}  // namespace
}  // namespace wlanps
