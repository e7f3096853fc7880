/// Final small-path tests: uncovered branches and accessor behaviours.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "bt/piconet.hpp"
#include "core/burst_channel.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "mac/access_point.hpp"
#include "net/tcp.hpp"
#include "policy/station.hpp"
#include "power/energy_meter.hpp"
#include "sim/logger.hpp"
#include "sim/simulator.hpp"

namespace wlanps {
namespace {

using namespace time_literals;

TEST(SmallPaths, FlushToEmptyBufferFiresCallbackImmediately) {
    sim::Simulator sim;
    sim::Random root(1);
    mac::Bss bss(sim);
    mac::AccessPointConfig cfg;
    cfg.mode = mac::ApMode::psm;
    mac::AccessPoint ap(sim, bss, cfg, mac::DcfConfig{}, root.fork(1));
    bool done = false;
    ap.flush_to(1, [&] { done = true; });
    EXPECT_TRUE(done);
}

TEST(SmallPaths, ScriptedQualitySinglePointIsConstant) {
    channel::ScriptedQuality q;
    q.add_point(5_s, 0.4);
    EXPECT_DOUBLE_EQ(q.at(Time::zero()), 0.4);
    EXPECT_DOUBLE_EQ(q.at(5_s), 0.4);
    EXPECT_DOUBLE_EQ(q.at(100_s), 0.4);
    EXPECT_FALSE(q.empty());
}

TEST(SmallPaths, TcpRetransmissionRatio) {
    net::TcpResult r;
    EXPECT_DOUBLE_EQ(r.retransmission_ratio(), 0.0);  // no segments yet
    r.segments_sent = 100;
    r.segments_delivered = 90;
    EXPECT_NEAR(r.retransmission_ratio(), 0.1, 1e-12);
}

TEST(SmallPaths, EnergyMeterRejectsBadSources) {
    sim::Simulator sim;
    power::EnergyMeter meter(sim);
    EXPECT_THROW(meter.add_source("", [](Time) { return power::Energy::zero(); }),
                 ContractViolation);
    EXPECT_THROW(meter.add_source("x", nullptr), ContractViolation);
    EXPECT_TRUE(meter.total_energy().is_zero());
    EXPECT_TRUE(meter.average_power().is_zero());  // zero elapsed, no div-by-0
}

TEST(SmallPaths, UnitsEdgeArithmetic) {
    EXPECT_EQ(DataSize::from_bytes(10) - DataSize::from_bytes(10), DataSize::zero());
    Rate r = Rate::from_kbps(100);
    r += Rate::from_kbps(28);
    EXPECT_DOUBLE_EQ(r.kbps(), 128.0);
    EXPECT_TRUE(Rate::zero().is_zero());
    power::Energy e = power::Energy::from_joules(5);
    e -= power::Energy::from_joules(2);
    EXPECT_DOUBLE_EQ(e.joules(), 3.0);
}

TEST(SmallPaths, WnicNamesAndInterfaces) {
    sim::Simulator sim;
    phy::WlanNic w(sim, phy::WlanNicConfig{}, phy::WlanNic::State::idle);
    phy::BtNic b(sim, phy::BtNicConfig{}, phy::BtNic::State::active);
    EXPECT_EQ(w.name(), "wlan-nic");
    EXPECT_EQ(b.name(), "bt-nic");
    EXPECT_EQ(std::string(phy::to_string(phy::Interface::bluetooth)), "BT");
}

TEST(SmallPaths, ServerLogsInterfaceSwitchAtInfoLevel) {
    std::ostringstream captured;
    auto* old = std::clog.rdbuf(captured.rdbuf());
    sim::Logger::set_level(sim::LogLevel::info);

    sim::Simulator sim;
    sim::Random root(2);
    bt::Piconet piconet(sim, bt::PiconetConfig{}, root.fork(1));
    core::HotspotServer server(sim, core::ServerConfig{}, core::make_scheduler("edf"));
    core::QosContract contract;
    auto client = std::make_unique<core::HotspotClient>(sim, 1, contract);
    // WLAN + BT, with BT scripted to die -> a switch must be logged.
    auto nic = std::make_unique<phy::WlanNic>(sim, phy::WlanNicConfig{},
                                              phy::WlanNic::State::idle);
    client->add_channel(std::make_unique<core::WlanBurstChannel>(sim, *nic, nullptr));
    auto slave = std::make_unique<bt::BtSlave>(sim, phy::BtNicConfig{},
                                               phy::BtNic::State::active);
    const auto sid = piconet.join(*slave);
    piconet.set_link(sid, channel::GilbertElliottConfig{}, root.fork(2));
    channel::ScriptedQuality dying;
    dying.add_point(5_s, 1.0);
    dying.add_point(6_s, 0.05);
    piconet.set_link_script(sid, dying);
    client->add_channel(std::make_unique<core::BtBurstChannel>(piconet, sid, *slave));
    server.register_client(*client);
    server.set_stored_content(1, true);
    client->start();
    server.start();
    sim.run_until(Time::from_seconds(30));

    sim::Logger::set_level(sim::LogLevel::off);
    std::clog.rdbuf(old);
    EXPECT_NE(captured.str().find("switches to WLAN"), std::string::npos);
}

TEST(SmallPaths, StationUplinkCountsOnlyDelivered) {
    sim::Simulator sim;
    sim::Random root(3);
    mac::Bss bss(sim);
    mac::AccessPointConfig cfg;
    cfg.mode = mac::ApMode::cam;
    mac::AccessPoint ap(sim, bss, cfg, mac::DcfConfig{}, root.fork(1));
    policy::CamPolicy cam;
    policy::PolicyStation st(sim, bss, ap, 1, cam,
                             policy::PowerPolicyConfig::of(policy::PolicyKind::cam),
                             mac::DcfConfig{}, phy::WlanNicConfig{}, root.fork(2));
    // Kill the uplink completely: nothing counted as sent.
    channel::GilbertElliottConfig dead;
    dead.ber_good = dead.ber_bad = 0.01;
    bss.set_link(1, dead, root.fork(3));
    bool delivered = true;
    st.send_up(DataSize::from_bytes(1000), [&](bool ok) { delivered = ok; });
    sim.run();
    EXPECT_FALSE(delivered);
    EXPECT_TRUE(st.bytes_sent().is_zero());
}

TEST(SmallPaths, HotspotClientChannelAccessorsValidate) {
    sim::Simulator sim;
    core::HotspotClient client(sim, 1, core::QosContract{});
    EXPECT_THROW((void)client.channel(0), ContractViolation);
    EXPECT_THROW(client.add_channel(nullptr), ContractViolation);
    EXPECT_TRUE(client.channels().empty());
}

TEST(SmallPaths, PiconetPeakGoodputMatchesCalibration) {
    sim::Simulator sim;
    bt::PiconetConfig cfg;
    bt::Piconet piconet(sim, cfg, sim::Random(4));
    EXPECT_NEAR(piconet.peak_goodput().kbps(), phy::calibration::kBtAclPeak.kbps(), 0.5);
}

}  // namespace
}  // namespace wlanps
