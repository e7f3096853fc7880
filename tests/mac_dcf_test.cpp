/// Unit tests for the shared medium and the DCF (CSMA/CA) transmitter.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/access_point.hpp"
#include "mac/bss.hpp"
#include "mac/dcf.hpp"
#include "mac/medium.hpp"
#include "policy/station.hpp"
#include "sim/assert.hpp"
#include "sim/simulator.hpp"

namespace wlanps::mac {
namespace {

using namespace time_literals;
using policy::PolicyStation;

// ---- Medium -----------------------------------------------------------------

TEST(MediumTest, SingleTransmissionNoCollision) {
    sim::Simulator sim;
    Medium medium(sim);
    bool collided = true;
    medium.transmit(1_ms, [&](bool c) { collided = c; });
    EXPECT_TRUE(medium.busy());
    sim.run();
    EXPECT_FALSE(collided);
    EXPECT_FALSE(medium.busy());
    EXPECT_EQ(medium.transmissions(), 1u);
    EXPECT_EQ(medium.collisions(), 0u);
}

TEST(MediumTest, OverlapCollidesBoth) {
    sim::Simulator sim;
    Medium medium(sim);
    int collisions = 0;
    medium.transmit(2_ms, [&](bool c) { collisions += c; });
    sim.schedule_at(1_ms, [&] {
        medium.transmit(2_ms, [&](bool c) { collisions += c; });
    });
    sim.run();
    EXPECT_EQ(collisions, 2);
    EXPECT_EQ(medium.collisions(), 2u);
}

TEST(MediumTest, SimultaneousStartsCollide) {
    sim::Simulator sim;
    Medium medium(sim);
    int collisions = 0;
    medium.transmit(1_ms, [&](bool c) { collisions += c; });
    medium.transmit(1_ms, [&](bool c) { collisions += c; });
    sim.run();
    EXPECT_EQ(collisions, 2);
}

TEST(MediumTest, BackToBackDoesNotCollide) {
    sim::Simulator sim;
    Medium medium(sim);
    int collisions = 0;
    medium.transmit(1_ms, [&](bool c) { collisions += c; });
    sim.schedule_at(1_ms, [&] {
        medium.transmit(1_ms, [&](bool c) { collisions += c; });
    });
    sim.run();
    EXPECT_EQ(collisions, 0);
}

TEST(MediumTest, IdleWatchersFireOnRelease) {
    sim::Simulator sim;
    Medium medium(sim);
    std::vector<Time> idle_times;
    medium.on_idle([&] { idle_times.push_back(sim.now()); });
    medium.transmit(1_ms, [](bool) {});
    sim.schedule_at(5_ms, [&] { medium.transmit(2_ms, [](bool) {}); });
    sim.run();
    ASSERT_EQ(idle_times.size(), 2u);
    EXPECT_EQ(idle_times[0], 1_ms);
    EXPECT_EQ(idle_times[1], 7_ms);
    EXPECT_EQ(medium.idle_since(), 7_ms);
}

TEST(MediumTest, AirtimeAccounting) {
    sim::Simulator sim;
    Medium medium(sim);
    medium.transmit(1_ms, [](bool) {});
    sim.run();
    sim.schedule_in(1_ms, [&] { medium.transmit(3_ms, [](bool) {}); });
    sim.run();
    EXPECT_EQ(medium.airtime_carried(), 4_ms);
}

// ---- DCF through a Bss --------------------------------------------------------

/// Minimal world: AP in CAM mode + N CAM stations, optional lossy link.
struct World {
    sim::Simulator sim;
    sim::Random root{99};
    Bss bss{sim};
    std::unique_ptr<AccessPoint> ap;
    policy::CamPolicy cam;
    std::vector<std::unique_ptr<PolicyStation>> stations;

    explicit World(int n_stations, ApMode mode = ApMode::cam) {
        AccessPointConfig cfg;
        cfg.mode = mode;
        ap = std::make_unique<AccessPoint>(sim, bss, cfg, DcfConfig{}, root.fork(1));
        for (int i = 0; i < n_stations; ++i) {
            stations.push_back(std::make_unique<PolicyStation>(
                sim, bss, *ap, static_cast<StationId>(i + 1), cam,
                policy::PowerPolicyConfig::of(policy::PolicyKind::cam), DcfConfig{},
                phy::WlanNicConfig{}, root.fork(static_cast<std::uint64_t>(10 + i))));
        }
    }
};

TEST(DcfTest, DeliversUnicastWithAck) {
    World w(1);
    bool delivered = false;
    w.ap->send(1, DataSize::from_bytes(1000), [&](bool ok) { delivered = ok; });
    w.sim.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(w.stations[0]->frames_received(), 1u);
    EXPECT_EQ(w.stations[0]->bytes_received(), DataSize::from_bytes(1000));
    // Data + ACK on the medium.
    EXPECT_EQ(w.bss.medium().transmissions(), 2u);
}

TEST(DcfTest, QueueDrainsFifo) {
    World w(1);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        w.ap->send(1, DataSize::from_bytes(100 * (i + 1)),
                   [&order, i](bool) { order.push_back(i); });
    }
    w.sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(DcfTest, DozingReceiverMissesFrameAndRetriesExhaust) {
    World w(1);
    w.stations[0]->wlan_nic().doze();
    w.sim.run();  // let the doze transition finish
    bool delivered = true;
    w.ap->send(1, DataSize::from_bytes(500), [&](bool ok) { delivered = ok; });
    w.sim.run();
    EXPECT_FALSE(delivered);  // dropped after retry limit
    EXPECT_EQ(w.stations[0]->frames_received(), 0u);
    // One transmission per retry, no ACKs.
    EXPECT_EQ(w.bss.medium().transmissions(),
              static_cast<std::uint64_t>(DcfConfig{}.retry_limit));
}

TEST(DcfTest, LossyLinkCausesRetriesButDelivers) {
    World w(1);
    channel::GilbertElliottConfig bad;
    bad.mean_good = 1_ms;    // flips fast
    bad.mean_bad = 1_ms;
    bad.ber_good = 0.0;
    bad.ber_bad = 5e-4;      // ~1500-byte frames mostly fail in bad state
    w.bss.set_link(1, bad, w.root.fork(50));

    int delivered = 0;
    const int n = 50;
    for (int i = 0; i < n; ++i) {
        w.ap->send(1, DataSize::from_bytes(1400), [&](bool ok) { delivered += ok; });
    }
    w.sim.run();
    EXPECT_GT(delivered, n / 2);  // retries recover most frames
    EXPECT_GT(w.ap->dcf().attempt_stats().mean(), 1.01);  // some retries happened
}

TEST(DcfTest, TwoContendingTransmittersBothDrainEventually) {
    // AP sends downlink while a station polls: both DCF engines contend on
    // the same medium without deadlock and deliver everything.
    World w(2);
    int done = 0;
    for (int i = 0; i < 20; ++i) {
        w.ap->send(1, DataSize::from_bytes(800), [&](bool ok) { done += ok; });
        w.ap->send(2, DataSize::from_bytes(800), [&](bool ok) { done += ok; });
    }
    w.sim.run();
    EXPECT_EQ(done, 40);
    EXPECT_EQ(w.stations[0]->frames_received(), 20u);
    EXPECT_EQ(w.stations[1]->frames_received(), 20u);
}

TEST(DcfTest, AccessDelayGrowsWithQueue) {
    World w(1);
    for (int i = 0; i < 30; ++i) {
        w.ap->send(1, DataSize::from_bytes(1400));
    }
    w.sim.run();
    // Mean access delay across 30 queued frames must exceed one frame's
    // airtime (the queue serializes).
    EXPECT_GT(w.ap->dcf().access_delay_stats().mean(), 0.001);
}

TEST(DcfTest, BroadcastHasNoAck) {
    World w(2);
    Frame f;
    f.kind = FrameKind::data;
    f.src = kApId;
    f.dst = kBroadcast;
    f.payload = DataSize::from_bytes(100);
    bool completed = false;
    w.ap->dcf().enqueue(f, [&](const DcfTransmitter::Result& r) {
        completed = true;
        EXPECT_TRUE(r.delivered);
        EXPECT_EQ(r.attempts, 1);
    });
    w.sim.run();
    EXPECT_TRUE(completed);
    EXPECT_EQ(w.bss.medium().transmissions(), 1u);  // no ACK
    // Both stations saw it.
    EXPECT_EQ(w.stations[0]->bytes_received(), DataSize::from_bytes(100));
    EXPECT_EQ(w.stations[1]->bytes_received(), DataSize::from_bytes(100));
}

TEST(BssTest, DuplicateStationIdThrows) {
    sim::Simulator sim;
    sim::Random root(1);
    Bss bss(sim);
    AccessPointConfig cfg;
    AccessPoint ap(sim, bss, cfg, DcfConfig{}, root.fork(1));
    policy::CamPolicy cam;
    const auto st = policy::PowerPolicyConfig::of(policy::PolicyKind::cam);
    PolicyStation a(sim, bss, ap, 1, cam, st, DcfConfig{}, phy::WlanNicConfig{}, root.fork(2));
    EXPECT_THROW(PolicyStation(sim, bss, ap, 1, cam, st, DcfConfig{}, phy::WlanNicConfig{},
                               root.fork(3)),
                 ContractViolation);
}

TEST(BssTest, ReservedStationIdsThrow) {
    sim::Simulator sim;
    sim::Random root(1);
    Bss bss(sim);
    AccessPoint ap(sim, bss, AccessPointConfig{}, DcfConfig{}, root.fork(1));
    policy::CamPolicy cam;
    const auto st = policy::PowerPolicyConfig::of(policy::PolicyKind::cam);
    EXPECT_THROW(PolicyStation(sim, bss, ap, kApId, cam, st, DcfConfig{}, phy::WlanNicConfig{},
                               root.fork(2)),
                 ContractViolation);
}

}  // namespace
}  // namespace wlanps::mac
