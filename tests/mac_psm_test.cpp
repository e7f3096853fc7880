/// Tests for 802.11 PSM: beacons, TIM, PS-Poll retrieval, doze accounting,
/// aggregation.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "mac/access_point.hpp"
#include "mac/bss.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "policy/station.hpp"
#include "sim/simulator.hpp"
#include "traffic/source.hpp"

namespace wlanps::mac {
namespace {

using namespace time_literals;
using policy::PolicyKind;
using policy::PolicyStation;

struct PsmWorld {
    sim::Simulator sim;
    sim::Random root{7};
    Bss bss{sim};
    std::unique_ptr<AccessPoint> ap;
    std::vector<std::unique_ptr<policy::PowerPolicy>> policies;
    std::vector<std::unique_ptr<PolicyStation>> stations;

    explicit PsmWorld(int n_stations, int listen_interval = 1, int aggregate_limit = 1) {
        AccessPointConfig cfg;
        cfg.mode = ApMode::psm;
        cfg.aggregate_limit = aggregate_limit;
        ap = std::make_unique<AccessPoint>(sim, bss, cfg, DcfConfig{}, root.fork(1));
        for (int i = 0; i < n_stations; ++i) {
            add_station(PolicyKind::psm, listen_interval,
                        root.fork(static_cast<std::uint64_t>(10 + i)));
        }
    }

    void add_station(PolicyKind kind, int listen_interval, sim::Random rng) {
        const auto config = policy::PowerPolicyConfig::of(kind).with_psm(listen_interval, 1);
        policies.push_back(policy::make_power_policy(config));
        const auto id = static_cast<StationId>(stations.size() + 1);
        stations.push_back(std::make_unique<PolicyStation>(sim, bss, *ap, id, *policies.back(),
                                                           config, DcfConfig{},
                                                           phy::WlanNicConfig{}, rng));
    }

    void start() {
        ap->start();
        for (auto& s : stations) s->start();
    }
};

TEST(PsmTest, BeaconsAreSentOnSchedule) {
    PsmWorld w(1);
    w.start();
    w.sim.run_until(Time::from_seconds(1.1));
    // Beacon interval 102.4 ms -> 10 beacons within 1.1 s.
    EXPECT_EQ(w.ap->beacons_sent(), 10u);
    EXPECT_GE(w.stations[0]->beacons_heard(), 9u);  // the station catches them
}

#if defined(WLANPS_OBS_ENABLED)
TEST(PsmTest, OnlyPsmStationsCountPsmBeacons) {
    // A CAM station hears every beacon too, but mac.psm.* is PSM's counter.
    for (const PolicyKind kind : {PolicyKind::cam, PolicyKind::psm}) {
        obs::MetricsRegistry reg;
        obs::ScopedRegistry scope(reg);
        PsmWorld w(0);
        w.add_station(kind, 1, w.root.fork(10));
        w.start();
        w.sim.run_until(Time::from_seconds(1.1));
        ASSERT_GE(w.stations[0]->beacons_heard(), 9u);
        EXPECT_EQ(reg.counter("mac.psm.beacons_heard").value(),
                  kind == PolicyKind::psm ? w.stations[0]->beacons_heard() : 0u);
    }
}
#endif  // WLANPS_OBS_ENABLED

TEST(PsmTest, IdleStationDozesBetweenBeacons) {
    PsmWorld w(1);
    w.start();
    w.sim.run_until(Time::from_seconds(10));
    // No traffic: station should spend the overwhelming majority dozing.
    const Time doze = w.stations[0]->wlan_nic().residency(phy::WlanNic::State::doze);
    EXPECT_GT(doze / Time::from_seconds(10), 0.90);
    // Power is far below idle.
    EXPECT_LT(w.stations[0]->average_power().watts(), 0.15);
}

TEST(PsmTest, BufferedFrameIsRetrievedViaPoll) {
    PsmWorld w(1);
    w.start();
    w.sim.run_until(50_ms);  // between beacons; station dozing
    bool delivered = false;
    w.ap->send(1, DataSize::from_bytes(1000), [&](bool ok) { delivered = ok; });
    EXPECT_EQ(w.ap->buffered(1), 1u);
    w.sim.run_until(Time::from_seconds(1));
    EXPECT_TRUE(delivered);
    EXPECT_EQ(w.ap->buffered(1), 0u);
    EXPECT_EQ(w.stations[0]->frames_received(), 1u);
    EXPECT_GE(w.stations[0]->polls_sent(), 1u);
}

TEST(PsmTest, MoreDataBitDrainsWholeBuffer) {
    PsmWorld w(1);
    w.start();
    w.sim.run_until(50_ms);
    int delivered = 0;
    for (int i = 0; i < 5; ++i) {
        w.ap->send(1, DataSize::from_bytes(400), [&](bool ok) { delivered += ok; });
    }
    w.sim.run_until(Time::from_seconds(1));
    EXPECT_EQ(delivered, 5);
    EXPECT_EQ(w.stations[0]->frames_received(), 5u);
    // All five retrieved in the same beacon interval via chained polls.
    EXPECT_GE(w.stations[0]->polls_sent(), 5u);
}

TEST(PsmTest, DeliveryLatencyIsBoundedByBeaconInterval) {
    PsmWorld w(1);
    w.start();
    w.sim.run_until(30_ms);
    w.ap->send(1, DataSize::from_bytes(500));
    w.sim.run_until(Time::from_seconds(1));
    ASSERT_EQ(w.stations[0]->delivery_latency().count(), 1u);
    // Queued right after a beacon: waits for the next one (~72 ms away).
    EXPECT_LT(w.stations[0]->delivery_latency().mean(), 0.15);
    EXPECT_GT(w.stations[0]->delivery_latency().mean(), 0.05);
}

TEST(PsmTest, ListenIntervalSkipsBeaconsAndRaisesLatency) {
    PsmWorld w1(1, /*listen_interval=*/1);
    PsmWorld w5(1, /*listen_interval=*/5);
    for (PsmWorld* w : {&w1, &w5}) {
        w->start();
        // Generate identical Poisson-ish traffic.
        auto src = std::make_unique<traffic::PoissonSource>(
            w->sim, [ap = w->ap.get()](DataSize s) { ap->send(1, s); },
            DataSize::from_bytes(800), Rate::from_kbps(32), w->root.fork(77));
        src->start();
        w->sim.run_until(Time::from_seconds(30));
        src->stop();
    }
    // Fewer wakeups -> fewer beacons heard, lower power, higher latency.
    EXPECT_LT(w5.stations[0]->beacons_heard(), w1.stations[0]->beacons_heard() / 3);
    EXPECT_LT(w5.stations[0]->average_power().watts(),
              w1.stations[0]->average_power().watts());
    EXPECT_GT(w5.stations[0]->delivery_latency().mean(),
              w1.stations[0]->delivery_latency().mean() * 2);
}

TEST(PsmTest, TimNamesOnlyBufferedStations) {
    PsmWorld w(2);
    w.start();
    std::vector<std::set<StationId>> tims;
    w.ap->on_beacon([&](const std::set<StationId>& tim) { tims.push_back(tim); });
    w.sim.run_until(150_ms);  // after first beacon (empty TIM)
    w.ap->send(2, DataSize::from_bytes(100));
    w.sim.run_until(250_ms);  // second beacon advertises station 2
    ASSERT_GE(tims.size(), 2u);
    EXPECT_TRUE(tims[0].empty());
    EXPECT_EQ(tims[1], std::set<StationId>{2});
}

TEST(PsmTest, AggregationReducesPollsAndEnergy) {
    PsmWorld plain(1, 1, /*aggregate_limit=*/1);
    PsmWorld agg(1, 1, /*aggregate_limit=*/8);
    for (PsmWorld* w : {&plain, &agg}) {
        w->start();
        auto src = std::make_unique<traffic::Mp3Source>(
            w->sim, [ap = w->ap.get()](DataSize s) { ap->send(1, s); });
        src->start();
        w->sim.run_until(Time::from_seconds(30));
        src->stop();
    }
    EXPECT_EQ(plain.stations[0]->bytes_received(), agg.stations[0]->bytes_received());
    EXPECT_LT(agg.stations[0]->polls_sent(), plain.stations[0]->polls_sent() / 2);
    EXPECT_LT(agg.stations[0]->average_power().watts(),
              plain.stations[0]->average_power().watts());
}

TEST(PsmTest, ThreeClientsAllServed) {
    PsmWorld w(3);
    w.start();
    std::vector<std::unique_ptr<traffic::Mp3Source>> sources;
    for (int i = 0; i < 3; ++i) {
        const auto id = static_cast<StationId>(i + 1);
        sources.push_back(std::make_unique<traffic::Mp3Source>(
            w.sim, [ap = w.ap.get(), id](DataSize s) { ap->send(id, s); }));
        sources.back()->start();
    }
    w.sim.run_until(Time::from_seconds(30));
    for (int i = 0; i < 3; ++i) {
        // ~38 frames/s for 30 s; nearly all must arrive.
        EXPECT_GT(w.stations[static_cast<std::size_t>(i)]->frames_received(), 1000u);
        EXPECT_LT(w.stations[static_cast<std::size_t>(i)]->average_power().watts(), 0.4);
    }
}

TEST(PsmTest, CamApDeliversImmediatelyToPsmStationOnlyWhenAwake) {
    // Mixed mode sanity: a PSM station attached to a CAM AP misses frames
    // sent while dozing (they are retried and eventually dropped).
    sim::Simulator sim;
    sim::Random root(3);
    Bss bss(sim);
    AccessPointConfig cfg;
    cfg.mode = ApMode::cam;
    DcfConfig dcf;
    dcf.retry_limit = 1;  // deterministic: one attempt, before any wakeup
    AccessPoint ap(sim, bss, cfg, dcf, root.fork(1));
    policy::PsmPolicy psm;
    PolicyStation station(sim, bss, ap, 1, psm, policy::PowerPolicyConfig::of(PolicyKind::psm),
                          DcfConfig{}, phy::WlanNicConfig{}, root.fork(2));
    ap.start();
    station.start();
    sim.run_until(50_ms);  // dozing between beacons
    bool delivered = true;
    ap.send(1, DataSize::from_bytes(500), [&](bool ok) { delivered = ok; });
    sim.run_until(80_ms);
    EXPECT_FALSE(delivered);
}

}  // namespace
}  // namespace wlanps::mac
