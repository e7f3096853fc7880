/// Randomized invariant tests: drive each stateful component with random
/// operation sequences (parameterized over seeds) and check conservation
/// and sanity properties that must hold for ANY sequence.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bt/piconet.hpp"
#include "core/burst_channel.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "mac/access_point.hpp"
#include "policy/station.hpp"
#include "power/state_machine.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "traffic/playout.hpp"

namespace wlanps {
namespace {

using namespace time_literals;

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, PowerStateMachineInvariants) {
    sim::Simulator sim;
    sim::Random rng(GetParam());
    power::PowerModel model;
    std::vector<power::StateId> states;
    for (int i = 0; i < 4; ++i) {
        std::string name = "s";
        name += std::to_string(i);
        states.push_back(
            model.add_state(std::move(name), power::Power::from_watts(rng.uniform(0.0, 2.0))));
    }
    for (int i = 0; i < 6; ++i) {
        const auto a = states[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        const auto b = states[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        if (a == b) continue;
        model.add_transition(a, b, Time::from_ms(rng.uniform_int(0, 50)),
                             power::Energy::from_millijoules(rng.uniform(0.0, 100.0)));
    }
    power::PowerStateMachine machine(sim, model, states[0]);

    int completions = 0;
    int requests = 0;
    for (int op = 0; op < 100; ++op) {
        sim.run_until(sim.now() + Time::from_ms(rng.uniform_int(1, 200)));
        ++requests;
        machine.request(states[static_cast<std::size_t>(rng.uniform_int(0, 3))],
                        [&] { ++completions; });
    }
    sim.run_until(sim.now() + Time::from_seconds(2));

    // Energy is finite, non-negative; average power within state bounds.
    EXPECT_GE(machine.energy_consumed().joules(), 0.0);
    EXPECT_FALSE(machine.transitioning());
    // Residencies never exceed elapsed time.
    Time residency_total = Time::zero();
    for (const auto s : states) residency_total += machine.residency(s);
    EXPECT_LE(residency_total.ns(), sim.now().ns());
    // Superseded queued requests may drop their predecessors' callbacks,
    // but a quiescent machine has fired at least the final one.
    EXPECT_GT(completions, 0);
    EXPECT_LE(completions, requests);
}

TEST_P(Fuzz, DcfConservation) {
    sim::Simulator sim;
    sim::Random rng(GetParam() + 1000);
    mac::Bss bss(sim);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = mac::ApMode::cam;
    mac::AccessPoint ap(sim, bss, ap_cfg, mac::DcfConfig{}, rng.fork(1));
    policy::CamPolicy cam;
    const auto cam_config = policy::PowerPolicyConfig::of(policy::PolicyKind::cam);
    std::vector<std::unique_ptr<policy::PolicyStation>> stations;
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < n; ++i) {
        stations.push_back(std::make_unique<policy::PolicyStation>(
            sim, bss, ap, static_cast<mac::StationId>(i + 1), cam, cam_config,
            mac::DcfConfig{}, phy::WlanNicConfig{},
            rng.fork(static_cast<std::uint64_t>(10 + i))));
        if (rng.chance(0.5)) {
            channel::GilbertElliottConfig ge;
            ge.ber_bad = rng.uniform(0.0, 3e-4);
            bss.set_link(static_cast<mac::StationId>(i + 1), ge,
                         rng.fork(static_cast<std::uint64_t>(20 + i)));
        }
    }

    int sent = 0, delivered = 0, dropped = 0;
    DataSize delivered_bytes;
    for (int op = 0; op < 60; ++op) {
        sim.run_until(sim.now() + Time::from_ms(rng.uniform_int(0, 20)));
        const auto dst = static_cast<mac::StationId>(rng.uniform_int(1, n));
        const auto size = DataSize::from_bytes(rng.uniform_int(50, 2000));
        ++sent;
        ap.send(dst, size, [&, size](bool ok) {
            if (ok) {
                ++delivered;
                delivered_bytes += size;
            } else {
                ++dropped;
            }
        });
    }
    sim.run_until(sim.now() + Time::from_seconds(5));

    // Conservation: every send completed exactly once.
    EXPECT_EQ(delivered + dropped, sent);
    // Station byte counters agree with delivered bytes.
    DataSize station_bytes;
    for (auto& st : stations) station_bytes += st->bytes_received();
    EXPECT_EQ(station_bytes, delivered_bytes);
}

TEST_P(Fuzz, PiconetConservation) {
    sim::Simulator sim;
    sim::Random rng(GetParam() + 2000);
    bt::Piconet piconet(sim, bt::PiconetConfig{}, rng.fork(1));
    std::vector<std::unique_ptr<bt::BtSlave>> slaves;
    std::vector<bt::SlaveId> ids;
    const int n = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < n; ++i) {
        slaves.push_back(std::make_unique<bt::BtSlave>(sim, phy::BtNicConfig{},
                                                       phy::BtNic::State::active));
        ids.push_back(piconet.join(*slaves.back()));
    }

    DataSize requested;
    int completions = 0, sends = 0;
    for (int op = 0; op < 40; ++op) {
        sim.run_until(sim.now() + Time::from_ms(rng.uniform_int(0, 50)));
        const auto id = ids[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
        const double action = rng.uniform();
        if (action < 0.6) {
            const auto size = DataSize::from_bytes(rng.uniform_int(100, 20000));
            requested += size;
            ++sends;
            piconet.send(id, size, [&](bool) { ++completions; });
        } else if (!piconet.transferring()) {
            if (action < 0.8) {
                piconet.park(id);
            } else {
                piconet.activate(id);
            }
        }
    }
    sim.run_until(sim.now() + Time::from_seconds(60));

    EXPECT_EQ(completions, sends);
    DataSize received;
    for (auto& s : slaves) received += s->bytes_received();
    // Perfect links: everything requested must arrive.
    EXPECT_EQ(received, requested);
    EXPECT_FALSE(piconet.transferring());
}

TEST_P(Fuzz, PlayoutBufferAccounting) {
    sim::Simulator sim;
    sim::Random rng(GetParam() + 3000);
    traffic::PlayoutBuffer::Config cfg;
    cfg.frame_size = DataSize::from_bytes(400);
    cfg.frame_interval = 25_ms;
    cfg.preroll = Time::from_ms(rng.uniform_int(0, 500));
    cfg.capacity = DataSize::from_bytes(8000);
    cfg.start_threshold_frames = static_cast<int>(rng.uniform_int(0, 4));
    traffic::PlayoutBuffer buf(sim, cfg);
    buf.start();

    DataSize fed;
    for (int op = 0; op < 100; ++op) {
        sim.run_until(sim.now() + Time::from_ms(rng.uniform_int(1, 100)));
        const auto chunk = DataSize::from_bytes(rng.uniform_int(1, 2000));
        fed += chunk;
        buf.on_data(chunk);
        EXPECT_LE(buf.level(), cfg.capacity);
    }
    sim.run_until(sim.now() + Time::from_seconds(2));

    // Conservation: fed = played + still buffered + overflow-dropped.
    const auto played = DataSize::from_bytes(
        static_cast<std::int64_t>(buf.frames_played()) * cfg.frame_size.bytes());
    EXPECT_LE(played.bytes() + buf.level().bytes(), fed.bytes());
    if (buf.overflow_drops() == 0) {
        EXPECT_EQ(played + buf.level(), fed);
    }
}

TEST_P(Fuzz, HotspotServerConsistency) {
    sim::Simulator sim;
    sim::Random rng(GetParam() + 4000);
    bt::Piconet piconet(sim, bt::PiconetConfig{}, rng.fork(1));
    core::HotspotServer server(sim, core::ServerConfig{}, core::make_scheduler("edf"));

    std::vector<std::unique_ptr<bt::BtSlave>> slaves;
    std::vector<std::unique_ptr<core::HotspotClient>> clients;
    const int n = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < n; ++i) {
        core::QosContract contract;
        contract.stream_rate = phy::calibration::kMp3Rate;
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
    sim.run_until(Time::from_seconds(rng.uniform_int(30, 90)));

    for (auto& c : clients) {
        const auto rep = server.report(c->id());
        // Perfect links: server accounting equals client ground truth up
        // to one in-flight burst (the client counts chunks progressively,
        // the server on completion).
        EXPECT_LE(rep.delivered.bytes(), c->bytes_received().bytes());
        EXPECT_LE(c->bytes_received().bytes() - rep.delivered.bytes(),
                  core::ServerConfig{}.target_burst.bytes());
        EXPECT_EQ(rep.bursts, c->bursts_executed());
        // The modeled buffer never exceeds the contracted client buffer.
        EXPECT_LE(server.modeled_client_buffer(c->id()).bytes(),
                  c->contract().client_buffer.bytes());
        EXPECT_EQ(c->playout().underruns(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace wlanps
