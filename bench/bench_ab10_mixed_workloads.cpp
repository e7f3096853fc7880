/// \file bench_ab10_mixed_workloads.cpp
/// AB10 — Heterogeneous workloads through one Hotspot (paper §2).
///
/// The paper's resource manager serves heterogeneous clients ("their QoS
/// needs, battery levels, current conditions in the channel") over
/// heterogeneous interfaces.  This bench runs stored MP3 audio, live VBR
/// video, and bursty web browsing through one server: the selector must
/// put audio on Bluetooth and video on WLAN (the rate demands force it),
/// size bursts per-rate, and hold QoS for all streaming clients — while
/// admission control reports the per-interface bandwidth ledger.

#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "core/backend.hpp"
#include "core/client.hpp"
#include "core/scenario_spec.hpp"
#include "core/scenarios.hpp"
#include "core/server.hpp"
#include "exp/runner.hpp"

using namespace wlanps;
const core::SimBackend backend;
namespace bu = benchutil;

int main() {
    bu::heading("AB10", "Mixed workloads: 2x MP3 + 1x VBR video + 1x web, one Hotspot, 180 s");

    core::StreamConfig config;
    config.clients = 4;  // C1-C2 MP3, C3 video, C4 web
    config.duration = Time::from_seconds(180);

    core::HotspotConfig mix;
    mix.video_clients = 1;
    mix.web_clients = 1;

    struct Snapshot {
        Rate bt_reserved, wlan_reserved;
        std::vector<core::ClientReport> reports;
        std::vector<core::HotspotServer::BurstDecision> recent;
    } snap;

    core::HotspotConfig options = mix;
    options.inspect = [&](sim::Simulator&, core::HotspotServer& server,
                          std::vector<core::HotspotClient*>&) {
        snap.bt_reserved = server.reserved(phy::Interface::bluetooth);
        snap.wlan_reserved = server.reserved(phy::Interface::wlan);
        snap.reports = server.reports();
        snap.recent.assign(server.decisions().end() -
                               std::min<std::size_t>(5, server.decisions().size()),
                           server.decisions().end());
    };

    const auto result =
        backend.run(core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));

    const char* kind[] = {"mp3", "mp3", "video", "web"};
    const std::size_t n_clients = result.clients.size();
    std::printf("%-8s %-7s %12s %9s %10s %12s %10s\n", "client", "kind", "WNIC power", "QoS",
                "bursts", "received", "interface");
    for (std::size_t i = 0; i < result.clients.size(); ++i) {
        const auto& c = result.clients[i];
        const auto& rep = snap.reports[i];
        std::printf("C%-7zu %-7s %12s %8.2f%% %10llu %12s %10s\n", i + 1, kind[i],
                    c.wnic_average.str().c_str(), 100.0 * c.qos,
                    static_cast<unsigned long long>(rep.bursts), c.received.str().c_str(),
                    rep.current_channel == 0 ? "WLAN" : "BT");
    }
    std::printf("\nBandwidth ledger: BT reserved %s, WLAN reserved %s\n",
                snap.bt_reserved.str().c_str(), snap.wlan_reserved.str().c_str());
    std::printf("Last scheduling decisions:\n");
    for (const auto& d : snap.recent) {
        std::printf("  t=%-10s client %u  %-8s on %-4s  deadline %s\n", d.at.str().c_str(),
                    d.client, d.size.str().c_str(), phy::to_string(d.interface),
                    d.deadline.str().c_str());
    }
    bu::note("expected shape: audio on BT (~35 mW), video on WLAN (~0.13 W, rate-scaled");
    bu::note("bursts), web cheapest (~20 mW, bursty); QoS ~100% for all streams");

    // Robustness across seeds: the same spec swept over 4 seeds on the
    // parallel experiment runner (the inspect snapshot above stays on the
    // single detailed run — its callback is not thread-safe).
    const auto sweep = exp::ExperimentRunner{}.run(
        exp::ExperimentSpec{}
            .with_run(core::scenarios::spec_grid_run(
                std::make_shared<core::SimBackend>(),
                {core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(mix)}))
            .with_backend("sim")
            .with_point("mixed")
            .with_seed_range(42, 4));

    std::printf("\nAcross 4 seeds (mean +/- sd):\n");
    for (std::size_t i = 0; i < n_clients; ++i) {
        std::string prefix = "c";
        prefix += std::to_string(i + 1);
        prefix += '.';
        const auto& wnic = sweep.aggregate.metric(0, prefix + "wnic_w");
        const auto& qos = sweep.aggregate.metric(0, prefix + "qos");
        std::printf("  C%zu %-6s WNIC %7.1f +/- %4.1f mW   QoS %6.2f%% +/- %.2f\n", i + 1,
                    kind[i], 1e3 * wnic.mean(), 1e3 * wnic.stddev(), 100.0 * qos.mean(),
                    100.0 * qos.stddev());
    }
    return 0;
}
