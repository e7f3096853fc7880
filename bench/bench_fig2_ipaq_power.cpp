/// \file bench_fig2_ipaq_power.cpp
/// Reproduces **Figure 2** — "Average IPAQ power consumption".
///
/// Paper setup: three concurrent IPAQ 3970 clients receiving high-quality
/// MP3 audio, first through standard WLAN and Bluetooth interfaces with no
/// additional scheduling, then with Hotspot scheduling (bursts of 10s of
/// KB, Bluetooth parked / WLAN off between bursts).  Paper result: QoS is
/// maintained while saving **97% of WNIC power**.
///
/// We additionally print the standard 802.11 PSM point, which the paper's
/// §1 describes as the MAC-level state of the art the system-level
/// approach improves on.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/burst_channel.hpp"
#include "core/client.hpp"
#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/hooks.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "sim/trace.hpp"

int main() {
    using namespace wlanps;
    namespace bu = benchutil;

    core::StreamConfig config;
    config.clients = 3;
    config.duration = Time::from_seconds(300);

    // Observability taps (off the measurement path): the registry always
    // collects, and WLANPS_TRACE_OUT / WLANPS_METRICS_OUT name files to
    // export a Perfetto-loadable power-state trace of the hotspot run and
    // the flat metrics snapshot.
    const char* trace_out = std::getenv("WLANPS_TRACE_OUT");
    const char* metrics_out = std::getenv("WLANPS_METRICS_OUT");
    obs::MetricsRegistry registry;
    obs::ScopedRegistry obs_scope(registry);
    // Scoped unconditionally: attribution is plain accounting on NIC state
    // transitions (no events, no randomness), so the run is bit-identical
    // with or without it and the ledger rides into the metrics snapshot.
    obs::EnergyLedger ledger;
    obs::ScopedEnergyLedger ledger_scope(ledger);

    bu::heading("FIG2", "Average IPAQ power, 3 clients x 128 kb/s MP3, 300 s");

    const core::SimBackend backend;
    const core::ScenarioResult cam = backend.run(core::ScenarioSpec::cam().with_stream(config));
    const core::ScenarioResult psm = backend.run(core::ScenarioSpec::psm().with_stream(config));
    const core::ScenarioResult bt = backend.run(core::ScenarioSpec::bt().with_stream(config));
    core::HotspotConfig hs;
    hs.scheduler = "edf";
    std::vector<std::unique_ptr<sim::TimelineTrace>> lanes;
    std::vector<std::string> lane_names;
    if (trace_out != nullptr) {
        hs.on_start = [&](sim::Simulator&, core::HotspotServer&,
                          std::vector<core::HotspotClient*>& clients) {
            for (std::size_t i = 0; i < clients.size(); ++i) {
                for (core::BurstChannel* ch : clients[i]->channels()) {
                    auto trace = std::make_unique<sim::TimelineTrace>();
                    ch->wnic().attach_trace(trace.get());
                    std::string lane = "C";
                    lane += std::to_string(i + 1);
                    lane += ' ';
                    lane += ch->wnic().name();
                    lane_names.push_back(std::move(lane));
                    lanes.push_back(std::move(trace));
                }
            }
        };
        hs.inspect = [&](sim::Simulator& s, core::HotspotServer&,
                         std::vector<core::HotspotClient*>&) {
            for (auto& lane : lanes) lane->finish(s.now());
        };
    }
    const core::ScenarioResult hotspot = backend.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(hs));

    if (trace_out != nullptr) {
        obs::ChromeTraceWriter writer;
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            writer.add_lane(lane_names[i], *lanes[i]);
        }
        writer.write_file(trace_out);
        bu::note(std::string("chrome trace written to ") + trace_out);
    }
    if (metrics_out != nullptr) {
        obs::write_json_file(registry.snapshot(), &ledger, metrics_out);
        bu::note(std::string("metrics snapshot written to ") + metrics_out);
    }

    std::printf("%-26s %12s %14s %8s %12s\n", "configuration", "WNIC power", "device power",
                "QoS", "WNIC saving");
    const power::Power base = cam.mean_wnic();
    for (const core::ScenarioResult* r : {&cam, &psm, &bt, &hotspot}) {
        std::printf("%-26s %12s %14s %7.2f%% %11.1f%%\n", r->label.c_str(),
                    r->mean_wnic().str().c_str(), r->mean_device().str().c_str(),
                    100.0 * r->min_qos(), bu::saving_pct(base, r->mean_wnic()));
    }

    std::printf("\nPer-client detail (hotspot):\n");
    std::printf("%-8s %12s %10s %10s %12s\n", "client", "WNIC power", "QoS", "underruns",
                "received");
    for (std::size_t i = 0; i < hotspot.clients.size(); ++i) {
        const auto& c = hotspot.clients[i];
        std::printf("C%-7zu %12s %9.2f%% %10llu %12s\n", i + 1,
                    c.wnic_average.str().c_str(), 100.0 * c.qos,
                    static_cast<unsigned long long>(c.underruns), c.received.str().c_str());
    }

    bu::note("paper: Hotspot scheduling saves ~97% WNIC power vs standard WLAN, QoS maintained");
    bu::note("expected shape: wlan-cam >> bt-active > hotspot; hotspot saving ~95-98%, QoS ~100%");
    return 0;
}
