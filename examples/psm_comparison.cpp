/// \file psm_comparison.cpp
/// MAC-level power saving on a bursty web workload: always-awake (CAM)
/// versus 802.11 PSM at several listen intervals, built directly on the
/// mac:: substrate (AccessPoint / Bss) and a policy::PolicyStation rather
/// than the scenario helpers — shows how to assemble a BSS by hand, and how
/// to put a hand-rolled world on the parallel ExperimentRunner (each listen
/// interval is one grid point).
///
/// Build & run:  ./build/examples/psm_comparison

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "mac/access_point.hpp"
#include "policy/station.hpp"
#include "traffic/source.hpp"

using namespace wlanps;

namespace {

struct Outcome {
    power::Power nic_power;
    double mean_delay_ms;
    std::uint64_t frames;
};

Outcome run(policy::PolicyKind kind, int listen_interval, std::uint64_t seed) {
    sim::Simulator sim;
    sim::Random root(seed);

    mac::Bss bss(sim);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = kind == policy::PolicyKind::cam ? mac::ApMode::cam : mac::ApMode::psm;
    mac::AccessPoint ap(sim, bss, ap_cfg, mac::DcfConfig{}, root.fork(1));

    const auto config = policy::PowerPolicyConfig::of(kind).with_psm(listen_interval, 1);
    const auto power_policy = policy::make_power_policy(config);
    policy::PolicyStation station(sim, bss, ap, /*id=*/1, *power_policy, config,
                                  mac::DcfConfig{}, phy::WlanNicConfig{}, root.fork(2));
    bss.set_link(1, channel::GilbertElliottConfig{}, root.fork(3));

    // Bursty web browsing: Pareto ON/OFF download pattern.
    traffic::WebSource source(sim, [&ap](DataSize size) { ap.send(1, size); },
                              traffic::WebSource::Config{}, root.fork(4));

    ap.start();
    station.start();
    source.start();
    sim.run_until(Time::from_seconds(120));

    Outcome out;
    out.nic_power = station.average_power();
    out.mean_delay_ms =
        station.delivery_latency().empty() ? 0.0 : station.delivery_latency().mean() * 1e3;
    out.frames = station.frames_received();
    return out;
}

}  // namespace

int main() {
    std::printf("Web browsing over 802.11: CAM vs PSM (120 s, one station)\n\n");
    std::printf("%-24s %12s %16s %10s\n", "mode", "NIC power", "mean MAC delay", "frames");

    // Grid: CAM plus one point per PSM listen interval; one seed.
    struct Cell {
        std::string label;
        policy::PolicyKind kind;
        int listen_interval;
    };
    const std::vector<Cell> grid = {
        {"CAM (always awake)", policy::PolicyKind::cam, 1},
        {"PSM, listen interval 1", policy::PolicyKind::psm, 1},
        {"PSM, listen interval 2", policy::PolicyKind::psm, 2},
        {"PSM, listen interval 5", policy::PolicyKind::psm, 5},
        {"PSM, listen interval 10", policy::PolicyKind::psm, 10},
    };

    exp::ExperimentSpec spec;
    spec.with_run([&grid](const exp::ParamPoint& point, std::uint64_t seed) {
            const Cell& cell = grid[point.index];
            const Outcome out = run(cell.kind, cell.listen_interval, seed);
            return exp::Metrics{{"nic_w", out.nic_power.watts()},
                                {"delay_ms", out.mean_delay_ms},
                                {"frames", static_cast<double>(out.frames)}};
        })
        .with_seeds({1234});
    for (const Cell& cell : grid) spec.with_point(cell.label);

    const auto result = exp::ExperimentRunner{}.run(spec);
    for (std::size_t p = 0; p < grid.size(); ++p) {
        std::printf("%-24s %12s %13.1f ms %10llu\n", grid[p].label.c_str(),
                    power::Power::from_watts(result.aggregate.metric(p, "nic_w").mean())
                        .str()
                        .c_str(),
                    result.aggregate.metric(p, "delay_ms").mean(),
                    static_cast<unsigned long long>(
                        result.aggregate.metric(p, "frames").mean()));
    }

    std::printf("\nThe latency/energy knob the paper describes: longer listen intervals\n"
                "doze deeper but buffer frames across more beacons.\n");
    return 0;
}
