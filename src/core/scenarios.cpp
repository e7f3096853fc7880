#include "core/scenarios.hpp"

#include <map>
#include <memory>
#include <utility>

#include "bt/piconet.hpp"
#include "core/burst_channel.hpp"
#include "core/scenario_obs.hpp"
#include "core/sharded_hotspot.hpp"
#include "fault/injector.hpp"
#include "fed/federation.hpp"
#include "mac/access_point.hpp"
#include "mac/ecmac.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/hooks.hpp"
#include "policy/world.hpp"
#include "sim/assert.hpp"
#include "traffic/playout.hpp"
#include "traffic/source.hpp"

namespace wlanps::core {

namespace {

traffic::PlayoutBuffer::Config mp3_playout() {
    traffic::PlayoutBuffer::Config c;
    c.frame_size = phy::calibration::kMp3FrameSize;
    c.frame_interval = phy::calibration::kMp3FrameInterval;
    c.preroll = Time::from_seconds(2);
    c.capacity = DataSize::from_kilobytes(2048);
    c.start_threshold_frames = 38;  // ~1 s of audio buffered before playing
    return c;
}

/// Bind the injector's link hook to every WLAN station's link in \p bss
/// (station ids 1..clients; target 0 = all).  No BT radio in these worlds.
void bind_wlan_fault_window(fault::FaultInjector& injector, sim::Simulator& sim, mac::Bss& bss,
                            int clients) {
    injector.net().fault_window = [&bss, &sim, clients](std::uint32_t client,
                                                        fault::FaultSpec::Itf itf, double p,
                                                        Time until) {
        if (itf == fault::FaultSpec::Itf::bt) return;
        auto apply = [&](mac::StationId id) {
            if (auto* link = bss.link(id)) link->add_fault_window(sim.now(), until, p);
        };
        if (client == 0) {
            for (int i = 0; i < clients; ++i) apply(static_cast<mac::StationId>(i + 1));
        } else {
            apply(static_cast<mac::StationId>(client));
        }
    };
}

ScenarioResult sim_ecmac(const StreamConfig& config, Time superframe) {
    WLANPS_REQUIRE(config.clients >= 1);
    sim::Simulator sim;
    sim::Random root(config.seed);
    mac::Bss bss(sim);
    mac::EcMacConfig ec_cfg;
    ec_cfg.superframe = superframe;
    mac::EcMacController controller(sim, bss, ec_cfg, root.fork(100));

    std::vector<std::unique_ptr<mac::EcMacStation>> stations;
    std::vector<std::unique_ptr<traffic::PlayoutBuffer>> playouts;
    std::vector<std::unique_ptr<traffic::Mp3Source>> sources;

    for (int i = 0; i < config.clients; ++i) {
        const auto id = static_cast<mac::StationId>(i + 1);
        auto st = std::make_unique<mac::EcMacStation>(sim, bss, id, ec_cfg, config.wlan_nic);
        if (obs::EnergyLedger* led = obs::current_ledger()) {
            st->wlan_nic().attach_ledger(led, static_cast<std::uint32_t>(id));
        }
        bss.set_link(id, config.wlan_link, root.fork(300 + i));
        auto playout = std::make_unique<traffic::PlayoutBuffer>(sim, mp3_playout());
        st->set_receive_callback(
            [p = playout.get()](DataSize size, Time) { p->on_data(size); });
        auto src = std::make_unique<traffic::Mp3Source>(
            sim, [&controller, id](DataSize size) { controller.send(id, size); });
        stations.push_back(std::move(st));
        playouts.push_back(std::move(playout));
        sources.push_back(std::move(src));
    }

    controller.start();
    for (auto& st : stations) st->start(controller.superframe_anchor());
    for (auto& p : playouts) p->start();
    for (auto& s : sources) s->start();
    sim.run_until(config.duration);
    for (auto& st : stations) st->wlan_nic().settle_ledger();

    ScenarioResult result;
    result.label = "ec-mac";
    for (std::size_t i = 0; i < stations.size(); ++i) {
        result.clients.push_back(make_client_metrics(stations[i]->average_power(),
                                              stations[i]->energy_consumed(), *playouts[i],
                                              stations[i]->bytes_received()));
    }
    if (obs::MetricsRegistry* reg = obs::current()) {
        for (auto& st : stations) st->wlan_nic().publish_metrics(*reg, "phy.wlan");
    }
    record_client_obs(result);
    record_kernel_obs(sim);
    return result;
}

ScenarioResult sim_bt_active(const StreamConfig& config) {
    WLANPS_REQUIRE(config.clients >= 1);
    sim::Simulator sim;
    sim::Random root(config.seed);
    bt::Piconet piconet(sim, bt::PiconetConfig{}, root.fork(100));

    std::vector<std::unique_ptr<bt::BtSlave>> slaves;
    std::vector<bt::SlaveId> ids;
    std::vector<std::unique_ptr<traffic::PlayoutBuffer>> playouts;
    std::vector<std::unique_ptr<traffic::Mp3Source>> sources;

    for (int i = 0; i < config.clients; ++i) {
        auto slave = std::make_unique<bt::BtSlave>(sim, config.bt_nic,
                                                   phy::BtNic::State::active);
        const bt::SlaveId id = piconet.join(*slave);
        if (obs::EnergyLedger* led = obs::current_ledger()) {
            slave->nic().attach_ledger(led, static_cast<std::uint32_t>(i + 1));
        }
        piconet.set_link(id, config.bt_link, root.fork(300 + i));
        auto playout = std::make_unique<traffic::PlayoutBuffer>(sim, mp3_playout());
        slave->set_receive_callback([p = playout.get()](DataSize size) { p->on_data(size); });
        auto src = std::make_unique<traffic::Mp3Source>(
            sim, [&piconet, id](DataSize size) { piconet.send(id, size); });
        slaves.push_back(std::move(slave));
        ids.push_back(id);
        playouts.push_back(std::move(playout));
        sources.push_back(std::move(src));
    }

    for (auto& p : playouts) p->start();
    for (auto& s : sources) s->start();
    sim.run_until(config.duration);
    for (auto& s : slaves) s->nic().settle_ledger();

    ScenarioResult result;
    result.label = "bt-active";
    for (std::size_t i = 0; i < slaves.size(); ++i) {
        result.clients.push_back(make_client_metrics(slaves[i]->average_power(),
                                              slaves[i]->energy_consumed(), *playouts[i],
                                              slaves[i]->bytes_received()));
    }
    if (obs::MetricsRegistry* reg = obs::current()) {
        for (auto& s : slaves) s->nic().publish_metrics(*reg, "phy.bt");
    }
    record_client_obs(result);
    record_kernel_obs(sim);
    return result;
}

/// Mean rate of the default VBR video pattern (GOP of 12 at 25 fps).
Rate video_mean_rate() {
    const traffic::VideoSource::Config c;
    const double bytes_per_gop = static_cast<double>(c.i_frame.bytes()) +
                                 3.0 * static_cast<double>(c.p_frame.bytes()) +
                                 8.0 * static_cast<double>(c.b_frame.bytes());
    return Rate::from_bps(bytes_per_gop * 8.0 * c.fps / c.gop);
}

ScenarioResult sim_hotspot(const StreamConfig& config, const HotspotConfig& options,
                           std::string label) {
    WLANPS_REQUIRE(config.clients >= 1);
    WLANPS_REQUIRE_MSG(options.wlan_available || options.bt_available,
                       "at least one interface must be available");
    const fault::FaultPlan& plan = config.fault_plan;
    plan.validate();
    sim::Simulator sim;
    sim::Random root(config.seed);

    // Shared Bluetooth piconet for all clients (one Hotspot radio).
    bt::Piconet piconet(sim, bt::PiconetConfig{}, root.fork(100));

    std::vector<std::unique_ptr<HotspotClient>> clients;
    std::vector<std::unique_ptr<phy::WlanNic>> wlan_nics;
    std::vector<std::unique_ptr<channel::WirelessLink>> wlan_links;
    std::vector<std::unique_ptr<bt::BtSlave>> slaves;
    std::vector<std::unique_ptr<MediaProxy>> proxies;
    std::vector<std::unique_ptr<traffic::Source>> sources;
    std::vector<std::unique_ptr<RejoinAgent>> agents;  // index = client id - 1
    std::vector<Time> join_at;                         // zero = at scenario start
    // Fault-hook routing tables (client id -> the injectable surface).
    std::map<ClientId, phy::WlanNic*> nic_of;
    std::map<ClientId, channel::WirelessLink*> wlink_of;
    std::map<ClientId, bt::SlaveId> sid_of;
    std::map<ClientId, const traffic::Source*> web_source_of;

    HotspotServer server(sim,
                         ServerConfig{}
                             .with_target_burst(options.target_burst)
                             .with_utilization_cap(options.utilization_cap)
                             .with_target_burst_period(options.target_burst_period)
                             .with_resilience(options.resilience),
                         make_scheduler(options.scheduler));
    // Client mix by id: the first mp3_clients stream stored MP3 (or proxied
    // A/V under media_proxy), then video_clients live VBR video, then
    // web_clients web browsing.
    const int mp3_clients = config.clients - options.video_clients - options.web_clients;
    const int first_web = mp3_clients + options.video_clients;
    // The Hotspot proxy streams stored/prefetched media: bursts are sized
    // by the client buffer, not real-time arrival (paper §2).
    const auto stored = [mp3_clients, proxied = options.media_proxy](ClientId id) {
        return !proxied && static_cast<int>(id) <= mp3_clients;
    };
    const auto web = [first_web](ClientId id) { return static_cast<int>(id) > first_web; };
    // Live feeds tolerate the client being unregistered (late join,
    // crash, reclaim): content it misses is simply lost.
    const auto live_sink = [&server](ClientId id) -> traffic::Sink {
        return [&server, id](DataSize s) {
            if (server.has_client(id)) server.ingest_sink(id)(s);
        };
    };

    for (int i = 0; i < config.clients; ++i) {
        const auto id = static_cast<ClientId>(i + 1);
        const bool video = i >= mp3_clients && !web(id);
        QosContract contract;
        if (web(id)) {
            // Bursty, latency-tolerant; reserve a light trickle.
            contract.stream_rate = Rate::from_kbps(64);
        } else if (options.media_proxy || video) {
            // Live A/V (through the proxy, thinned under adversity) or live
            // VBR video: it consumes as fast as it arrives, so the client
            // can never buffer more than its preroll — a deep preroll buys
            // the long inter-burst sleeps.
            contract.stream_rate = video ? video_mean_rate() : options.proxy_config.av_rate;
            contract.client_buffer = DataSize::from_kilobytes(4096);
            contract.preroll = Time::from_seconds(6);
        } else {
            contract.stream_rate = phy::calibration::kMp3Rate;
        }
        if (options.contract_tweak) options.contract_tweak(id, contract);
        auto client = std::make_unique<HotspotClient>(sim, id, contract);

        if (options.wlan_available) {
            auto nic = std::make_unique<phy::WlanNic>(sim, config.wlan_nic,
                                                      phy::WlanNic::State::idle);
            auto link = std::make_unique<channel::WirelessLink>(config.wlan_link,
                                                                root.fork(300 + i));
            client->add_channel(
                std::make_unique<WlanBurstChannel>(sim, *nic, link.get()));
            nic_of[id] = nic.get();
            wlink_of[id] = link.get();
            wlan_nics.push_back(std::move(nic));
            wlan_links.push_back(std::move(link));
        }
        if (options.bt_available) {
            auto slave = std::make_unique<bt::BtSlave>(sim, config.bt_nic,
                                                       phy::BtNic::State::active);
            const bt::SlaveId sid = piconet.join(*slave);
            piconet.set_link(sid, config.bt_link, root.fork(400 + i));
            if (!options.bt_quality_script.empty()) {
                piconet.set_link_script(sid, options.bt_quality_script);
            }
            client->add_channel(std::make_unique<BtBurstChannel>(piconet, sid, *slave));
            sid_of[id] = sid;
            slaves.push_back(std::move(slave));
        }

        join_at.push_back(plan.registration_at(id));
        if (join_at.back().is_zero()) {
            server.register_client(*client);
            if (stored(id)) server.set_stored_content(id, true);
        }
        if (options.media_proxy) {
            auto proxy = std::make_unique<MediaProxy>(sim, *client, live_sink(id),
                                                      options.proxy_config);
            // 600 kb/s-class A/V feed: ~3 KB chunks at the A/V rate.
            sources.push_back(std::make_unique<traffic::PoissonSource>(
                sim, proxy->ingest_sink(), DataSize::from_bytes(3000),
                options.proxy_config.av_rate, root.fork(500 + i)));
            proxies.push_back(std::move(proxy));
        } else if (video) {
            sources.push_back(std::make_unique<traffic::VideoSource>(
                sim, live_sink(id), traffic::VideoSource::Config{}, root.fork(500 + i)));
        } else if (web(id)) {
            sources.push_back(std::make_unique<traffic::WebSource>(
                sim, live_sink(id), traffic::WebSource::Config{}, root.fork(500 + i)));
            web_source_of[id] = sources.back().get();
        }
        clients.push_back(std::move(client));
    }

    // Lives through the whole run: on_start callbacks may schedule probes
    // that reference it mid-simulation.
    std::vector<HotspotClient*> raw;
    raw.reserve(clients.size());
    for (auto& c : clients) raw.push_back(c.get());

    if (obs::EnergyLedger* led = obs::current_ledger()) {
        for (auto& c : clients) {
            for (BurstChannel* ch : c->channels()) {
                ch->wnic().attach_ledger(led, static_cast<std::uint32_t>(c->id()));
            }
        }
    }

    if (options.rejoin_enabled) {
        for (std::size_t i = 0; i < clients.size(); ++i) {
            agents.push_back(std::make_unique<RejoinAgent>(
                sim, server, *clients[i], options.rejoin,
                root.fork(910 + static_cast<std::uint64_t>(i))));
            agents.back()->set_on_rejoined([&server, stored](ClientId cid) {
                if (stored(cid)) server.set_stored_content(cid, true);
            });
        }
        server.set_on_client_lost([&agents](ClientId cid) {
            if (cid >= 1 && cid <= agents.size()) agents[cid - 1]->on_lost();
        });
    }

    // Late joiners: the device shows up mid-run and asks for admission.
    for (std::size_t i = 0; i < clients.size(); ++i) {
        if (join_at[i].is_zero()) continue;
        sim.post_at(join_at[i], [&server, &agents, stored, web, c = clients[i].get()] {
            if (server.try_register(*c)) {
                if (stored(c->id())) server.set_stored_content(c->id(), true);
                if (!web(c->id())) c->playout().start();
            } else if (c->id() >= 1 && c->id() <= agents.size()) {
                agents[c->id() - 1]->on_lost();  // keep trying with backoff
            }
        });
    }

    // The injector is built only when the plan is non-empty: a faults-off
    // run schedules nothing extra and consumes no extra randomness.
    std::unique_ptr<fault::FaultInjector> injector;
    if (!plan.empty()) {
        injector = std::make_unique<fault::FaultInjector>(sim, plan, root.fork(900));
        if (options.wlan_available) {
            injector->phy().nic_lockup = [&nic_of](std::uint32_t target, Time until) {
                for (auto& [id, nic] : nic_of) {
                    if (target == 0 || id == target) nic->inject_lockup(until);
                }
            };
            injector->phy().wake_stuck = [&nic_of](std::uint32_t target, Time extra) {
                for (auto& [id, nic] : nic_of) {
                    if (target == 0 || id == target) nic->inject_wake_stuck(extra);
                }
            };
        }
        injector->net().fault_window = [&sim, &wlink_of, &sid_of, &piconet](
                                           std::uint32_t target, fault::FaultSpec::Itf itf,
                                           double p, Time until) {
            if (itf != fault::FaultSpec::Itf::bt) {
                for (auto& [id, link] : wlink_of) {
                    if (target == 0 || id == target) {
                        link->add_fault_window(sim.now(), until, p);
                    }
                }
            }
            if (itf != fault::FaultSpec::Itf::wlan) {
                for (auto& [id, sid] : sid_of) {
                    if (target != 0 && id != target) continue;
                    if (auto* link = piconet.link(sid)) {
                        link->add_fault_window(sim.now(), until, p);
                    }
                }
            }
        };
        injector->core().crash = [&clients, &agents](std::uint32_t target) {
            for (auto& c : clients) {
                if (target != 0 && c->id() != target) continue;
                c->crash();
                if (c->id() >= 1 && c->id() <= agents.size()) agents[c->id() - 1]->on_crashed();
            }
        };
        injector->core().revive = [&clients, &agents](std::uint32_t target) {
            for (auto& c : clients) {
                if (target != 0 && c->id() != target) continue;
                c->revive();
                if (c->id() >= 1 && c->id() <= agents.size()) agents[c->id() - 1]->on_revived();
            }
        };
        injector->core().schedule_drop = [&server, &root](double p, Time until) {
            server.inject_schedule_drop(p, until, root.fork(902));
        };
        injector->attach_trace(options.fault_trace);
    }

    if (options.on_start) options.on_start(sim, server, raw);
    for (std::size_t i = 0; i < clients.size(); ++i) {
        clients[i]->start(/*start_playout=*/join_at[i].is_zero() && !web(clients[i]->id()));
    }
    for (auto& p : proxies) p->start();
    for (auto& s : sources) s->start();
    server.start();
    if (injector) injector->arm();
    sim.run_until(config.duration);
    for (auto& c : clients) {
        for (BurstChannel* ch : c->channels()) ch->wnic().settle_ledger();
    }

    if (options.inspect) options.inspect(sim, server, raw);

    ScenarioResult result;
    result.label = std::move(label);
    for (auto& c : clients) {
        ClientMetrics m = make_client_metrics(c->wnic_average_power(), c->wnic_energy(),
                                              c->playout(), c->bytes_received());
        if (web(c->id())) {
            // No playout: report the delivered share of what was generated.
            const DataSize generated = web_source_of.at(c->id())->bytes_generated();
            m.qos = generated.is_zero()
                        ? 1.0
                        : std::min(1.0, static_cast<double>(m.received.bytes()) /
                                            static_cast<double>(generated.bytes()));
            m.underruns = 0;
        }
        result.clients.push_back(m);
    }
    result.recovery = server.recovery_report();
    for (auto& a : agents) {
        result.recovery.rejoin_attempts += a->attempts();
        result.recovery.rejoins += a->rejoins();
        for (double t : a->recover_times_s()) result.recovery.recover_times_s.push_back(t);
    }
    for (auto& p : proxies) result.degradation.push_back(p->report());
    if (injector) result.faults_injected = injector->injected_total();
    if (obs::MetricsRegistry* reg = obs::current()) {
        for (auto& nic : wlan_nics) nic->publish_metrics(*reg, "phy.wlan");
        for (auto& s : slaves) s->nic().publish_metrics(*reg, "phy.bt");
    }
    record_client_obs(result);
    record_kernel_obs(sim);
    return result;
}

/// Policy-station power policies (cam, micro_nap, pamas): one
/// PolicyBssWorld on a single-queue Simulator, binding the phy, beacon and
/// link fault hooks (ScenarioSpec::validate whitelists each kind's subset).
ScenarioResult sim_policy_bss(const StreamConfig& config,
                              const policy::PowerPolicyConfig& power, std::string label) {
    WLANPS_REQUIRE(config.clients >= 1);
    sim::Simulator sim;
    sim::Random root(config.seed);  // world forks 100/200+i/300+i; injector 900/901

    policy::PolicyWorldConfig wc;
    wc.clients = config.clients;
    wc.seed = config.seed;
    wc.policy = power;
    wc.nic = config.wlan_nic;
    wc.link = config.wlan_link;
    wc.playout = mp3_playout();
    policy::PolicyBssWorld world(sim, wc, obs::current_ledger());

    std::unique_ptr<fault::FaultInjector> injector;
    if (!config.fault_plan.empty()) {
        injector = std::make_unique<fault::FaultInjector>(sim, config.fault_plan,
                                                          root.fork(900));
        injector->mac().beacon_loss = [&world](Time until) {
            world.ap().suppress_beacons(until);
        };
        injector->mac().poll_drop = [&world, &root](double p, Time until) {
            world.ap().inject_poll_drop(p, until, root.fork(901));
        };
        injector->phy().nic_lockup = [&world, &config](std::uint32_t target, Time until) {
            for (int i = 0; i < config.clients; ++i) {
                if (target == 0 || target == static_cast<std::uint32_t>(i + 1)) {
                    world.station(i).wlan_nic().inject_lockup(until);
                }
            }
        };
        injector->phy().wake_stuck = [&world, &config](std::uint32_t target, Time extra) {
            for (int i = 0; i < config.clients; ++i) {
                if (target == 0 || target == static_cast<std::uint32_t>(i + 1)) {
                    world.station(i).wlan_nic().inject_wake_stuck(extra);
                }
            }
        };
        bind_wlan_fault_window(*injector, sim, world.bss(), config.clients);
    }

    world.start();
    if (injector) injector->arm();
    sim.run_until(config.duration);
    world.settle();

    ScenarioResult result;
    result.label = std::move(label);
    if (injector) result.faults_injected = injector->injected_total();
    for (int i = 0; i < config.clients; ++i) {
        policy::PolicyStation& st = world.station(i);
        result.clients.push_back(make_client_metrics(st.average_power(), st.energy_consumed(),
                                              world.playout(i), st.bytes_received()));
    }
    if (obs::MetricsRegistry* reg = obs::current()) {
        for (int i = 0; i < config.clients; ++i) {
            world.station(i).wlan_nic().publish_metrics(*reg, "phy.wlan");
        }
    }
    record_client_obs(result);
    record_kernel_obs(sim);
    return result;
}

}  // namespace

ScenarioResult SimBackend::do_run(const ScenarioSpec& spec, std::uint64_t seed) const {
    StreamConfig config = spec.stream();
    config.seed = seed;
    switch (spec.policy()) {
        case Policy::cam: {
            // The WLAN world: one station build per power-policy kind.
            const policy::PowerPolicyConfig power =
                spec.has_power_policy() ? spec.power_policy_config()
                                        : policy::PowerPolicyConfig::of(policy::PolicyKind::cam);
            switch (power.kind) {
                case policy::PolicyKind::ecmac: return sim_ecmac(config, power.ecmac_superframe);
                case policy::PolicyKind::cam:
                case policy::PolicyKind::psm:
                case policy::PolicyKind::micro_nap:
                case policy::PolicyKind::pamas:
                    return sim_policy_bss(config, power, spec.label());
            }
            break;
        }
        case Policy::bt: return sim_bt_active(config);
        case Policy::hotspot:
            if (spec.hotspot_config().sharding.enabled()) {
                return sim_sharded_hotspot(config, spec.hotspot_config());
            }
            return sim_hotspot(config, spec.hotspot_config(), spec.label());
        case Policy::federation:
            return fed::run_federation(spec, seed).scenario;
    }
    WLANPS_REQUIRE_MSG(false, "bad policy");
    return {};
}

}  // namespace wlanps::core

namespace wlanps::core::scenarios {

exp::Metrics to_metrics(const ScenarioResult& result) {
    exp::Metrics metrics;
    metrics.reserve(3 + 2 * result.clients.size());
    metrics.emplace_back("wnic_w", result.mean_wnic().watts());
    metrics.emplace_back("device_w", result.mean_device().watts());
    metrics.emplace_back("qos_min", result.min_qos());
    for (std::size_t i = 0; i < result.clients.size(); ++i) {
        const std::string prefix = "c" + std::to_string(i + 1) + ".";
        metrics.emplace_back(prefix + "wnic_w", result.clients[i].wnic_average.watts());
        metrics.emplace_back(prefix + "qos", result.clients[i].qos);
    }
    return metrics;
}

exp::Metrics to_recovery_metrics(const ScenarioResult& result) {
    exp::Metrics metrics = to_metrics(result);
    const RecoveryReport& r = result.recovery;
    metrics.emplace_back("faults_injected", static_cast<double>(result.faults_injected));
    metrics.emplace_back("liveness_reclaims", static_cast<double>(r.liveness_reclaims));
    metrics.emplace_back("burst_repairs", static_cast<double>(r.burst_repairs));
    metrics.emplace_back("schedule_drops", static_cast<double>(r.schedule_drops));
    metrics.emplace_back("rejoin_attempts", static_cast<double>(r.rejoin_attempts));
    metrics.emplace_back("rejoins", static_cast<double>(r.rejoins));
    double recover_sum = 0.0;
    for (double t : r.recover_times_s) recover_sum += t;
    metrics.emplace_back("mean_recover_s", r.recover_times_s.empty()
                                               ? 0.0
                                               : recover_sum / static_cast<double>(
                                                                   r.recover_times_s.size()));
    std::uint64_t video_drops = 0;
    std::uint64_t pauses = 0;
    double audio_only_s = 0.0;
    double paused_s = 0.0;
    for (const auto& d : result.degradation) {
        video_drops += d.video_drops;
        pauses += d.pauses;
        audio_only_s += d.time_audio_only_s;
        paused_s += d.time_paused_s;
    }
    metrics.emplace_back("video_drops", static_cast<double>(video_drops));
    metrics.emplace_back("pauses", static_cast<double>(pauses));
    metrics.emplace_back("time_audio_only_s", audio_only_s);
    metrics.emplace_back("time_paused_s", paused_s);
    return metrics;
}

exp::RunFn spec_grid_run(std::shared_ptr<const Backend> backend,
                         std::vector<ScenarioSpec> specs) {
    WLANPS_REQUIRE_MSG(backend != nullptr, "spec_grid_run needs a backend");
    WLANPS_REQUIRE_MSG(!specs.empty(), "spec_grid_run needs at least one spec");
    for (const ScenarioSpec& spec : specs) spec.validate();
    return [backend = std::move(backend), specs = std::move(specs)](
               const exp::ParamPoint& point, std::uint64_t seed) {
        WLANPS_REQUIRE_MSG(point.index < specs.size(),
                           "grid point " + std::to_string(point.index) + " has no spec (" +
                               std::to_string(specs.size()) + " provided)");
        return to_metrics(backend->run(specs[point.index], seed));
    };
}

exp::RunFn fault_grid_run(StreamConfig config, core::HotspotConfig options,
                          std::vector<fault::FaultPlan> plans) {
    WLANPS_REQUIRE_MSG(!plans.empty(), "fault grid needs at least one plan");
    auto spec = ScenarioSpec::hotspot().with_stream(std::move(config)).with_hotspot(
        std::move(options));
    // The runner calls this from several worker threads at once, so each
    // call plans its own copy of the spec.
    return [spec = std::move(spec), plans = std::move(plans)](const exp::ParamPoint& point,
                                                              std::uint64_t seed) {
        WLANPS_REQUIRE_MSG(point.index < plans.size(),
                           "grid point " + std::to_string(point.index) + " has no fault plan (" +
                               std::to_string(plans.size()) + " provided)");
        ScenarioSpec cell = spec;
        cell.with_fault_plan(plans[point.index]);
        return to_recovery_metrics(SimBackend{}.run(cell, seed));
    };
}

}  // namespace wlanps::core::scenarios
