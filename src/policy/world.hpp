#pragma once
/// \file world.hpp
/// Reusable policy-BSS world: one AP + N policy-driven stations streaming
/// MP3, buildable into an external Simulator.
///
/// The core scenario layer builds one of these per cam, psm, micro_nap
/// and pamas run; the determinism tests build one per shard of a
/// ShardedSimulator (the world only needs a Simulator&, so it drops into
/// either).  Energy attribution takes an explicit ledger pointer — the
/// thread-local obs::current_ledger() is invisible to sharded worker
/// threads.

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/link.hpp"
#include "mac/access_point.hpp"
#include "mac/bss.hpp"
#include "obs/energy_ledger.hpp"
#include "policy/policy.hpp"
#include "policy/station.hpp"
#include "sim/simulator.hpp"
#include "traffic/playout.hpp"
#include "traffic/source.hpp"

namespace wlanps::policy {

/// Everything a policy-BSS world needs to build.
struct PolicyWorldConfig {
    int clients = 3;
    std::uint64_t seed = 42;
    /// Any kind but ecmac (cam, psm, micro_nap or pamas).
    PowerPolicyConfig policy;
    phy::WlanNicConfig nic;
    channel::GilbertElliottConfig link;
    traffic::PlayoutBuffer::Config playout;
};

/// One AP + N PolicyStations + per-station playout buffers and sources.
class PolicyBssWorld {
public:
    PolicyBssWorld(sim::Simulator& sim, PolicyWorldConfig config,
                   obs::EnergyLedger* ledger);

    /// Start the AP, stations, playout buffers and sources.
    void start();
    /// Flush energy-ledger tails (end of run, before reading the ledger).
    void settle();

    [[nodiscard]] int clients() const { return config_.clients; }
    [[nodiscard]] mac::Bss& bss() { return bss_; }
    [[nodiscard]] mac::AccessPoint& ap() { return ap_; }
    [[nodiscard]] PolicyStation& station(int i) { return *stations_[static_cast<std::size_t>(i)]; }
    [[nodiscard]] PowerPolicy& policy(int i) { return *policies_[static_cast<std::size_t>(i)]; }
    [[nodiscard]] traffic::PlayoutBuffer& playout(int i) {
        return *playouts_[static_cast<std::size_t>(i)];
    }

    /// FNV-1a digest of per-station end-state (energy bit patterns, byte
    /// and frame counters) — the determinism tests compare these across
    /// worker-thread counts.
    [[nodiscard]] std::uint64_t fingerprint() const;

private:
    sim::Simulator& sim_;
    PolicyWorldConfig config_;
    mac::Bss bss_;
    mac::AccessPoint ap_;
    std::vector<std::unique_ptr<PowerPolicy>> policies_;
    std::vector<std::unique_ptr<PolicyStation>> stations_;
    std::vector<std::unique_ptr<traffic::PlayoutBuffer>> playouts_;
    std::vector<std::unique_ptr<traffic::Mp3Source>> sources_;
};

}  // namespace wlanps::policy
