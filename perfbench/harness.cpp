/// \file harness.cpp
/// Closed-loop benchmark of the wlanps simulator: one process, one op in
/// flight, every op of a run on the same seed (so every op does identical
/// simulated work and any spread in op time comes from the host).
///
///   perfbench --workload <fig2_paper|policy_sweep|fed_flash> --seed N
///             --seconds S --trace <0|1> [--out DIR]
///
/// --trace 0 times ops untraced and prints the end-to-end metrics.
/// --trace 1 records spans around every public call the benchmark makes
/// into a module, writes them to DIR at exit, and prints the per-layer
/// metrics.  The last stdout line is the result JSON; the line before it
/// carries the host fingerprint and sample counts.  NOTES.md explains the
/// workloads, the metrics and the layer -> end-to-end map.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analytic/backend.hpp"
#include "channel/ber.hpp"
#include "channel/gilbert_elliott.hpp"
#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "core/scheduler.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "fed/federation.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/health_report.hpp"
#include "policy/policy.hpp"
#include "power/state_machine.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace wlanps;

namespace {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak RSS of this process image.  VmHWM restarts at exec; getrusage's
/// ru_maxrss does not, so it would report a larger parent's peak (the
/// Python launcher's, for one).
double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return std::nan("");
}

/// Linear-interpolated quantile (q in [0, 1]) of \p v.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto i = static_cast<std::size_t>(pos);
    if (i + 1 >= v.size()) return v.back();
    return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at exit.  Untraced runs pay one
// pointer test per span.

struct SpanRec {
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t parent = -1;
    std::int64_t op = -1;
};

class Tracer {
public:
    std::int64_t open(std::string name, std::int64_t parent, std::int64_t op) {
        const std::int64_t start = now_ns();
        const std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(SpanRec{std::move(name), start, 0, parent, op});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }
    /// Record an already finished span.
    void add(std::string name, std::int64_t start, std::int64_t end, std::int64_t parent,
             std::int64_t op) {
        const std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(SpanRec{std::move(name), start, end, parent, op});
    }
    void close(std::int64_t id) {
        const std::int64_t end = now_ns();
        const std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].end = end;
    }
    /// Spans recorded so far; call only when no span is open on another
    /// thread.
    [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }

private:
    std::mutex mu_;
    std::vector<SpanRec> spans_;
};

Tracer* g_tracer = nullptr;
thread_local std::int64_t t_span = -1;  // innermost open span on this thread
thread_local std::int64_t t_op = -1;    // op the thread works for

/// RAII span.  The parent defaults to the innermost span open on this
/// thread; work handed to another thread passes its parent explicitly.
class Span {
public:
    explicit Span(const std::string& name) : Span(name, t_span, t_op) {}
    Span(const std::string& name, std::int64_t parent, std::int64_t op) {
        if (g_tracer == nullptr) return;
        id_ = g_tracer->open(name, parent, op);
        prev_span_ = t_span;
        prev_op_ = t_op;
        t_span = id_;
        t_op = op;
    }
    ~Span() {
        if (id_ < 0) return;
        g_tracer->close(id_);
        t_span = prev_span_;
        t_op = prev_op_;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    [[nodiscard]] std::int64_t id() const { return id_; }

private:
    std::int64_t id_ = -1;
    std::int64_t prev_span_ = -1;
    std::int64_t prev_op_ = -1;
};

/// Span structure of a finished traced run.
class SpanIndex {
public:
    explicit SpanIndex(const std::vector<SpanRec>& spans) : spans_(spans), kids_(spans.size()) {
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].parent >= 0) kids_[static_cast<std::size_t>(spans[i].parent)].push_back(i);
        }
    }
    [[nodiscard]] double ms(std::size_t i) const {
        return static_cast<double>(spans_[i].end - spans_[i].start) / 1e6;
    }
    /// Wall time of span \p i not covered by any of its children (child
    /// intervals on several threads may overlap; their union is removed).
    [[nodiscard]] double self_ms(std::size_t i) const {
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (std::size_t k : kids_[i]) iv.emplace_back(spans_[k].start, spans_[k].end);
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0;
        std::int64_t cur_hi = -1;
        for (const auto& [lo, hi] : iv) {
            if (lo > cur_hi) {
                if (cur_hi >= cur_lo) covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi >= cur_lo) covered += cur_hi - cur_lo;
        return static_cast<double>(spans_[i].end - spans_[i].start - covered) / 1e6;
    }
    [[nodiscard]] const std::vector<std::size_t>& children(std::size_t i) const {
        return kids_[i];
    }
    /// Summed duration of the children of \p i named \p name.
    [[nodiscard]] double child_ms(std::size_t i, const std::string& name) const {
        double sum = 0.0;
        for (std::size_t k : kids_[i]) {
            if (spans_[k].name == name) sum += ms(k);
        }
        return sum;
    }
    /// First child of \p i named \p name, or -1.
    [[nodiscard]] std::int64_t child(std::size_t i, const std::string& name) const {
        for (std::size_t k : kids_[i]) {
            if (spans_[k].name == name) return static_cast<std::int64_t>(k);
        }
        return -1;
    }
    [[nodiscard]] const SpanRec& at(std::size_t i) const { return spans_[i]; }

private:
    const std::vector<SpanRec>& spans_;
    std::vector<std::vector<std::size_t>> kids_;
};

// ---------------------------------------------------------------------------
// Per-op results and layer samples.

/// Per-layer values of one op, by metric name.
using Sample = std::map<std::string, double>;

struct Check {
    bool ok = true;
    std::string why;
    void require(bool cond, const std::string& what) {
        if (!cond && ok) {
            ok = false;
            why = what;
        }
    }
};

double saving_pct(double base_w, double w) { return 100.0 * (1.0 - w / base_w); }

/// The paper's headline: Hotspot scheduling saves 97% of WNIC power.
constexpr double kPaperSavingPct = 97.0;

// --- fig2_paper -------------------------------------------------------------

struct Fig2Out {
    std::array<core::ScenarioResult, 4> sim;       // cam, psm, bt, hotspot
    std::array<core::ScenarioResult, 4> analytic;  // same specs, closed form
    std::uint64_t hotspot_events = 0;
    std::int64_t hotspot_built_ns = 0;  // world built, run starts (on_start)
    std::int64_t hotspot_ran_ns = 0;    // run finished, teardown starts (inspect)
    obs::EnergyLedger::CauseArray hotspot_causes{};

    [[nodiscard]] double saving_gap_pp() const {
        return std::fabs(kPaperSavingPct - saving_pct(sim[0].mean_wnic().watts(),
                                                      sim[3].mean_wnic().watts()));
    }
    [[nodiscard]] double xval_gap_pp() const {
        double gap = 0.0;
        for (std::size_t i = 0; i < 4; ++i) {
            const double s = saving_pct(sim[0].mean_wnic().watts(), sim[i].mean_wnic().watts());
            const double a =
                saving_pct(analytic[0].mean_wnic().watts(), analytic[i].mean_wnic().watts());
            gap = std::max(gap, std::fabs(s - a));
        }
        return gap;
    }
    [[nodiscard]] double qos_min_pct() const {
        double q = 1.0;
        for (const auto& r : sim) q = std::min(q, r.min_qos());
        return 100.0 * q;
    }
};

const char* const kFig2Names[4] = {"cam", "psm", "bt", "hotspot"};

/// The four Figure 2 specs.  With \p out, hotspot hooks note the event count
/// and the build/run/teardown boundaries there; the analytic backend takes
/// only hook-free specs.
std::array<core::ScenarioSpec, 4> fig2_specs(std::uint64_t seed, Fig2Out* out) {
    core::StreamConfig config;
    config.clients = 3;
    config.duration = Time::from_seconds(300);
    config.seed = seed;
    core::HotspotConfig hs;
    hs.scheduler = "edf";
    if (out != nullptr) {
        hs.on_start = [out](sim::Simulator&, core::HotspotServer&,
                            std::vector<core::HotspotClient*>&) {
            out->hotspot_built_ns = now_ns();
        };
        hs.inspect = [out](sim::Simulator& s, core::HotspotServer&,
                           std::vector<core::HotspotClient*>&) {
            out->hotspot_ran_ns = now_ns();
            out->hotspot_events = s.events_dispatched();
        };
    }
    return {core::ScenarioSpec::cam().with_stream(config),
            core::ScenarioSpec::psm().with_stream(config),
            core::ScenarioSpec::bt().with_stream(config),
            core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(hs)};
}

obs::EnergyLedger::CauseArray cause_totals(const obs::EnergyLedger& ledger) {
    obs::EnergyLedger::CauseArray out{};
    for (std::size_t c = 0; c < obs::kEnergyCauseCount; ++c) {
        out[c] = ledger.cause_total(static_cast<obs::EnergyCause>(c));
    }
    return out;
}

/// One Figure 2 reproduction, as bench_fig2_ipaq_power runs it, plus the
/// analytic backend on the same specs.
Fig2Out fig2_op(std::uint64_t seed) {
    Fig2Out out;
    const auto specs = fig2_specs(seed, &out);
    obs::EnergyLedger ledger;
    obs::ScopedEnergyLedger ledger_scope(ledger);
    const core::SimBackend backend;
    for (std::size_t i = 0; i < 3; ++i) {
        Span span(std::string("core.run.") + kFig2Names[i]);
        out.sim[i] = backend.run(specs[i]);
    }
    const auto before = cause_totals(ledger);
    {
        Span span("core.run.hotspot");
        const std::int64_t start = now_ns();
        out.sim[3] = backend.run(specs[3]);
        if (g_tracer != nullptr) {
            g_tracer->add("core.hotspot.build", start, out.hotspot_built_ns, span.id(), t_op);
            g_tracer->add("core.hotspot.sim", out.hotspot_built_ns, out.hotspot_ran_ns,
                          span.id(), t_op);
        }
    }
    const auto after = cause_totals(ledger);
    for (std::size_t c = 0; c < obs::kEnergyCauseCount; ++c) {
        out.hotspot_causes[c] = after[c] - before[c];
    }
    const auto plain = fig2_specs(seed, nullptr);
    const analytic::AnalyticBackend oracle;
    Span span("analytic.run");
    for (std::size_t i = 0; i < 4; ++i) out.analytic[i] = oracle.run(plain[i]);
    return out;
}

Check check_fig2(const Fig2Out& o, const Fig2Out& ref) {
    Check c;
    const double cam = o.sim[0].mean_wnic().watts();
    const double bt = o.sim[2].mean_wnic().watts();
    const double hs = o.sim[3].mean_wnic().watts();
    c.require(cam > bt && bt > hs, "WNIC power does not order cam > bt > hotspot");
    c.require(o.qos_min_pct() >= 99.0, "a client's QoS fell below 99%");
    c.require(o.xval_gap_pp() <= 5.0, "sim and analytic savings differ by more than 5 pp");
    for (std::size_t i = 0; i < 4; ++i) {
        c.require(o.sim[i].mean_wnic().watts() == ref.sim[i].mean_wnic().watts() &&
                      o.sim[i].min_qos() == ref.sim[i].min_qos(),
                  std::string(kFig2Names[i]) + " differs from the reference op");
    }
    c.require(o.hotspot_events == ref.hotspot_events, "hotspot event count differs");
    return c;
}

double cause(const obs::EnergyLedger::CauseArray& a, obs::EnergyCause c) {
    return a[static_cast<std::size_t>(c)];
}

Sample fig2_sample(const SpanIndex& ix, std::size_t op, const Fig2Out& o) {
    Sample s;
    for (const char* name : kFig2Names) {
        s[std::string("core.run_ms.") + name] = ix.child_ms(op, std::string("core.run.") + name);
    }
    s["analytic.run_us"] = 1e3 * ix.child_ms(op, "analytic.run");
    const std::int64_t hs = ix.child(op, "core.run.hotspot");
    if (hs >= 0) {
        const auto h = static_cast<std::size_t>(hs);
        s["core.build_ms.hotspot"] = ix.child_ms(h, "core.hotspot.build");
        s["core.sim_ms.hotspot"] = ix.child_ms(h, "core.hotspot.sim");
        s["core.self_ms.hotspot"] = ix.self_ms(h);
    }
    s["sim.events.hotspot"] = static_cast<double>(o.hotspot_events);
    s["sim.ns_per_event.hotspot"] =
        1e6 * s["core.run_ms.hotspot"] / static_cast<double>(o.hotspot_events);
    s["energy.idle_listen_j"] = cause(o.hotspot_causes, obs::EnergyCause::idle_listen);
    s["energy.burst_rx_j"] = cause(o.hotspot_causes, obs::EnergyCause::burst_rx);
    s["energy.mode_switch_j"] = cause(o.hotspot_causes, obs::EnergyCause::mode_switch);
    return s;
}

// --- policy_sweep -------------------------------------------------------------

const policy::PolicyKind kKinds[4] = {policy::PolicyKind::cam, policy::PolicyKind::psm,
                                      policy::PolicyKind::micro_nap,
                                      policy::PolicyKind::pamas};
const char* const kFaults[3] = {"clean", "mild", "harsh"};

/// The AB14 fault-intensity axis (bench_ab14_policy_ablation).
fault::FaultPlan fault_plan(std::size_t f) {
    fault::FaultPlan plan;
    if (f == 1) plan.corruption(Time::from_seconds(10), Time::from_seconds(10), 0.25);
    if (f == 2) {
        plan.corruption(Time::from_seconds(10), Time::from_seconds(15), 0.5)
            .blackout(Time::from_seconds(15), Time::from_seconds(3), 0,
                      fault::FaultSpec::Itf::wlan);
    }
    return plan;
}

struct SweepOut {
    /// Per grid point (policy-major): the RunFn's metrics, in emission order.
    std::vector<exp::Metrics> cells;

    [[nodiscard]] double get(std::size_t p, std::size_t f, const char* name) const {
        for (const auto& [k, v] : cells[p * 3 + f]) {
            if (k == name) return v;
        }
        return std::nan("");
    }
    [[nodiscard]] double qos_min_pct() const {
        double q = 1.0;
        for (std::size_t p = 0; p < 4; ++p) {
            for (std::size_t f = 0; f < 3; ++f) q = std::min(q, get(p, f, "qos_min"));
        }
        return 100.0 * q;
    }
};

/// One full AB14 grid: 4 policies x 3 fault intensities, 2 clients, 60 s,
/// 12 points through the experiment runner.  Each point scopes its own
/// ledger, as bench_ab14_policy_ablation does.
SweepOut sweep_op(std::uint64_t seed, const exp::ExperimentRunner& runner) {
    Span runner_span("exp.runner");
    const std::int64_t parent = runner_span.id();
    const std::int64_t op = t_op;
    auto backend = std::make_shared<const core::SimBackend>();
    exp::ExperimentSpec spec;
    spec.with_run([backend, parent, op](const exp::ParamPoint& point, std::uint64_t s) {
        const std::size_t p = point.index / 3;
        const std::size_t f = point.index % 3;
        Span cell(std::string("policy.cell.") + policy::to_string(kKinds[p]) + "." + kFaults[f],
                  parent, op);
        const auto scenario = core::ScenarioSpec::cam()
                                  .with_power_policy(policy::PowerPolicyConfig::of(kKinds[p]))
                                  .with_clients(2)
                                  .with_duration(Time::from_seconds(60))
                                  .with_fault_plan(fault_plan(f));
        obs::EnergyLedger ledger;
        obs::ScopedEnergyLedger scope(ledger);
        core::ScenarioResult r;
        {
            Span run("core.run");
            r = backend->run(scenario, s);
        }
        double aggregate_j = 0.0;
        for (const auto& c : r.clients) aggregate_j += c.wnic_energy.joules();
        return exp::Metrics{
            {"wnic_w", r.mean_wnic().watts()},
            {"qos_min", r.min_qos()},
            {"faults", static_cast<double>(r.faults_injected)},
            {"recon_err_j", std::fabs(ledger.total() - aggregate_j)},
            {"idle_listen_j", ledger.cause_total(obs::EnergyCause::idle_listen)},
            {"nav_sleep_j", ledger.cause_total(obs::EnergyCause::nav_sleep)},
        };
    });
    for (const auto kind : kKinds) {
        for (const char* f : kFaults) spec.with_point(std::string(policy::to_string(kind)) + "/" + f);
    }
    spec.with_seeds({seed});
    const exp::ExperimentResult result = runner.run(spec);
    SweepOut out;
    out.cells.resize(12);
    for (const auto& run : result.runs) out.cells[run.point] = run.metrics;
    return out;
}

Check check_sweep(const SweepOut& o, const SweepOut& ref) {
    Check c;
    for (std::size_t p = 0; p < 4; ++p) {
        for (std::size_t f = 0; f < 3; ++f) {
            c.require(o.get(p, f, "recon_err_j") < 1e-9,
                      std::string("ledger does not reconcile in ") + policy::to_string(kKinds[p]) +
                          "/" + kFaults[f]);
        }
    }
    c.require(o.get(2, 0, "idle_listen_j") < o.get(0, 0, "idle_listen_j"),
              "micro_nap clean idle_listen is not below cam's");
    c.require(o.cells == ref.cells, "grid differs from the single-thread reference");
    return c;
}

Sample sweep_sample(const SpanIndex& ix, std::size_t op, const SweepOut& o, unsigned threads) {
    Sample s;
    const std::int64_t r = ix.child(op, "exp.runner");
    if (r < 0) return s;
    const auto runner = static_cast<std::size_t>(r);
    std::map<std::string, std::vector<double>> by_policy;
    std::map<std::string, std::vector<double>> by_fault;
    double cells_ms = 0.0;
    for (std::size_t k : ix.children(runner)) {
        const std::string& name = ix.at(k).name;  // policy.cell.<policy>.<fault>
        const std::string rest = name.substr(std::strlen("policy.cell."));
        const auto dot = rest.rfind('.');
        by_policy[rest.substr(0, dot)].push_back(ix.ms(k));
        by_fault[rest.substr(dot + 1)].push_back(ix.ms(k));
        cells_ms += ix.ms(k);
    }
    for (const auto& [p, v] : by_policy) s["policy.cell_ms." + p] = median(v);
    for (const auto& [f, v] : by_fault) s["fault.cell_ms." + f] = median(v);
    s["exp.runner_ms"] = ix.ms(runner);
    s["exp.self_ms"] = ix.self_ms(runner);
    s["exp.busy_share"] = cells_ms / (threads * ix.ms(runner));
    double injected = 0.0;
    double err = 0.0;
    for (std::size_t p = 0; p < 4; ++p) {
        for (std::size_t f = 0; f < 3; ++f) {
            injected += o.get(p, f, "faults");
            err = std::max(err, o.get(p, f, "recon_err_j"));
        }
    }
    s["fault.injected"] = injected;
    s["obs.ledger_err_j"] = err;
    s["energy.nav_sleep_j"] = o.get(2, 0, "nav_sleep_j");
    return s;
}

// --- fed_flash ----------------------------------------------------------------

core::ScenarioSpec fed_spec(int threads) {
    core::StreamConfig config;
    config.clients = 2000;
    config.duration = Time::from_seconds(30);
    core::FederationConfig fed;
    fed.with_aps(16)
        .with_shards(4)
        .with_threads(threads)
        .with_roaming(Time::from_seconds(8))
        .with_admission(core::AdmissionPolicy::defer)
        .with_capacity_per_ap(256);
    fed.base_arrival_hz = 2.0;
    fed.flash_arrival_hz = 50.0;
    fed.flash_start = Time::from_seconds(10);
    fed.flash_duration = Time::from_seconds(10);
    return core::ScenarioSpec::federation().with_stream(config).with_federation(fed);
}

/// Sim worker threads of the timed federation op.
constexpr int kFedThreads = 2;

struct FedOut {
    fed::PopulationSummary pop;
    obs::HealthReport health;

    [[nodiscard]] double shed_pct() const {
        return 100.0 * static_cast<double>(pop.bursts_shed) /
               static_cast<double>(pop.bursts_admitted);
    }
};

/// One BM_Federation-shaped run: the Federation constructor plus run().
FedOut fed_op(const core::ScenarioSpec& spec, std::uint64_t seed) {
    std::unique_ptr<fed::Federation> federation;
    {
        Span span("fed.build");
        federation = std::make_unique<fed::Federation>(spec, seed);
    }
    fed::FederationResult r;
    {
        Span span("fed.run");
        r = federation->run();
    }
    FedOut out;
    out.pop = r.population;
    out.health = std::move(r.health);
    return out;
}

Check check_fed(const FedOut& o, const FedOut& ref) {
    Check c;
    c.require(o.pop.conserved(), "burst conservation (admitted == completed + shed) broken");
    c.require(o.pop.fingerprint == ref.pop.fingerprint,
              "population fingerprint differs from the inline reference");
    c.require(o.pop.bursts_admitted > 0, "no burst admitted");
    return c;
}

Sample fed_sample(const SpanIndex& ix, std::size_t op, const FedOut& o) {
    Sample s;
    s["fed.build_ms"] = ix.child_ms(op, "fed.build");
    s["fed.run_ms"] = ix.child_ms(op, "fed.run");
    s["fed.us_per_event"] = 1e3 * s["fed.run_ms"] / static_cast<double>(o.health.events);
    s["fed.arrivals"] = static_cast<double>(o.pop.arrivals);
    s["fed.deferred"] = static_cast<double>(o.pop.deferred);
    s["fed.roams"] = static_cast<double>(o.pop.roams);
    s["fed.bursts_admitted"] = static_cast<double>(o.pop.bursts_admitted);
    s["fed.bursts_completed"] = static_cast<double>(o.pop.bursts_completed);
    s["sim.quanta"] = static_cast<double>(o.health.quanta);
    s["sim.idle_jumps"] = static_cast<double>(o.health.idle_jumps);
    s["sim.events"] = static_cast<double>(o.health.events);
    s["sim.imbalance"] = o.health.imbalance_index;
    return s;
}

// ---------------------------------------------------------------------------
// Layer probes: each calls only its module's public functions, with an input
// mix shaped after fig2_paper, and reports ns per call next to the number of
// calls it replays.  Each is timed in kReps batches; the median batch counts.

constexpr int kProbeReps = 5;

struct ProbeOut {
    double ns_per_call = 0.0;
    double calls = 0.0;
    bool ok = true;
};

template <typename Batch>
ProbeOut probe(std::size_t calls, Batch&& batch) {
    std::vector<double> ns;
    bool ok = true;
    for (int r = 0; r < kProbeReps; ++r) {
        const std::int64_t t0 = now_ns();
        ok = batch(static_cast<std::uint64_t>(r)) && ok;
        ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(calls));
    }
    return ProbeOut{median(ns), static_cast<double>(calls), ok};
}

/// sim: post_in + dispatch with a steady pending set.  Gaps mix the three
/// time scales of a fig2 run: MAC slots/SIFS (tens of µs), frame and beacon
/// spacing (ms), and burst periods (s).
ProbeOut probe_sim(std::uint64_t seed) {
    constexpr std::size_t kPosts = 400000;
    constexpr int kPending = 24;
    return probe(kPosts, [seed](std::uint64_t rep) {
        sim::Random rng(seed + rep);
        std::vector<Time> gaps(4096);
        for (Time& g : gaps) {
            const double u = rng.uniform();
            g = u < 0.6   ? Time::from_us(rng.uniform(10.0, 200.0))
                : u < 0.9 ? Time::from_ms(rng.uniform(1.0, 100.0))
                          : Time::from_ms(rng.uniform(100.0, 3000.0));
        }
        sim::Simulator s;
        std::size_t posted = 0;
        std::function<void()> step = [&] {
            if (posted < kPosts) {
                s.post_in(gaps[posted % gaps.size()], [&step] { step(); });
                ++posted;
            }
        };
        for (int i = 0; i < kPending; ++i) step();
        s.run();
        return s.events_dispatched() == kPosts && posted == kPosts;
    });
}

/// power: PowerStateMachine::request over the WLAN NIC's state graph, in
/// the shape a fig2 run drives it: mostly idle <-> rx/tx around frames,
/// with doze and off cycles around bursts.
ProbeOut probe_power() {
    constexpr std::size_t kRequests = 200000;
    power::PowerModel model;
    const auto off = model.add_state("off", power::Power::from_watts(0.0));
    const auto doze = model.add_state("doze", power::Power::from_watts(0.045));
    const auto idle = model.add_state("idle", power::Power::from_watts(0.830));
    const auto rx = model.add_state("rx", power::Power::from_watts(0.950));
    const auto tx = model.add_state("tx", power::Power::from_watts(1.400));
    model.add_transition(off, idle, Time::from_ms(300), power::Energy::from_joules(0.12));
    model.add_transition(idle, off, Time::from_ms(10), power::Energy::from_joules(0.004));
    model.add_transition(doze, idle, Time::from_ms(2), power::Energy::from_joules(0.0008));
    model.add_transition(idle, doze, Time::from_ms(1), power::Energy::from_joules(0.0004));
    // 16 requests per cycle: 6 frame exchanges, one doze and one off cycle.
    const power::StateId cycle[16] = {rx, idle, tx, idle, rx, idle, rx, idle,
                                      doze, idle, rx, idle, tx, idle, off, idle};
    return probe(kRequests, [&](std::uint64_t) {
        sim::Simulator s;
        power::PowerStateMachine m(s, model, idle);
        for (std::size_t i = 0; i < kRequests; ++i) {
            m.request(cycle[i % 16]);
            s.run();
        }
        const std::size_t cycles = kRequests / 16;
        // The initial state counts as one entry into idle.
        return m.entries(idle) == 8 * cycles + 1 && m.entries(rx) == 4 * cycles &&
               m.entries(off) == cycles && m.state() == idle;
    });
}

/// channel: GilbertElliott::transmit_success on the fig2 WLAN link, one
/// 1500 B frame at 11 Mb/s per call, frames 0.05-5 ms apart.
ProbeOut probe_ge(std::uint64_t seed) {
    constexpr std::size_t kFrames = 400000;
    const core::StreamConfig fig2;
    return probe(kFrames, [&](std::uint64_t rep) {
        sim::Random rng(seed + rep);
        channel::GilbertElliott ge(fig2.wlan_link, rng.fork(1));
        Time t = Time::zero();
        std::size_t ok = 0;
        for (std::size_t i = 0; i < kFrames; ++i) {
            t += Time::from_us(50.0 + static_cast<double>((i * 2654435761u) % 4950));
            ok += ge.transmit_success(t, DataSize::from_bytes(1500), Rate::from_mbps(11.0)) ? 1 : 0;
        }
        return ok > kFrames / 2 && ok <= kFrames;
    });
}

/// channel: PerTable::per for 1500 B CCK-11 frames over 0-30 dB SNR.
ProbeOut probe_per(std::uint64_t seed) {
    constexpr std::size_t kLookups = 1000000;
    const channel::PerTable& table =
        channel::PerTable::lookup(channel::Modulation::cck11, DataSize::from_bytes(1500));
    return probe(kLookups, [&](std::uint64_t rep) {
        sim::Random rng(seed + rep);
        std::vector<double> snr(1024);
        for (double& x : snr) x = rng.uniform(0.0, 30.0);
        double sum = 0.0;
        for (std::size_t i = 0; i < kLookups; ++i) sum += table.per(snr[i % snr.size()]);
        const double mean = sum / static_cast<double>(kLookups);
        return mean > 0.0 && mean < 1.0;
    });
}

/// core: EDF and WFQ pick over the 3 pending bursts of a fig2 hotspot.
ProbeOut probe_sched() {
    constexpr std::size_t kPicks = 1000000;
    return probe(kPicks, [](std::uint64_t) {
        core::EdfScheduler edf;
        core::WfqScheduler wfq;
        std::vector<core::BurstRequest> pending(3);
        std::size_t bad = 0;
        for (std::size_t i = 0; i < kPicks; ++i) {
            for (std::size_t c = 0; c < 3; ++c) {
                pending[c].client = static_cast<core::ClientId>(c + 1);
                pending[c].size = DataSize::from_kilobytes(48);
                pending[c].deadline = Time::from_ms(static_cast<double>((i + 7 * c) % 23));
            }
            core::Scheduler& s = (i % 2 == 0) ? static_cast<core::Scheduler&>(edf) : wfq;
            const std::size_t k = s.pick(pending, Time::zero());
            if (k >= pending.size()) ++bad;
            else s.on_dispatch(pending[k], Time::from_ms(35));
        }
        return bad == 0;
    });
}

// ---------------------------------------------------------------------------
// Host-speed calibration: a fixed, benchmark-owned piece of event-loop-shaped
// work (binary heap of timestamps, ordered-map churn, indirect calls) that
// uses no library code, so no change to the program can speed it up.

std::uint64_t calibrate_work(std::uint64_t seed) {
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
    std::map<std::uint32_t, std::uint64_t> live;
    std::vector<std::function<std::uint64_t(std::uint64_t)>> fns = {
        [](std::uint64_t v) { return v * 3 + 1; }, [](std::uint64_t v) { return v ^ (v >> 3); },
        [](std::uint64_t v) { return v + 0x1234; }};
    std::uint64_t now = 0;
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
        heap.emplace_back(next() % 1000, i);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    for (std::uint32_t i = 0; i < 30000; ++i) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        auto [t, id] = heap.back();
        heap.pop_back();
        now = t;
        acc += fns[id % 3](now);
        live[id + 64 * (i % 97)] = now;
        if (live.size() > 512) live.erase(live.begin());
        heap.emplace_back(now + 1 + next() % 1000, id);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    return acc + live.size();
}

// ---------------------------------------------------------------------------
// Host fingerprint.

std::string read_first(const char* path, const char* key) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (key == nullptr) return line;
        if (line.rfind(key, 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string json_str(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
    }
    return out + "\"";
}

std::string host_json(const std::string& loadavg) {
    std::ostringstream os;
    os << "{\"cores\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": " << json_str(read_first("/proc/cpuinfo", "model name"))
       << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
       << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
       << ", \"obs_compiled_in\": "
#if defined(WLANPS_OBS_ENABLED)
       << "true"
#else
       << "false"
#endif
       << ", \"loadavg_at_start\": " << json_str(loadavg) << "}";
    return os.str();
}

// ---------------------------------------------------------------------------
// Command line and main loop.

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out = ".bench_build/perfbench/traces";
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <fig2_paper|policy_sweep|fed_flash> "
                 "--seed N --seconds S --trace <0|1> [--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) usage("missing value for " + k);
        const std::string v = argv[++i];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have[0] = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have[1] = *end == '\0' && !v.empty();
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            have[2] = *end == '\0' && a.seconds > 0.0 && a.seconds <= 600.0;
        } else if (k == "--trace") {
            a.trace = v == "1";
            have[3] = v == "0" || v == "1";
        } else if (k == "--out") {
            a.out = v;
        } else {
            usage("unknown argument " + k);
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3])) usage("bad or missing arguments");
    if (a.workload != "fig2_paper" && a.workload != "policy_sweep" &&
        a.workload != "fed_flash") {
        usage("unknown workload " + a.workload);
    }
    return a;
}

/// The seed bench_fig2_ipaq_power and bench_ab14_policy_ablation use; the
/// fidelity metrics are evaluated there.
constexpr std::uint64_t kPaperSeed = 42;
/// Calibration kernel time on the reference host speed, and the number of
/// ops on each side whose calibration runs set an op's local host speed.
constexpr double kCalibrationRefMs = 4.0;
constexpr std::size_t kCalibrationWindow = 8;
/// Runner threads of the policy_sweep op.
constexpr unsigned kSweepThreads = 2;
/// Repetitions of the set-up, whose median is setup_s.
constexpr int kSetupReps = 5;

/// Everything one workload needs: its set-up, its op, and the reference the
/// op is checked against.
class Workload {
public:
    Workload(std::string name, std::uint64_t seed)
        : name_(std::move(name)), seed_(seed), fed_timed_(fed_spec(kFedThreads)),
          fed_inline_(fed_spec(0)), runner_(kSweepThreads), ref_runner_(1) {}

    /// Compute the reference outputs every op is checked against, on the
    /// sequential path: fig2 as is, the grid on one runner thread, the
    /// federation inline (threads = 0).
    void setup() {
        if (name_ == "fig2_paper") fig2_ref_ = fig2_op(seed_);
        if (name_ == "policy_sweep") sweep_ref_ = sweep_op(seed_, ref_runner_);
        if (name_ == "fed_flash") fed_ref_ = fed_op(fed_inline_, seed_);
    }

    /// One timed op; returns whether its outputs passed every check.
    bool op(Check* check) {
        if (name_ == "fig2_paper") {
            last_fig2_ = fig2_op(seed_);
            *check = check_fig2(last_fig2_, fig2_ref_);
        } else if (name_ == "policy_sweep") {
            last_sweep_ = sweep_op(seed_, runner_);
            *check = check_sweep(last_sweep_, sweep_ref_);
        } else {
            last_fed_ = fed_op(fed_timed_, seed_);
            *check = check_fed(last_fed_, fed_ref_);
        }
        return check->ok;
    }

    /// Per-layer values of the op just run, plus the auxiliary runs the
    /// difference metrics need (timed outside the op span).
    Sample sample(const std::vector<SpanRec>& spans, std::size_t op_span) {
        const SpanIndex ix(spans);
        Sample s;
        if (name_ == "fig2_paper") {
            s = fig2_sample(ix, op_span, last_fig2_);
            // obs.ledger_ms: the same hotspot run without a ledger scoped.
            Fig2Out bare;
            const auto specs = fig2_specs(seed_, &bare);
            const std::int64_t t0 = now_ns();
            const core::ScenarioResult r = core::SimBackend{}.run(specs[3]);
            const double bare_ms = static_cast<double>(now_ns() - t0) / 1e6;
            s["obs.ledger_ms"] = s["core.run_ms.hotspot"] - bare_ms;
            aux_check_.require(r.mean_wnic().watts() == last_fig2_.sim[3].mean_wnic().watts(),
                                  "hotspot run changed with the ledger unscoped");
        } else if (name_ == "policy_sweep") {
            s = sweep_sample(ix, op_span, last_sweep_, kSweepThreads);
        } else {
            s = fed_sample(ix, op_span, last_fed_);
            // fed.inline_ms: Federation::run of the same op at threads = 0.
            fed::Federation inline_fed(fed_inline_, seed_);
            const std::int64_t t0 = now_ns();
            const fed::FederationResult r = inline_fed.run();
            s["fed.inline_ms"] = static_cast<double>(now_ns() - t0) / 1e6;
            s["sim.sync_ms"] = s["fed.run_ms"] - s["fed.inline_ms"];
            aux_check_.require(r.population.fingerprint == fed_ref_.pop.fingerprint,
                                  "inline federation differs from the reference");
        }
        return s;
    }

    [[nodiscard]] const Fig2Out& fig2() const { return last_fig2_; }
    [[nodiscard]] const SweepOut& sweep() const { return last_sweep_; }
    [[nodiscard]] const FedOut& fed() const { return last_fed_; }
    [[nodiscard]] const Check& aux_check() const { return aux_check_; }
    [[nodiscard]] const std::string& name() const { return name_; }

private:
    std::string name_;
    std::uint64_t seed_;
    core::ScenarioSpec fed_timed_;
    core::ScenarioSpec fed_inline_;
    exp::ExperimentRunner runner_;
    exp::ExperimentRunner ref_runner_;
    Fig2Out fig2_ref_, last_fig2_;
    SweepOut sweep_ref_, last_sweep_;
    FedOut fed_ref_, last_fed_;
    Check aux_check_;
};

const char* const kWorkloads[3] = {"fig2_paper", "policy_sweep", "fed_flash"};

/// Metric name -> (value, unit), in output order.
using Metrics = std::vector<std::tuple<std::string, double, const char*>>;

/// The "metrics" object of the result line; false in \p finite when any
/// value is NaN or infinite (printed as -1).
std::string render(const Metrics& metrics, bool* finite) {
    std::string out;
    for (const auto& [name, value, unit] : metrics) {
        char buf[512];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                      out.empty() ? "" : ", ", name.c_str(), std::isfinite(value) ? value : -1.0,
                      unit);
        out += buf;
        *finite = *finite && std::isfinite(value);
    }
    return out;
}

const char* layer_unit(const std::string& name) {
    auto ends = [&](const char* suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
    };
    if (name.find("_ms") != std::string::npos) return "ms";
    if (ends("_us") || name.find("us_per") != std::string::npos) return "us";
    if (name.find("_ns") != std::string::npos || name.find(".ns_per") != std::string::npos) {
        return "ns";
    }
    if (ends("_j")) return "J";
    if (ends("busy_share") || ends("imbalance")) return "ratio";
    return "count";
}

/// Layer samples of one op of \p workload, traced into a fresh op span.
Sample traced_op(Workload& w, std::int64_t op_id, double* op_ms, Check* check) {
    std::int64_t span_id = -1;
    {
        Span op("op." + w.name(), -1, op_id);
        span_id = op.id();
        w.op(check);
    }
    const SpanRec& rec = g_tracer->spans()[static_cast<std::size_t>(span_id)];
    *op_ms = static_cast<double>(rec.end - rec.start) / 1e6;
    Sample s = w.sample(g_tracer->spans(), static_cast<std::size_t>(span_id));
    const SpanIndex ix(g_tracer->spans());
    s["bench.unattributed_ms"] = ix.self_ms(static_cast<std::size_t>(span_id));
    return s;
}

void write_trace(const Args& a, const std::string& host) {
    std::error_code ec;
    std::filesystem::create_directories(a.out, ec);
    const std::string path =
        a.out + "/trace_" + a.workload + "_" + std::to_string(a.seed) + ".json";
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    const auto& spans = g_tracer->spans();
    const SpanIndex ix(spans);
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
    std::map<std::string, std::pair<double, double>> totals;  // name -> (total, self)
    f << "{\"host\": " << host << ",\n \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRec& s = spans[i];
        f << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i << ", \"name\": " << json_str(s.name)
          << ", \"start_ns\": " << (s.start - t0) << ", \"end_ns\": " << (s.end - t0)
          << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}";
        totals[s.name].first += ix.ms(i);
        totals[s.name].second += ix.self_ms(i);
    }
    f << "\n ],\n \"by_name\": {";
    bool first = true;
    for (const auto& [name, t] : totals) {
        f << (first ? "\n  " : ",\n  ") << json_str(name) << ": {\"total_ms\": " << t.first
          << ", \"self_ms\": " << t.second << "}";
        first = false;
    }
    f << "\n }\n}\n";
}

int run(const Args& a) {
    const std::string host = host_json(read_first("/proc/loadavg", nullptr));
    Workload w(a.workload, a.seed);

    // Untraced runs time the calibration kernel before every op and before
    // every set-up, to rescale their times to the reference host speed.
    const bool normalize = !a.trace;
    auto calibrate = [normalize](std::uint64_t salt) {
        if (!normalize) return kCalibrationRefMs;
        const std::int64_t t0 = now_ns();
        const volatile std::uint64_t sink = calibrate_work(salt);
        (void)sink;
        return static_cast<double>(now_ns() - t0) / 1e6;
    };

    // Set-up: the program calls that produce the reference outputs.
    std::vector<double> setup_s;
    std::vector<double> setup_cal_ms;
    for (int r = 0; r < kSetupReps; ++r) {
        for (int c = 0; c < 3; ++c) setup_cal_ms.push_back(calibrate(static_cast<std::uint64_t>(c)));
        const std::int64_t t0 = now_ns();
        w.setup();
        setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }

    Tracer tracer;
    if (a.trace) g_tracer = &tracer;

    // Closed loop: ops back to back until the run time is spent.  A traced
    // run alternates traced and untraced ops to price the tracing itself.
    std::vector<double> op_ms;
    std::vector<double> op_cpu_s;
    std::vector<double> cal_ms;
    std::vector<double> traced_ms;
    std::vector<double> untraced_ms;
    std::map<std::string, std::vector<double>> layers;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_failure;
    const std::int64_t loop0 = now_ns();
    const auto deadline = loop0 + static_cast<std::int64_t>(a.seconds * 1e9);
    while (now_ns() < deadline) {
        Check check;
        double ms = 0.0;
        if (a.trace && attempted % 2 == 0) {
            const Sample s = traced_op(w, static_cast<std::int64_t>(attempted), &ms, &check);
            for (const auto& [k, v] : s) layers[k].push_back(v);
            traced_ms.push_back(ms);
        } else {
            g_tracer = nullptr;
            cal_ms.push_back(calibrate(attempted));
            const double cpu0 = cpu_seconds();
            const std::int64_t t0 = now_ns();
            w.op(&check);
            ms = static_cast<double>(now_ns() - t0) / 1e6;
            op_cpu_s.push_back(cpu_seconds() - cpu0);
            if (a.trace) {
                untraced_ms.push_back(ms);
                g_tracer = &tracer;
            }
        }
        op_ms.push_back(ms);
        ++attempted;
        if (!check.ok) {
            ++failed;
            if (first_failure.empty()) first_failure = check.why;
        }
    }
    const double loop_s = static_cast<double>(now_ns() - loop0) / 1e9;
    const double rss_mb = peak_rss_mb();

    // Each untraced op's scale: reference over local calibration time, the
    // local time being the median over the neighbouring ops (host-speed
    // phases last seconds; one kernel run alone is noisier than that).
    std::vector<double> scaled_ms;
    std::vector<double> scaled_cpu_s;
    double scaled_total_s = 0.0;
    if (!a.trace) {
        for (std::size_t i = 0; i < op_ms.size(); ++i) {
            const std::size_t lo = i >= kCalibrationWindow ? i - kCalibrationWindow : 0;
            const std::size_t hi = std::min(op_ms.size(), i + kCalibrationWindow + 1);
            const double scale =
                kCalibrationRefMs /
                median(std::vector<double>(cal_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                                           cal_ms.begin() + static_cast<std::ptrdiff_t>(hi)));
            scaled_ms.push_back(op_ms[i] * scale);
            scaled_cpu_s.push_back(op_cpu_s[i] * scale);
            scaled_total_s += op_ms[i] * scale / 1e3;
        }
    }

    // Every run reports every metric.  Untraced, the fidelity metrics are
    // properties of the simulated results at the paper's seed, so they come
    // from ops at kPaperSeed whatever --seed is (NOTES.md says why).  Traced,
    // the layers another workload exercises come from one op of it.
    std::map<std::string, std::unique_ptr<Workload>> extra;
    for (const char* name : kWorkloads) {
        const bool own = name == a.workload;
        if (a.trace ? own : (!own && std::strcmp(name, "policy_sweep") == 0)) continue;
        auto other = std::make_unique<Workload>(name, a.trace ? a.seed : kPaperSeed);
        g_tracer = nullptr;
        other->setup();
        if (a.trace) g_tracer = &tracer;
        Check check;
        if (a.trace) {
            double ms = 0.0;
            const Sample s = traced_op(*other, -1 - static_cast<std::int64_t>(extra.size()),
                                       &ms, &check);
            for (const auto& [k, v] : s) layers[k].push_back(v);
        } else {
            other->op(&check);
        }
        if (!check.ok && first_failure.empty()) first_failure = std::string(name) + ": " + check.why;
        if (!other->aux_check().ok) first_failure = name + (": " + other->aux_check().why);
        extra[name] = std::move(other);
    }
    if (!w.aux_check().ok) first_failure = w.aux_check().why;
    bool correct = failed == 0 && first_failure.empty();

    Metrics metrics;
    if (!a.trace) {
        const double setup_scale = kCalibrationRefMs / median(setup_cal_ms);
        metrics = {
            {"ops_per_s", static_cast<double>(scaled_ms.size()) / scaled_total_s, "1/s"},
            {"op_ms_p50", median(scaled_ms), "ms"},
            {"op_ms_p90", quantile(scaled_ms, 0.9), "ms"},
            {"cpu_s_per_op", median(scaled_cpu_s), "s"},
            {"peak_rss_mb", rss_mb, "MB"},
            {"setup_s", median(setup_s) * setup_scale, "s"},
        };
        const Workload& paper = *extra.at("fig2_paper");
        // fed_flash's shed flash-crowd clients sit at QoS 0 by design, so it
        // reports the fig2 floor next to the other fig2 fidelity metrics.
        const double qos = a.workload == "policy_sweep"
                               ? extra.at("policy_sweep")->sweep().qos_min_pct()
                               : paper.fig2().qos_min_pct();
        metrics.emplace_back("saving_gap_pp", paper.fig2().saving_gap_pp(), "pp");
        metrics.emplace_back("xval_gap_pp", paper.fig2().xval_gap_pp(), "pp");
        metrics.emplace_back("qos_min_pct", qos, "%");
        metrics.emplace_back("shed_pct", extra.at("fed_flash")->fed().shed_pct(), "%");
    } else {
        const std::uint64_t seed = a.seed;
        const ProbeOut probes[5] = {probe_sim(seed), probe_power(), probe_ge(seed),
                                    probe_per(seed), probe_sched()};
        const char* const probe_names[5] = {"sim.post_dispatch", "power.transition",
                                            "channel.ge_transmit", "channel.per_lookup",
                                            "core.sched_pick"};
        for (int i = 0; i < 5; ++i) {
            layers[std::string(probe_names[i]) + "_ns"].push_back(probes[i].ns_per_call);
            layers[std::string(probe_names[i]) + "_calls"].push_back(probes[i].calls);
            if (!probes[i].ok) {
                std::fprintf(stderr, "perfbench: probe %s failed its check\n", probe_names[i]);
                correct = false;
            }
        }
        layers["bench.trace_overhead_ms"].push_back(median(traced_ms) - median(untraced_ms));
        for (const auto& [name, v] : layers) metrics.emplace_back(name, median(v), layer_unit(name));
        write_trace(a, host);
    }
    if (!first_failure.empty()) {
        std::fprintf(stderr, "perfbench: failed op: %s\n", first_failure.c_str());
    }
    const std::string rendered = render(metrics, &correct);

    std::printf("{\"host\": %s, \"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"op_samples\": %zu, \"traced_samples\": %zu, \"loop_s\": %.3f, "
                "\"host_scaled\": %s, \"calibration_ms_p50\": %.4f, \"wall_op_ms_p50\": %.4f, "
                "\"wall_op_ms_p90\": %.4f, \"wall_setup_s\": %.4f}\n",
                host.c_str(), a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.trace ? 1 : 0, op_ms.size(), traced_ms.size(), loop_s,
                normalize ? "true" : "false", median(cal_ms), median(op_ms), quantile(op_ms, 0.9),
                median(setup_s));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), rendered.c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
