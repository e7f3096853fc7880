/// Determinism tests: every scenario runner must be bit-reproducible for
/// a fixed seed (the benches' tables regenerate exactly), and sensitive
/// to the seed (we are not accidentally ignoring the RNG).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "core/scenarios.hpp"
#include "exp/runner.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace wlanps::core::scenarios {
namespace {

const SimBackend backend;

StreamConfig quick(std::uint64_t seed) {
    StreamConfig config;
    config.clients = 2;
    config.duration = Time::from_seconds(45);
    config.seed = seed;
    return config;
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
    ASSERT_EQ(a.clients.size(), b.clients.size()) << a.label;
    for (std::size_t i = 0; i < a.clients.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.clients[i].wnic_average.watts(), b.clients[i].wnic_average.watts())
            << a.label << " client " << i;
        EXPECT_EQ(a.clients[i].received, b.clients[i].received) << a.label << " client " << i;
        EXPECT_EQ(a.clients[i].underruns, b.clients[i].underruns) << a.label;
    }
}

TEST(DeterminismTest, WlanCam) {
    const auto spec = ScenarioSpec::cam().with_stream(quick(9));
    expect_identical(backend.run(spec), backend.run(spec));
}

TEST(DeterminismTest, WlanPsm) {
    const auto spec = ScenarioSpec::psm().with_stream(quick(9));
    expect_identical(backend.run(spec), backend.run(spec));
}

TEST(DeterminismTest, EcMac) {
    const auto spec = ScenarioSpec::ecmac().with_stream(quick(9));
    expect_identical(backend.run(spec), backend.run(spec));
}

TEST(DeterminismTest, BtActive) {
    const auto spec = ScenarioSpec::bt().with_stream(quick(9));
    expect_identical(backend.run(spec), backend.run(spec));
}

TEST(DeterminismTest, Hotspot) {
    const auto spec = ScenarioSpec::hotspot().with_stream(quick(9));
    expect_identical(backend.run(spec), backend.run(spec));
}

TEST(DeterminismTest, HotspotMixed) {
    HotspotConfig mix;
    mix.video_clients = 1;
    mix.web_clients = 1;
    auto config = quick(9);
    config.clients = 4;
    const auto spec = ScenarioSpec::hotspot().with_stream(config).with_hotspot(mix);
    expect_identical(backend.run(spec), backend.run(spec));
}

// Minimal reference kernel: the std::priority_queue dispatch loop the
// calendar queue replaced, with the same (time, seq) FIFO contract.
class ReferenceHeapKernel {
public:
    [[nodiscard]] Time now() const { return now_; }

    void post_at(Time when, std::function<void()> cb) {
        heap_.push(Entry{when, next_seq_++, std::move(cb)});
    }

    void run() {
        while (!heap_.empty()) {
            // Entry's callback is move-only in spirit; copy out then pop.
            Entry top = heap_.top();
            heap_.pop();
            now_ = top.when;
            top.cb();
        }
    }

private:
    struct Entry {
        Time when;
        std::uint64_t seq;
        std::function<void()> cb;
        bool operator>(const Entry& rhs) const {
            if (when != rhs.when) return when > rhs.when;
            return seq > rhs.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    Time now_;
    std::uint64_t next_seq_ = 0;
};

TEST(DeterminismTest, CalendarQueueMetricsMatchReferenceHeap) {
    // Run the same stochastic workload through the calendar-queue kernel
    // and through the reference binary heap.  The accumulated metric folds
    // in dispatch time and a per-dispatch RNG draw, so it is bit-identical
    // iff both kernels dispatch the same events in the same order and the
    // RNG streams are consumed identically.
    auto workload = [](auto& kernel) {
        sim::Random rng(77);
        double metric = 0.0;
        std::function<void(Time, int)> spawn = [&](Time when, int depth) {
            kernel.post_at(when, [&, depth] {
                metric = metric * 1.0000001 + kernel.now().to_seconds() * rng.uniform();
                if (depth < 4 && rng.chance(0.4)) {
                    spawn(kernel.now() + Time::from_ns(rng.uniform_int(0, 5'000'000)),
                          depth + 1);
                }
            });
        };
        for (int i = 0; i < 1500; ++i) {
            spawn(Time::from_ns(rng.uniform_int(0, 6'000'000)), 0);
        }
        kernel.run();
        return metric;
    };

    sim::Simulator calendar;
    ReferenceHeapKernel reference;
    const double calendar_metric = workload(calendar);
    const double reference_metric = workload(reference);
    // Exact equality on purpose: "same metrics to the last bit".
    EXPECT_EQ(calendar_metric, reference_metric);
}

// ---- Fault plans and the experiment runner ---------------------------------------

TEST(DeterminismTest, FaultPlanRunsAreReproducible) {
    // A crash + schedule-drop plan with the full recovery stack exercises
    // every extra RNG stream (injector 900, schedule-drop 902, rejoin 910+)
    // — two runs must still agree to the last bit, counters included.
    StreamConfig config = quick(11);
    config.clients = 3;
    config.duration = Time::from_seconds(90);
    config.fault_plan.client_crash(Time::from_seconds(20), Time::from_seconds(10), 1)
        .schedule_drop(Time::from_seconds(5), Time::from_seconds(60), 0.4);
    HotspotConfig options;
    options.resilience = ResilienceConfig{}
                             .with_liveness_timeout(Time::from_seconds(4))
                             .with_burst_repair(true);
    options.rejoin_enabled = true;

    const auto spec = ScenarioSpec::hotspot().with_stream(config).with_hotspot(options);
    const auto a = backend.run(spec);
    const auto b = backend.run(spec);
    expect_identical(a, b);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.recovery.liveness_reclaims, b.recovery.liveness_reclaims);
    EXPECT_EQ(a.recovery.burst_repairs, b.recovery.burst_repairs);
    EXPECT_EQ(a.recovery.schedule_drops, b.recovery.schedule_drops);
    EXPECT_EQ(a.recovery.rejoin_attempts, b.recovery.rejoin_attempts);
    EXPECT_EQ(a.recovery.recover_times_s, b.recovery.recover_times_s);
    EXPECT_GT(a.faults_injected, 0u);
}

TEST(DeterminismTest, FaultGridIdenticalAtAnyThreadCount) {
    // ISSUE acceptance: a fixed plan + seed grid run at different worker
    // thread counts produces identical metrics (the runner reduces in
    // (point, seed) order after the pool drains).
    std::vector<fault::FaultPlan> plans(3);
    plans[1].blackout(Time::from_seconds(10), Time::from_seconds(5), 1);
    plans[2].client_crash(Time::from_seconds(12), Time::from_seconds(8), 1);

    StreamConfig config = quick(0);
    HotspotConfig options;
    options.resilience = ResilienceConfig{}
                             .with_liveness_timeout(Time::from_seconds(4))
                             .with_burst_repair(true);
    options.rejoin_enabled = true;

    const auto spec = exp::ExperimentSpec{}
                          .with_run(fault_grid_run(config, options, plans))
                          .with_points({"clean", "blackout", "crash"})
                          .with_seeds({42, 43});
    const auto serial = exp::ExperimentRunner(1).run(spec);
    const auto pooled = exp::ExperimentRunner(4).run(spec);

    ASSERT_EQ(serial.runs.size(), pooled.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        EXPECT_EQ(serial.runs[i].point, pooled.runs[i].point);
        EXPECT_EQ(serial.runs[i].seed, pooled.runs[i].seed);
        ASSERT_EQ(serial.runs[i].metrics.size(), pooled.runs[i].metrics.size());
        for (std::size_t m = 0; m < serial.runs[i].metrics.size(); ++m) {
            EXPECT_EQ(serial.runs[i].metrics[m].first, pooled.runs[i].metrics[m].first);
            // Exact comparison on purpose: bit-identical at any thread count.
            EXPECT_EQ(serial.runs[i].metrics[m].second, pooled.runs[i].metrics[m].second)
                << serial.runs[i].metrics[m].first << " run " << i;
        }
    }
    // The faulty cells really did inject something.
    EXPECT_GT(serial.aggregate.metric(1, "faults_injected").mean(), 0.0);
    EXPECT_GT(serial.aggregate.metric(2, "faults_injected").mean(), 0.0);
}

TEST(DeterminismTest, SeedActuallyMatters) {
    // The stochastic parts (backoffs, channel realizations) must differ
    // across seeds in at least one scenario metric.
    const auto a = backend.run(ScenarioSpec::psm().with_stream(quick(1)));
    const auto b = backend.run(ScenarioSpec::psm().with_stream(quick(2)));
    EXPECT_NE(a.clients[0].wnic_average.watts(), b.clients[0].wnic_average.watts());
}

}  // namespace
}  // namespace wlanps::core::scenarios
