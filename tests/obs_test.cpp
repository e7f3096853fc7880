/// \file obs_test.cpp
/// Observability subsystem: histogram bucket geometry and merging, registry
/// key rules, snapshot reduction, JSON/Chrome-trace export goldens, the
/// synchronized logger, and runner-merge determinism across thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "obs/hooks.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "phy/wlan_nic.hpp"
#include "sim/logger.hpp"
#include "sim/simulator.hpp"

#if defined(WLANPS_OBS_ENABLED)
#include "obs/kernel_profile.hpp"
#endif

using namespace wlanps;
using namespace wlanps::time_literals;

// ---- histogram bucket geometry ---------------------------------------------------

TEST(ObsHistogramTest, BucketBoundariesArePowersOfTwoSubdivided) {
    // 1.0 = frexp frac 0.5, exp 1 -> first sub-bucket of the exp=1 octave.
    const std::size_t idx = obs::Histogram::bucket_index(1.0);
    EXPECT_DOUBLE_EQ(obs::Histogram::bucket_lower(idx), 1.0);
    EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper(idx), 1.125);  // 1 + 2/16

    // The octave [1, 2) splits into 8 equal sub-buckets.
    for (int sub = 0; sub < obs::Histogram::kSubBuckets; ++sub) {
        const double lo = 1.0 + 0.125 * sub;
        EXPECT_EQ(obs::Histogram::bucket_index(lo), idx + static_cast<std::size_t>(sub));
    }

    // Bucket edges tile the positive axis with no gaps or overlaps.
    for (std::size_t i = idx - 64; i < idx + 64; ++i) {
        EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper(i), obs::Histogram::bucket_lower(i + 1));
    }
}

TEST(ObsHistogramTest, RecordLandsOnTheCorrectSideOfABoundary) {
    obs::Histogram h;
    const std::size_t idx = obs::Histogram::bucket_index(2.0);
    h.record(2.0);                            // inclusive lower edge
    h.record(std::nextafter(2.0, 0.0));       // just below -> previous bucket
    EXPECT_EQ(h.bucket_count(idx), 1u);
    EXPECT_EQ(h.bucket_count(idx - 1), 1u);
    EXPECT_EQ(h.count(), 2u);
}

TEST(ObsHistogramTest, NonPositiveSamplesGoToUnderflow) {
    obs::Histogram h;
    h.record(0.0);
    h.record(-3.5);
    h.record(1.0);
    EXPECT_EQ(h.underflow_count(), 2u);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), -3.5);
    EXPECT_DOUBLE_EQ(h.max(), 1.0);
}

TEST(ObsHistogramTest, PercentilesTrackUniformData) {
    obs::Histogram h;
    for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.0);
    // Log buckets are ~9% wide, so percentile error is bounded by that.
    EXPECT_NEAR(h.percentile(50.0), 500.0, 0.10 * 500.0);
    EXPECT_NEAR(h.percentile(90.0), 900.0, 0.10 * 900.0);
    EXPECT_NEAR(h.percentile(99.0), 990.0, 0.10 * 990.0);
}

TEST(ObsHistogramTest, MergeIsAssociative) {
    // Integer-valued samples: bucket counts and double sums are both exact,
    // so associativity must hold to the bit.
    obs::Histogram a, b, c;
    for (int i = 1; i <= 50; ++i) a.record(static_cast<double>(i));
    for (int i = 30; i <= 90; ++i) b.record(static_cast<double>(i * 3));
    for (int i = 5; i <= 20; ++i) c.record(static_cast<double>(i * 7));

    obs::Histogram left_first = a;   // (a + b) + c
    left_first.merge_from(b);
    left_first.merge_from(c);

    obs::Histogram right_first = b;  // a + (b + c)
    right_first.merge_from(c);
    obs::Histogram result = a;
    result.merge_from(right_first);

    EXPECT_EQ(left_first.count(), result.count());
    EXPECT_DOUBLE_EQ(left_first.sum(), result.sum());
    EXPECT_DOUBLE_EQ(left_first.min(), result.min());
    EXPECT_DOUBLE_EQ(left_first.max(), result.max());
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
        ASSERT_EQ(left_first.bucket_count(i), result.bucket_count(i)) << "bucket " << i;
    }
    EXPECT_DOUBLE_EQ(left_first.percentile(50.0), result.percentile(50.0));
    EXPECT_DOUBLE_EQ(left_first.percentile(99.0), result.percentile(99.0));
}

// ---- registry --------------------------------------------------------------------

TEST(ObsRegistryTest, SameKeyReturnsSameInstrument) {
    obs::MetricsRegistry reg;
    obs::Counter& c1 = reg.counter("x");
    obs::Counter& c2 = reg.counter("x");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(reg.instrument_count(), 1u);
}

TEST(ObsRegistryTest, KeyCollisionAcrossKindsThrows) {
    obs::MetricsRegistry reg;
    reg.counter("key");
    EXPECT_THROW(reg.gauge("key"), ContractViolation);
    EXPECT_THROW(reg.histogram("key"), ContractViolation);
    reg.histogram("h");
    EXPECT_THROW(reg.counter("h"), ContractViolation);
}

TEST(ObsRegistryTest, SnapshotMergeCombinesAndAppends) {
    obs::MetricsRegistry r1;
    r1.counter("shared").add(3);
    r1.histogram("lat").record(10.0);

    obs::MetricsRegistry r2;
    r2.counter("shared").add(4);
    r2.gauge("only2").set(7.5);

    obs::MetricsSnapshot merged = r1.snapshot();
    merged.merge_from(r2.snapshot());
    ASSERT_NE(merged.counter("shared"), nullptr);
    EXPECT_EQ(merged.counter("shared")->value(), 7u);
    ASSERT_NE(merged.histogram("lat"), nullptr);
    EXPECT_EQ(merged.histogram("lat")->count(), 1u);
    ASSERT_NE(merged.gauge("only2"), nullptr);
    EXPECT_DOUBLE_EQ(merged.gauge("only2")->last(), 7.5);
    EXPECT_EQ(merged.size(), 3u);
}

TEST(ObsRegistryTest, GaugeTracksLastAndExtrema) {
    obs::Gauge g;
    g.set(5.0);
    g.set(1.0);
    g.set(3.0);
    EXPECT_DOUBLE_EQ(g.last(), 3.0);
    EXPECT_DOUBLE_EQ(g.min(), 1.0);
    EXPECT_DOUBLE_EQ(g.max(), 5.0);
    EXPECT_DOUBLE_EQ(g.mean(), 3.0);
}

// ---- json export -----------------------------------------------------------------

TEST(ObsJsonTest, SnapshotSerializesAllSections) {
    obs::MetricsRegistry reg;
    reg.counter("a.count").add(2);
    reg.gauge("b.gauge").set(1.5);
    reg.histogram("c.hist").record(4.0);
    const std::string json = obs::to_json(reg.snapshot());
    EXPECT_NE(json.find("\"counters\":{\"a.count\":2}"), std::string::npos) << json;
    EXPECT_NE(json.find("\"b.gauge\":{\"last\":1.5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"c.hist\":{\"count\":1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
}

TEST(ObsJsonTest, IdenticalSnapshotsSerializeIdentically) {
    auto build = [] {
        obs::MetricsRegistry reg;
        for (int i = 0; i < 64; ++i) {
            reg.histogram("h").record(static_cast<double>(i) + 0.25);
        }
        reg.counter("c").add(9);
        return obs::to_json(reg.snapshot());
    };
    EXPECT_EQ(build(), build());
}

// ---- chrome trace export ---------------------------------------------------------

TEST(ObsTraceTest, GoldenChromeTraceDocument) {
    sim::TimelineTrace trace;
    trace.set_state(Time::zero(), "idle", 1.0);
    trace.set_state(Time::from_us(10), "tx", 2.5);
    trace.finish(Time::from_us(25));

    obs::ChromeTraceWriter writer;
    writer.add_lane("C1 wlan-nic", trace);

    const std::string expected =
        "{\"traceEvents\":["
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"C1 wlan-nic\"}},\n"
        "{\"name\":\"idle\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,"
        "\"dur\":10.000,\"args\":{\"level_mw\":1}},\n"
        "{\"name\":\"tx\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10.000,"
        "\"dur\":15.000,\"args\":{\"level_mw\":2.5}}"
        "],\"displayTimeUnit\":\"ms\"}";
    EXPECT_EQ(writer.str(), expected);
}

TEST(ObsTraceTest, CountersAndMultipleLanes) {
    sim::TimelineTrace t1, t2;
    t1.set_state(Time::zero(), "doze", 0.01);
    t1.finish(Time::from_ms(1));
    t2.set_state(Time::zero(), "active", 0.5);
    t2.finish(Time::from_ms(1));

    obs::ChromeTraceWriter writer;
    const int tid1 = writer.add_lane("wlan", t1);
    const int tid2 = writer.add_lane("bt", t2);
    EXPECT_NE(tid1, tid2);
    writer.add_counter("queue_depth", Time::from_us(3), 4.0);
    const std::string doc = writer.str();
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(doc.find("\"queue_depth\""), std::string::npos);
    // Same lane name reuses the tid instead of minting a new one.
    EXPECT_EQ(writer.add_lane("wlan", t1), tid1);
}

// ---- logger ----------------------------------------------------------------------

TEST(ObsLoggerTest, ConcurrentWritersNeverTearLines) {
    std::vector<std::string> captured;
    obs::set_log_sink([&](std::string_view line) { captured.emplace_back(line); });
    sim::Logger::set_level(sim::LogLevel::debug);

    constexpr int kThreads = 8;
    constexpr int kLines = 200;
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t] {
            std::string tag = "t";
            tag += std::to_string(t);
            for (int j = 0; j < kLines; ++j) {
                sim::Logger::log(sim::LogLevel::info, 5_ms, tag, "message " + std::to_string(j));
            }
        });
    }
    for (auto& t : pool) t.join();
    sim::Logger::set_level(sim::LogLevel::off);
    obs::set_log_sink({});

    ASSERT_EQ(captured.size(), static_cast<std::size_t>(kThreads * kLines));
    // Every captured line must be exactly one well-formed whole line: the
    // sink receives complete lines, so nothing can interleave mid-line.
    for (const std::string& line : captured) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '[');
        EXPECT_EQ(line.back(), '\n');
        EXPECT_EQ(line.find("[5ms] t"), 0u) << line;
        EXPECT_NE(line.find(": message "), std::string::npos) << line;
        // Exactly one newline: a torn write would embed another.
        EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    }
}

TEST(ObsLoggerTest, LazyMacroSkipsMessageConstructionWhenLevelOff) {
    sim::Logger::set_level(sim::LogLevel::info);
    int evaluations = 0;
    WLANPS_LOG(sim::LogLevel::debug, 1_ms, "tag",
               "value=" << [&] {
                   ++evaluations;
                   return 42;
               }());
    EXPECT_EQ(evaluations, 0);  // debug disabled: expression never ran

    std::vector<std::string> captured;
    obs::set_log_sink([&](std::string_view line) { captured.emplace_back(line); });
    WLANPS_LOG(sim::LogLevel::info, 1_ms, "tag",
               "value=" << [&] {
                   ++evaluations;
                   return 42;
               }());
    obs::set_log_sink({});
    sim::Logger::set_level(sim::LogLevel::off);
    EXPECT_EQ(evaluations, 1);
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0], "[1ms] tag: value=42\n");
}

// ---- hooks -----------------------------------------------------------------------

TEST(ObsHooksTest, ScopedRegistryInstallsAndRestores) {
    EXPECT_EQ(obs::current(), nullptr);
    obs::MetricsRegistry outer;
    {
        obs::ScopedRegistry s1(outer);
        EXPECT_EQ(obs::current(), &outer);
        obs::MetricsRegistry inner;
        {
            obs::ScopedRegistry s2(inner);
            EXPECT_EQ(obs::current(), &inner);
        }
        EXPECT_EQ(obs::current(), &outer);
    }
    EXPECT_EQ(obs::current(), nullptr);
}

TEST(ObsHooksTest, MacrosAreSafeWithoutARegistry) {
    ASSERT_EQ(obs::current(), nullptr);
    WLANPS_OBS_COUNT("no.registry", 1);
    WLANPS_OBS_GAUGE_SET("no.registry.gauge", 2.0);
    WLANPS_OBS_RECORD("no.registry.hist", 3.0);  // must not crash
}

#if defined(WLANPS_OBS_ENABLED)
TEST(ObsHooksTest, MacrosRecordIntoTheCurrentRegistry) {
    obs::MetricsRegistry reg;
    obs::ScopedRegistry scope(reg);
    WLANPS_OBS_COUNT("m.count", 2);
    WLANPS_OBS_COUNT("m.count", 3);
    WLANPS_OBS_GAUGE_SET("m.gauge", 1.25);
    WLANPS_OBS_RECORD("m.hist", 8.0);
    EXPECT_EQ(reg.counter("m.count").value(), 5u);
    EXPECT_DOUBLE_EQ(reg.gauge("m.gauge").last(), 1.25);
    EXPECT_EQ(reg.histogram("m.hist").count(), 1u);
}

TEST(ObsKernelProfileTest, CountsDispatchesByTagAndReapsAndPublishes) {
    obs::MetricsRegistry reg;
    obs::KernelProfile profile(reg);
    sim::Simulator sim;
    sim.attach_profile(&profile);

    int fired = 0;
    for (int i = 0; i < 10; ++i) sim.post_in(Time::from_us(i), [&fired] { ++fired; });
    auto h1 = sim.schedule_in(Time::from_us(20), [&fired] { ++fired; });
    auto h2 = sim.schedule_in(Time::from_us(21), [&fired] { ++fired; });
    h2.cancel();
    sim::PeriodicEvent tick(sim, Time::from_us(5), [&fired] { ++fired; });
    tick.start();
    sim.run_until(Time::from_us(50));
    tick.cancel();
    sim.run();

    EXPECT_EQ(reg.counter("sim.kernel.dispatched.fast").value(), 10u);
    EXPECT_EQ(reg.counter("sim.kernel.dispatched.handle").value(), 1u);
    EXPECT_GE(reg.counter("sim.kernel.dispatched.periodic").value(), 9u);
    EXPECT_EQ(reg.counter("sim.kernel.cancelled_reaped").value(), 2u);  // handle + periodic
    const std::uint64_t dispatched = reg.counter("sim.kernel.dispatched.fast").value() +
                                     reg.counter("sim.kernel.dispatched.handle").value() +
                                     reg.counter("sim.kernel.dispatched.periodic").value();
    EXPECT_EQ(dispatched, sim.events_dispatched());
    EXPECT_EQ(reg.histogram("sim.kernel.dispatch_ns.fast").count(), 10u);

    profile.publish_queue_state(sim.queue_size(), sim.pending_events(),
                                sim.events_dispatched());
    EXPECT_DOUBLE_EQ(reg.gauge("sim.queue.entries_incl_tombstones").last(),
                     static_cast<double>(sim.queue_size()));
    EXPECT_DOUBLE_EQ(reg.gauge("sim.queue.pending_live").last(),
                     static_cast<double>(sim.pending_events()));
    EXPECT_EQ(reg.counter("sim.kernel.events_dispatched").value(), sim.events_dispatched());
}
#endif  // WLANPS_OBS_ENABLED

// ---- phy integration -------------------------------------------------------------

TEST(ObsPhyTest, WlanNicPublishesResidencyAndEnergy) {
    sim::Simulator sim;
    phy::WlanNic nic(sim, phy::WlanNicConfig{});
    sim.run_until(10_ms);
    obs::MetricsRegistry reg;
    nic.publish_metrics(reg, "phy.wlan");
    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_NE(snap.histogram("phy.wlan.residency_s.idle"), nullptr);
    EXPECT_NEAR(snap.histogram("phy.wlan.residency_s.idle")->max(), 0.010, 1e-9);
    ASSERT_NE(snap.histogram("phy.wlan.energy_j"), nullptr);
    EXPECT_GT(snap.histogram("phy.wlan.energy_j")->max(), 0.0);
    ASSERT_NE(snap.counter("phy.wlan.entries.doze"), nullptr);
}

// ---- runner integration ----------------------------------------------------------

TEST(ObsRunnerTest, MergedMetricsBitIdenticalAcrossThreadCounts) {
    auto spec =
        exp::ExperimentSpec{}
            .with_run([](const exp::ParamPoint&, std::uint64_t seed) {
                obs::MetricsRegistry* reg = obs::current();
                EXPECT_NE(reg, nullptr);
                for (int i = 0; i < 100; ++i) {
                    reg->histogram("run.samples")
                        .record(static_cast<double>((seed * 31 + static_cast<std::uint64_t>(i)) %
                                                    97) +
                                0.5);
                }
                reg->counter("run.count").add(seed);
                reg->gauge("run.gauge").set(static_cast<double>(seed));
                return exp::Metrics{{"m", static_cast<double>(seed)}};
            })
            .with_points({"a", "b"})
            .with_seed_range(1, 6);

    const auto r1 = exp::ExperimentRunner(1).run(spec);
    const auto r4 = exp::ExperimentRunner(4).run(spec);

    for (std::size_t p = 0; p < 2; ++p) {
        const std::string j1 = obs::to_json(r1.aggregate.observed(p));
        const std::string j4 = obs::to_json(r4.aggregate.observed(p));
        EXPECT_EQ(j1, j4) << "point " << p;
    }
    const obs::Histogram* h = r1.aggregate.observed(0).histogram("run.samples");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 600u);  // 100 samples x 6 seeds
    EXPECT_GT(h->percentile(99.0), h->percentile(50.0));
    ASSERT_NE(r1.aggregate.observed(0).counter("run.count"), nullptr);
    EXPECT_EQ(r1.aggregate.observed(0).counter("run.count")->value(), 1u + 2 + 3 + 4 + 5 + 6);
}

TEST(ObsRunnerTest, PerRunSnapshotsLandInRunRecords) {
    auto spec = exp::ExperimentSpec{}
                    .with_run([](const exp::ParamPoint&, std::uint64_t seed) {
                        obs::current()->counter("c").add(seed);
                        return exp::Metrics{{"m", 0.0}};
                    })
                    .with_points({"p"})
                    .with_seed_range(10, 2);
    const auto result = exp::ExperimentRunner(2).run(spec);
    ASSERT_EQ(result.runs.size(), 2u);
    for (const auto& run : result.runs) {
        ASSERT_NE(run.obs.counter("c"), nullptr);
        EXPECT_EQ(run.obs.counter("c")->value(), run.seed);
    }
}
