#include "obs/trace_export.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "sim/assert.hpp"

namespace wlanps::obs {

namespace {

/// Microsecond timestamps with sub-µs (ns) precision, Chrome's native unit.
std::string format_us(Time t) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(t.ns()) / 1000.0);
    return buf;
}

std::string format_level(double level) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", level);
    return buf;
}

}  // namespace

int ChromeTraceWriter::lane_tid(const std::string& name) {
    for (const Lane& lane : lanes_) {
        if (lane.name == name) return lane.tid;
    }
    const int tid = static_cast<int>(lanes_.size()) + 1;
    lanes_.push_back(Lane{name, tid});
    // Metadata event naming the Chrome "thread" so Perfetto shows the lane
    // under a human-readable label instead of a bare tid.
    std::ostringstream meta;
    meta << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
    events_.push_back(Event{meta.str()});
    return tid;
}

int ChromeTraceWriter::add_lane(const std::string& name, const sim::TimelineTrace& trace) {
    const int tid = lane_tid(name);
    for (const auto& span : trace.spans()) {
        add_span(tid, span.label, span.begin, span.end, span.level);
    }
    return tid;
}

void ChromeTraceWriter::add_span(int tid, const std::string& name, Time begin, Time end,
                                 double level_mw) {
    WLANPS_REQUIRE_MSG(end.ns() >= begin.ns(), "trace span ends before it begins");
    std::ostringstream ev;
    ev << "{\"name\":\"" << json_escape(name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
       << ",\"ts\":" << format_us(begin) << ",\"dur\":" << format_us(end - begin)
       << ",\"args\":{\"level_mw\":" << format_level(level_mw) << "}}";
    events_.push_back(Event{ev.str()});
}

void ChromeTraceWriter::add_counter(const std::string& name, Time at, double value) {
    std::ostringstream ev;
    ev << "{\"name\":\"" << json_escape(name) << "\",\"ph\":\"C\",\"pid\":1,\"ts\":"
       << format_us(at) << ",\"args\":{\"value\":" << format_level(value) << "}}";
    events_.push_back(Event{ev.str()});
}

void ChromeTraceWriter::add_flow(std::uint64_t flow_id, int tid, const std::string& name,
                                 Time at, FlowPhase phase) {
    const char ph = phase == FlowPhase::start ? 's' : phase == FlowPhase::step ? 't' : 'f';
    std::ostringstream ev;
    ev << "{\"name\":\"" << json_escape(name) << "\",\"cat\":\"flow\",\"ph\":\"" << ph
       << "\",\"id\":" << flow_id << ",\"pid\":1,\"tid\":" << tid
       << ",\"ts\":" << format_us(at);
    // Finish events bind to the enclosing slice, matching the start/step
    // binding point, so the arrow lands on the hop slice itself.
    if (phase == FlowPhase::finish) ev << ",\"bp\":\"e\"";
    ev << "}";
    events_.push_back(Event{ev.str()});
}

std::string ChromeTraceWriter::str() const {
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (i != 0) out << ",\n";
        out << events_[i].json;
    }
    out << "],\"displayTimeUnit\":\"ms\"}";
    return out.str();
}

void export_flight(ChromeTraceWriter& writer, const FlightRecorder& recorder) {
    const std::size_t count = recorder.size();
    // Pass 1: occurrence counts per flow id decide start/step/finish.
    std::vector<std::pair<std::uint64_t, std::size_t>> remaining;  // (flow, hops left)
    auto left = [&](std::uint64_t flow) -> std::size_t& {
        for (auto& entry : remaining) {
            if (entry.first == flow) return entry.second;
        }
        remaining.emplace_back(flow, 0);
        return remaining.back().second;
    };
    for (std::size_t i = 0; i < count; ++i) {
        const FlightEvent& e = recorder.at(i);
        if (e.flow != 0) ++left(e.flow);
    }
    std::vector<std::uint64_t> seen;
    auto first_occurrence = [&](std::uint64_t flow) {
        for (std::uint64_t f : seen) {
            if (f == flow) return false;
        }
        seen.push_back(flow);
        return true;
    };
    // Pass 2: a slice per hop, flow arrows chaining non-zero flows.
    for (std::size_t i = 0; i < count; ++i) {
        const FlightEvent& e = recorder.at(i);
        std::string lane = "server flow";
        if (e.client != 0) {
            lane = "C";
            lane += std::to_string(e.client);
            lane += " flow";
        }
        const int tid = writer.lane(lane);
        const Time begin = Time::from_ns(e.t_ns);
        // Airtime/latency hops carry their duration in value (ns); the
        // bookkeeping hops (enqueued, scheduled, polled, retx, fault) are
        // instants.
        const bool timed =
            e.hop == Hop::tx || e.hop == Hop::rx || e.hop == Hop::doze_wakeup;
        const Time end = timed ? begin + Time::from_ns(static_cast<std::int64_t>(e.value))
                               : begin;
        writer.add_span(tid, to_string(e.hop), begin, end, e.value);
        if (e.flow == 0) continue;
        std::size_t& hops_left = left(e.flow);
        ChromeTraceWriter::FlowPhase phase = ChromeTraceWriter::FlowPhase::step;
        if (first_occurrence(e.flow)) {
            phase = ChromeTraceWriter::FlowPhase::start;
        } else if (hops_left == 1) {
            phase = ChromeTraceWriter::FlowPhase::finish;
        }
        --hops_left;
        writer.add_flow(e.flow, tid, "burst", begin, phase);
    }
}

void ChromeTraceWriter::write_file(const std::string& path) const {
    std::ofstream file(path);
    WLANPS_REQUIRE_MSG(file.good(), "cannot open chrome trace output file");
    file << str() << '\n';
    WLANPS_REQUIRE_MSG(file.good(), "failed writing chrome trace output file");
}

}  // namespace wlanps::obs
