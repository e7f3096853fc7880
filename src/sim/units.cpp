#include "sim/units.hpp"

#include <cmath>
#include <cstdio>

#include "sim/time.hpp"

namespace wlanps {

namespace {
std::string format(double value, const char* unit) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.4g%s", value, unit);
    return buf;
}
}  // namespace

std::string Time::str() const {
    const double abs_ns = std::abs(static_cast<double>(ns_));
    if (abs_ns < 1e3) return format(static_cast<double>(ns_), "ns");
    if (abs_ns < 1e6) return format(to_us(), "us");
    if (abs_ns < 1e9) return format(to_ms(), "ms");
    return format(to_seconds(), "s");
}

std::ostream& operator<<(std::ostream& os, Time t) { return os << t.str(); }

std::string DataSize::str() const {
    // A size that is not a whole number of bytes prints a fractional byte.
    const double b = static_cast<double>(bits_) / 8.0;
    if (b < 1024.0) return format(b, "B");
    if (b < 1024.0 * 1024.0) return format(b / 1024.0, "KB");
    return format(b / (1024.0 * 1024.0), "MB");
}

std::ostream& operator<<(std::ostream& os, DataSize s) { return os << s.str(); }

std::string Rate::str() const {
    if (bps_ < 1e3) return format(bps_, "b/s");
    if (bps_ < 1e6) return format(kbps(), "kb/s");
    return format(mbps(), "Mb/s");
}

std::ostream& operator<<(std::ostream& os, Rate r) { return os << r.str(); }

namespace power {

std::string Power::str() const {
    if (watts_ != 0.0 && watts_ < 0.1) return format(milliwatts(), "mW");
    return format(watts_, "W");
}

std::string Energy::str() const {
    if (joules_ != 0.0 && joules_ < 0.1) return format(millijoules(), "mJ");
    return format(joules_, "J");
}

std::ostream& operator<<(std::ostream& os, Power p) { return os << p.str(); }
std::ostream& operator<<(std::ostream& os, Energy e) { return os << e.str(); }

}  // namespace power

}  // namespace wlanps
