/// Unit tests for the strong unit types: Time, DataSize, Rate.

#include <gtest/gtest.h>

#include <sstream>

#include "sim/assert.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace wlanps {
namespace {

using namespace time_literals;

TEST(TimeTest, DefaultIsZero) {
    Time t;
    EXPECT_TRUE(t.is_zero());
    EXPECT_EQ(t.ns(), 0);
}

TEST(TimeTest, NamedConstructorsAgree) {
    EXPECT_EQ(Time::from_us(1.0), Time::from_ns(1000));
    EXPECT_EQ(Time::from_ms(1.0), Time::from_us(1000.0));
    EXPECT_EQ(Time::from_seconds(1.0), Time::from_ms(1000.0));
}

TEST(TimeTest, LiteralsMatchFactories) {
    EXPECT_EQ(5_us, Time::from_us(5));
    EXPECT_EQ(5_ms, Time::from_ms(5));
    EXPECT_EQ(5_s, Time::from_seconds(5));
    EXPECT_EQ(2.5_ms, Time::from_us(2500));
}

TEST(TimeTest, Arithmetic) {
    EXPECT_EQ(1_ms + 500_us, Time::from_us(1500));
    EXPECT_EQ(1_ms - 500_us, 500_us);
    EXPECT_EQ(1_ms * 2.0, 2_ms);
    EXPECT_EQ(2.0 * 1_ms, 2_ms);
    EXPECT_EQ(1_ms / 2.0, 500_us);
    EXPECT_DOUBLE_EQ(3_ms / 1_ms, 3.0);
}

TEST(TimeTest, FractionalFactoriesRoundToNearestNs) {
    EXPECT_EQ(Time::from_us(0.0015).ns(), 2);   // 1.5 ns rounds up
    EXPECT_EQ(Time::from_us(0.0014).ns(), 1);   // 1.4 ns rounds down
}

TEST(TimeTest, ComparisonAndNegative) {
    EXPECT_LT(1_us, 2_us);
    EXPECT_TRUE((1_us - 2_us).is_negative());
    EXPECT_GT(Time::max(), 100_s);
}

TEST(TimeTest, ConversionRoundTrip) {
    const Time t = Time::from_seconds(1.5);
    EXPECT_DOUBLE_EQ(t.to_seconds(), 1.5);
    EXPECT_DOUBLE_EQ(t.to_ms(), 1500.0);
    EXPECT_DOUBLE_EQ(t.to_us(), 1.5e6);
}

TEST(TimeTest, StringPicksUnitByMagnitude) {
    EXPECT_EQ((500_ns).str(), "500ns");
    EXPECT_EQ((10_us).str(), "10us");
    EXPECT_EQ((3_ms).str(), "3ms");
    EXPECT_EQ((2_s).str(), "2s");
}

TEST(TimeTest, StreamOperator) {
    std::ostringstream os;
    os << 42_ms;
    EXPECT_EQ(os.str(), "42ms");
}

TEST(DataSizeTest, BitsAndBytes) {
    EXPECT_EQ(DataSize::from_bytes(10).bits(), 80);
    EXPECT_EQ(DataSize::from_bits(80).bytes(), 10);
    EXPECT_EQ(DataSize::from_kilobytes(1.0).bytes(), 1024);
    EXPECT_DOUBLE_EQ(DataSize::from_kilobytes(48).kilobytes(), 48.0);
}

TEST(DataSizeTest, Arithmetic) {
    const DataSize a = DataSize::from_bytes(100);
    const DataSize b = DataSize::from_bytes(50);
    EXPECT_EQ(a + b, DataSize::from_bytes(150));
    EXPECT_EQ(a - b, b);
    EXPECT_EQ(a * 0.5, b);
    EXPECT_DOUBLE_EQ(a / b, 2.0);
}

TEST(DataSizeTest, Comparisons) {
    EXPECT_LT(DataSize::from_bytes(1), DataSize::from_bytes(2));
    EXPECT_TRUE(DataSize::zero().is_zero());
}

TEST(DataSizeTest, StrScalesPartialBytesLikeWholeOnes) {
    EXPECT_EQ(DataSize::from_bytes(1500).str(), "1.465KB");
    // A size cut off mid-byte (e.g. a burst stopped by a crash) still
    // prints in B/KB/MB, as a fraction of a byte, never as raw bits.
    EXPECT_EQ(DataSize::from_bits(12).str(), "1.5B");
    EXPECT_EQ(DataSize::from_bits(12004).str(), "1.465KB");
    EXPECT_EQ(DataSize::from_bits(28490000).str(), "3.396MB");
}

TEST(RateTest, Conversions) {
    EXPECT_DOUBLE_EQ(Rate::from_mbps(11).kbps(), 11000.0);
    EXPECT_DOUBLE_EQ(Rate::from_kbps(128).bps(), 128000.0);
}

TEST(RateTest, TransmitTime) {
    // 1 Mb/s moves 1000 bits in 1 ms.
    const Time t = Rate::from_mbps(1).transmit_time(DataSize::from_bits(1000));
    EXPECT_EQ(t, Time::from_ms(1));
}

TEST(RateTest, DataInInvertsTransmitTime) {
    const Rate r = Rate::from_kbps(723.2);
    const DataSize d = DataSize::from_kilobytes(48);
    const Time t = r.transmit_time(d);
    const DataSize back = r.data_in(t);
    EXPECT_NEAR(static_cast<double>(back.bits()), static_cast<double>(d.bits()), 1.0);
}

TEST(RateTest, TransmitTimeOnZeroRateThrows) {
    EXPECT_THROW((void)Rate::zero().transmit_time(DataSize::from_bytes(1)), ContractViolation);
}

/// Property sweep: transmit_time is linear in size and inverse in rate.
class RateProperty : public ::testing::TestWithParam<double> {};

TEST_P(RateProperty, TransmitTimeScalesLinearly) {
    const double mbps = GetParam();
    const Rate r = Rate::from_mbps(mbps);
    const DataSize d = DataSize::from_bytes(1500);
    const Time one = r.transmit_time(d);
    const Time two = r.transmit_time(d + d);
    EXPECT_NEAR(static_cast<double>(two.ns()), 2.0 * static_cast<double>(one.ns()), 2.0);
    const Time half = (r * 2.0).transmit_time(d);
    EXPECT_NEAR(static_cast<double>(half.ns()), 0.5 * static_cast<double>(one.ns()), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, RateProperty, ::testing::Values(0.5, 1.0, 2.0, 5.5, 11.0, 54.0));

}  // namespace
}  // namespace wlanps
