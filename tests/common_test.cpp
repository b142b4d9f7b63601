// Tests for the common module: units, RNG, resource timelines, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timeline.hpp"
#include "common/units.hpp"
#include "oracles/shared_channel.hpp"

namespace tunio {
namespace {

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(to_mbps(1e6), 1.0);
  EXPECT_DOUBLE_EQ(to_mbps(2.5 * GB), 2500.0);
  EXPECT_DOUBLE_EQ(to_minutes(120.0), 2.0);
  EXPECT_EQ(KiB, 1024u);
  EXPECT_EQ(MiB, 1024u * 1024u);
  EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4 * MiB), "4.00 MiB");
  EXPECT_EQ(format_bytes(3 * GiB), "3.00 GiB");
  EXPECT_EQ(format_bandwidth(2.5 * GB), "2.50 GB/s");
  EXPECT_EQ(format_bandwidth(120 * MB), "120.00 MB/s");
  EXPECT_EQ(format_minutes(90.0), "1.5 min");
}

TEST(Error, CheckMacroThrows) {
  EXPECT_THROW(TUNIO_CHECK(false), Error);
  EXPECT_NO_THROW(TUNIO_CHECK(true));
  try {
    TUNIO_CHECK_MSG(false, "context message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, IndexRejectsEmpty) {
  Rng rng(3);
  EXPECT_THROW(rng.index(0), Error);
}

TEST(Rng, ChoiceAndShuffle) {
  Rng rng(4);
  std::vector<int> items{1, 2, 3, 4, 5};
  for (int i = 0; i < 50; ++i) {
    const int c = rng.choice(items);
    EXPECT_TRUE(std::find(items.begin(), items.end(), c) != items.end());
  }
  std::vector<int> shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);  // permutation preserves the multiset
}

TEST(Rng, NormalMatchesStdDistributionBitForBit) {
  // Rng::normal once built a fresh std::normal_distribution per draw;
  // scaling a standard draw must reproduce it exactly.
  for (const double mean : {0.0, -3.5, 1e6}) {
    for (const double stddev : {1e-300, 1e-3, 0.5, 1.0, 7.25, 1e6}) {
      Rng rng(42);
      std::mt19937_64 engine(42);
      for (int i = 0; i < 10000; ++i) {
        const double got = rng.normal(mean, stddev);
        const double want =
            std::normal_distribution<double>(mean, stddev)(engine);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "mean " << mean << ", stddev " << stddev << ", draw " << i;
      }
    }
  }
}

TEST(Rng, NormalWithZeroStddevReturnsMean) {
  Rng rng(5);
  Rng twin(5);
  for (const double mean : {0.0, 2.5, -1e9}) {
    EXPECT_EQ(rng.normal(mean, 0.0), mean);
    (void)twin.normal(mean, 1.0);
  }
  // A zero stddev consumes the same draws as any other, so the streams
  // that follow do not shift.
  EXPECT_EQ(rng.uniform(), twin.uniform());
}

TEST(Rng, NormalRejectsNegativeOrNonFiniteStddev) {
  Rng rng(6);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
  EXPECT_THROW(rng.normal(0.0, std::numeric_limits<double>::quiet_NaN()),
               Error);
  EXPECT_THROW(rng.normal(0.0, std::numeric_limits<double>::infinity()),
               Error);
}

TEST(Rng, ForkIndependence) {
  Rng parent(7);
  Rng child = parent.fork();
  // The child must not replay the parent's stream.
  Rng parent2(7);
  (void)parent2.engine()();  // parent consumed one draw to fork
  EXPECT_NE(child.uniform(), parent.uniform());
}

TEST(ResourceTimeline, SerializesOverlappingRequests) {
  ResourceTimeline tl;
  const auto g1 = tl.acquire(0.0, 1.0);
  EXPECT_DOUBLE_EQ(g1.begin, 0.0);
  EXPECT_DOUBLE_EQ(g1.end, 1.0);
  // Arrives at 0.5 but must queue behind g1.
  const auto g2 = tl.acquire(0.5, 2.0);
  EXPECT_DOUBLE_EQ(g2.begin, 1.0);
  EXPECT_DOUBLE_EQ(g2.end, 3.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(), 3.0);
}

TEST(ResourceTimeline, IdleGapRespected) {
  ResourceTimeline tl;
  tl.acquire(0.0, 1.0);
  const auto g = tl.acquire(10.0, 1.0);
  EXPECT_DOUBLE_EQ(g.begin, 10.0);  // no work between 1 and 10
  EXPECT_DOUBLE_EQ(g.end, 11.0);
}

TEST(ResourceTimeline, RejectsNegativeDuration) {
  ResourceTimeline tl;
  EXPECT_THROW(tl.acquire(0.0, -1.0), Error);
}

TEST(ResourceTimeline, Reset) {
  ResourceTimeline tl;
  tl.acquire(0.0, 5.0);
  tl.reset();
  EXPECT_DOUBLE_EQ(tl.next_free(), 0.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(), 0.0);
}

TEST(SharedChannel, LatencyPlusDrain) {
  SharedChannel ch(100.0, 0.5);  // 100 B/s, 0.5 s latency
  const SimSeconds done = ch.transfer(0.0, 100);
  EXPECT_DOUBLE_EQ(done, 1.5);  // 0.5 latency + 1.0 drain
  EXPECT_EQ(ch.bytes_moved(), 100u);
}

TEST(SharedChannel, BackToBackTransfersShareBandwidth) {
  SharedChannel ch(100.0, 0.0);
  const SimSeconds first = ch.transfer(0.0, 100);   // drains [0,1]
  const SimSeconds second = ch.transfer(0.0, 100);  // queues behind
  EXPECT_DOUBLE_EQ(first, 1.0);
  EXPECT_DOUBLE_EQ(second, 2.0);
}

TEST(SharedChannel, RejectsBadProfile) {
  EXPECT_THROW(SharedChannel(0.0, 0.0), Error);
  EXPECT_THROW(SharedChannel(1.0, -1.0), Error);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
}

TEST(Stats, EmptySeriesThrow) {
  EXPECT_THROW(mean({}), Error);
  EXPECT_THROW(min_of({}), Error);
  EXPECT_THROW(percentile({}, 50.0), Error);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_THROW(percentile(xs, 101.0), Error);
}

TEST(Stats, Linspace) {
  const auto xs = linspace(0.0, 1.0, 5);
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_DOUBLE_EQ(xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(xs.back(), 1.0);
  EXPECT_DOUBLE_EQ(xs[2], 0.5);
}

TEST(Stats, PearsonCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
  const std::vector<double> flat{3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(pearson(xs, flat), 0.0);
}

TEST(Stats, Ema) {
  const auto smoothed = ema({1.0, 1.0, 1.0}, 0.5);
  ASSERT_EQ(smoothed.size(), 3u);
  EXPECT_DOUBLE_EQ(smoothed[0], 1.0);
  EXPECT_DOUBLE_EQ(smoothed[2], 1.0);
  EXPECT_THROW(ema({1.0}, 0.0), Error);
}

/// Property: a timeline's busy time equals the sum of granted durations,
/// and grants never overlap, for arbitrary request patterns.
class TimelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineProperty, GrantsNeverOverlap) {
  Rng rng(GetParam());
  ResourceTimeline tl;
  double expected_busy = 0.0;
  double last_end = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double start = rng.uniform(0.0, 100.0);
    const double duration = rng.uniform(0.0, 2.0);
    const auto grant = tl.acquire(start, duration);
    EXPECT_GE(grant.begin, start);
    EXPECT_GE(grant.begin, last_end);  // FIFO: no overlap with predecessor
    EXPECT_DOUBLE_EQ(grant.end, grant.begin + duration);
    last_end = grant.end;
    expected_busy += duration;
  }
  EXPECT_NEAR(tl.busy_time(), expected_busy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineProperty,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

/// Property: channel completion is monotone in bytes for a fixed start.
class ChannelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelProperty, MonotoneInBytes) {
  const Bytes base = GetParam();
  SharedChannel a(1e6, 1e-3);
  SharedChannel b(1e6, 1e-3);
  const SimSeconds small = a.transfer(0.0, base);
  const SimSeconds large = b.transfer(0.0, base * 2);
  EXPECT_LT(small, large);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChannelProperty,
                         ::testing::Values(1, 1024, 65536, 1048576));

}  // namespace
}  // namespace tunio
