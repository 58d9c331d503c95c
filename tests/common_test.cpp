// Unit tests for src/common: RNG, statistics, table formatting.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"

namespace dynapipe {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBelow(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(42);
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) {
    stats.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(42);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) {
    stats.Add(rng.NextGaussian(10.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, LogNormalMedianIsExpMu) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 50'000; ++i) {
    values.push_back(rng.NextLogNormal(std::log(100.0), 0.5));
  }
  EXPECT_NEAR(Percentile(values, 50.0), 100.0, 3.0);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), orig.begin()));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // Child and parent should not produce identical sequences.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == child.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

// ---------- RunningStats ----------

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStatsTest, SingleValueHasZeroVariance) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

// ---------- Percentile / MPE ----------

TEST(PercentileTest, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenOrderStats) {
  EXPECT_DOUBLE_EQ(Percentile({0.0, 10.0}, 25.0), 2.5);
}

TEST(PercentileTest, Extremes) {
  std::vector<double> v{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 9.0);
}

TEST(MeanPercentageErrorTest, ExactMatchIsZero) {
  EXPECT_DOUBLE_EQ(MeanPercentageError({1.0, 2.0}, {1.0, 2.0}), 0.0);
}

TEST(MeanPercentageErrorTest, TenPercentOff) {
  EXPECT_NEAR(MeanPercentageError({110.0}, {100.0}), 10.0, 1e-9);
}

TEST(MeanPercentageErrorTest, SkipsZeroActuals) {
  EXPECT_NEAR(MeanPercentageError({5.0, 110.0}, {0.0, 100.0}), 10.0, 1e-9);
}

// ---------- Histogram ----------

TEST(HistogramTest, CountsFallInRightBuckets) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.5);
  h.Add(5.0);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(9), 1);
  EXPECT_EQ(h.bucket_count(5), 1);
  EXPECT_EQ(h.total(), 3);
}

TEST(HistogramTest, OutOfRangeClamped) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-100.0);
  h.Add(100.0);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(4), 1);
}

TEST(HistogramTest, BucketBounds) {
  Histogram h(0.0, 100.0, 4);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 25.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 50.0);
}

TEST(HistogramTest, ToStringHasOneLinePerBucket) {
  Histogram h(0.0, 4.0, 4);
  h.Add(1.0);
  const std::string s = h.ToString();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

// ---------- TextTable ----------

TEST(TextTableTest, FormatsAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);  // header + rule + 2 rows
}

TEST(TextTableTest, FmtPrecision) {
  EXPECT_EQ(TextTable::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace dynapipe
