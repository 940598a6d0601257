// Tests for hbn::util — RNG determinism and distributions, statistics,
// table formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "hbn/util/alias.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"

namespace hbn::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng());
  EXPECT_GT(seen.size(), 90u);  // not stuck
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.nextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.nextBelow(kBuckets)];
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.1);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(13);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.nextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= (v == -3);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.nextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextBoolEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
  }
}

TEST(Rng, NextBoolProbability) {
  Rng rng(23);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.nextBool(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(Rng, WeightedSamplingMatchesWeights) {
  Rng rng(29);
  const double weights[] = {1.0, 3.0, 6.0};
  int counts[3] = {};
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.nextWeighted(weights)];
  }
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.02);
}

TEST(Rng, WeightedSkipsZeroWeight) {
  Rng rng(31);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.nextWeighted(weights), 1u);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = items;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, items);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double v : {4.0, 1.0, 3.0, 2.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.median(), 2.5);
}

TEST(Stats, AccumulatorPercentiles) {
  Accumulator acc;
  for (int i = 1; i <= 100; ++i) acc.add(static_cast<double>(i));
  EXPECT_NEAR(acc.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(acc.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(acc.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(acc.percentile(90), 90.1, 0.2);
}

TEST(Stats, AccumulatorPercentileAfterAddInvalidatesCache) {
  Accumulator acc;
  acc.add(1.0);
  EXPECT_DOUBLE_EQ(acc.median(), 1.0);
  acc.add(100.0);
  EXPECT_DOUBLE_EQ(acc.median(), 50.5);
}

TEST(Stats, AccumulatorStddev) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.01);
}

TEST(Stats, EmptyAccumulatorThrows) {
  Accumulator acc;
  EXPECT_THROW((void)acc.mean(), std::logic_error);
  EXPECT_THROW((void)acc.min(), std::logic_error);
  EXPECT_THROW((void)acc.percentile(50), std::logic_error);
}

TEST(Stats, PercentileSortedMatchesAccumulator) {
  // One percentile definition: the free function on a sorted sample and
  // the Accumulator (which delegates to it) agree everywhere.
  Accumulator acc;
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) {
    acc.add(static_cast<double>(101 - i));
    values.push_back(static_cast<double>(i));
  }
  for (const double q : {0.0, 12.5, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(percentileSorted(values, q), acc.percentile(q)) << q;
  }
  EXPECT_DOUBLE_EQ(percentileSorted(values, -5.0), 1.0);    // clamped
  EXPECT_DOUBLE_EQ(percentileSorted(values, 200.0), 100.0);  // clamped
  EXPECT_THROW((void)percentileSorted({}, 50.0), std::logic_error);
}

TEST(Stats, ReservoirSamplerKeepsEverythingBelowCapacity) {
  ReservoirSampler sampler(64);
  for (int i = 0; i < 50; ++i) sampler.add(static_cast<double>(i));
  EXPECT_EQ(sampler.seen(), 50u);
  EXPECT_EQ(sampler.samples().size(), 50u);
  EXPECT_DOUBLE_EQ(sampler.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sampler.percentile(100.0), 49.0);
}

TEST(Stats, ReservoirSamplerIsBoundedUniformAndDeterministic) {
  ReservoirSampler a(100, 42);
  ReservoirSampler b(100, 42);
  for (int i = 0; i < 100'000; ++i) {
    a.add(static_cast<double>(i));
    b.add(static_cast<double>(i));
  }
  EXPECT_EQ(a.seen(), 100'000u);
  EXPECT_EQ(a.samples().size(), 100u);
  // Same seed, same stream → same reservoir.
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples()[i], b.samples()[i]);
  }
  // Algorithm R keeps a uniform sample, so the median of a uniform
  // 0..100k stream lands near the middle (loose sanity bound).
  EXPECT_GT(a.percentile(50.0), 20'000.0);
  EXPECT_LT(a.percentile(50.0), 80'000.0);
}

TEST(Stats, ReservoirSamplerMemoryFollowsTheStreamNotTheCapacity) {
  // A capacity no allocator can back up front (the latency reservoir's
  // size comes straight from a CLI flag): the reservoir grows with what
  // it is fed instead.
  ReservoirSampler sampler(std::size_t{1} << 62);
  for (int i = 0; i < 1000; ++i) sampler.add(static_cast<double>(i));
  EXPECT_EQ(sampler.samples().size(), 1000u);
  EXPECT_DOUBLE_EQ(sampler.percentile(50.0), 499.5);
}

TEST(Stats, ReservoirSamplerDisabledCountsOnly) {
  ReservoirSampler sampler(0);
  for (int i = 0; i < 10; ++i) sampler.add(1.0);
  EXPECT_EQ(sampler.seen(), 10u);
  EXPECT_TRUE(sampler.empty());
  EXPECT_THROW((void)sampler.percentile(50.0), std::logic_error);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const double xs[] = {1, 2, 3, 4, 5};
  const double ys[] = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const double zs[] = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  const double xs[] = {1, 1, 1};
  const double ys[] = {1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, LinearSlope) {
  const double xs[] = {0, 1, 2, 3};
  const double ys[] = {1, 3, 5, 7};
  EXPECT_NEAR(linearSlope(xs, ys), 2.0, 1e-12);
}

TEST(Table, AlignsAndPrints) {
  Table t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "22"});
  const std::string out = t.toString();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvEscaping) {
  Table t({"k", "v"});
  t.addRow({"with,comma", "with\"quote"});
  std::ostringstream oss;
  t.printCsv(oss);
  EXPECT_NE(oss.str().find("\"with,comma\""), std::string::npos);
  EXPECT_NE(oss.str().find("\"with\"\"quote\""), std::string::npos);
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer timer;
  double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink += std::sqrt(static_cast<double>(i));
  (void)sink;
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_GE(timer.millis(), timer.seconds());  // ms >= s for positive times
}

TEST(FormatDouble, Digits) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(AliasTable, MatchesWeightProportions) {
  const std::vector<double> weights = {1.0, 0.0, 4.0, 2.0, 1.0};
  const AliasTable table(weights);
  ASSERT_EQ(table.size(), weights.size());
  Rng rng(1234);
  std::vector<int> hits(weights.size(), 0);
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) ++hits[table.sample(rng)];
  EXPECT_EQ(hits[1], 0);  // zero weight is never drawn
  const double total = 8.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / total;
    const double observed =
        static_cast<double>(hits[i]) / static_cast<double>(kDraws);
    EXPECT_NEAR(observed, expected, 0.01) << "index " << i;
  }
}

TEST(AliasTable, DeterministicAcrossInstances) {
  std::vector<double> weights(257);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  const AliasTable a(weights);
  const AliasTable b(weights);
  Rng rngA(9);
  Rng rngB(9);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(a.sample(rngA), b.sample(rngB));
  }
}

TEST(AliasTable, RejectsDegenerateInput) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace hbn::util
