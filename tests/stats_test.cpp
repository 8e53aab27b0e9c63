// Tests for streaming statistics, sample sets and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "stats/counter_set.hpp"
#include "stats/online_stats.hpp"
#include "stats/sample_set.hpp"
#include "stats/table.hpp"

namespace speakup::stats {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MeanAndVariance) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_EQ(s.count(), 8);
}

TEST(OnlineStats, SingleSampleHasZeroVariance) {
  OnlineStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(OnlineStats, MergeMatchesCombinedStream) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.1 * i;
    a.add(x);
    all.add(x);
  }
  for (int i = 50; i < 120; ++i) {
    const double x = 0.3 * i - 2;
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptySides) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(2.0);
  OnlineStats a_copy = a;
  a.merge(b);  // empty right side: unchanged
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.mean(), a_copy.mean());
  b.merge(a);  // empty left side: becomes right side
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(SampleSet, PercentilesExact) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100, added descending
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.9), 90.0, 1.0);
  EXPECT_DOUBLE_EQ(s.median(), s.percentile(0.5));
}

TEST(SampleSet, EmptyPercentileIsZero) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.percentile(0.9), 0.0);
  EXPECT_TRUE(s.empty());
}

TEST(SampleSet, AddAfterPercentileResorts) {
  SampleSet s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 20.0);
}

TEST(SampleSet, SummaryMatches) {
  SampleSet s;
  for (const double x : {1.0, 2.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(SampleSet, Merge) {
  SampleSet a, b;
  a.add(1.0);
  b.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.percentile(1.0), 5.0);
}

TEST(CounterSet, IncrementAndRead) {
  CounterSet c;
  EXPECT_EQ(c.get("x"), 0);
  c.inc("x");
  c.inc("x", 4);
  EXPECT_EQ(c.get("x"), 5);
  EXPECT_EQ(c.all().size(), 1u);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t({"name", "value"});
  t.row().add("alpha").add(1.5, 1);
  t.row().add("b").add(std::int64_t{42});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);  // header, rule, 2 rows
}

}  // namespace
}  // namespace speakup::stats
