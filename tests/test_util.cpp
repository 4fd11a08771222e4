/// \file test_util.cpp
/// \brief Unit tests for the utility substrate: stats, RNG, tables,
/// timers, logging.

#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "util/log.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace qforest {
namespace {

TEST(Stats, SpeedupPercentMatchesPaperConvention) {
  // Baseline 1.77 s vs candidate 1.0 s -> "77% performance boost".
  EXPECT_NEAR(speedup_percent(1.77, 1.0), 77.0, 1e-9);
  EXPECT_NEAR(speedup_percent(1.0, 1.0), 0.0, 1e-12);
  EXPECT_LT(speedup_percent(0.5, 1.0), 0.0);
}

TEST(Random, DeterministicForSeed) {
  Xoshiro256 a(123), b(123), c(124);
  bool all_equal = true, any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    all_equal = all_equal && va == b.next_u64();
    any_diff_c = any_diff_c || va != c.next_u64();
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(Random, NextBelowInRangeAndCoversValues) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Random, NextInRangeInclusive) {
  Xoshiro256 rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.next_in_range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Table, AlignsColumnsAndCounts) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  EXPECT_EQ(t.row_count(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Every line has the same column start for "value" data.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(42ll), "42");
}

TEST(Timer, WallTimerMonotone) {
  WallTimer t;
  const double a = t.elapsed_s();
  const double b = t.elapsed_s();
  EXPECT_GE(b, a);
  EXPECT_GE(t.elapsed_ns(), 0);
}

TEST(Log, LevelFiltering) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kSilent);
  log_error("this must not crash (%d)", 1);
  set_log_level(LogLevel::kInfo);
  EXPECT_EQ(static_cast<int>(log_level()),
            static_cast<int>(LogLevel::kInfo));
  set_log_level(before);
}

}  // namespace
}  // namespace qforest
