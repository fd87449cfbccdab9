// Unit tests for src/util: contracts, RNG, statistics, CSV.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/flat_map.hpp"
#include "util/keys.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace sbk {
namespace {

TEST(PackPairKey, DistinctPairsGetDistinctKeys) {
  // The adversarial aliasing cases the naive shift-or packing gets
  // wrong: (1, 2^32) vs (2, 0) collide when the low word bleeds.
  EXPECT_NE(util::pack_pair_key(0u, 1u), util::pack_pair_key(1u, 0u));
  EXPECT_NE(util::pack_pair_key(7u, 9u), util::pack_pair_key(9u, 7u));
  EXPECT_EQ(util::pack_pair_key(3u, 4u),
            (std::uint64_t{3} << 32) | std::uint64_t{4});
  // Full u32 range round-trips without truncation.
  const std::uint64_t key = util::pack_pair_key(0xFFFF'FFFFu, 0xFFFF'FFFEu);
  EXPECT_EQ(key >> 32, 0xFFFF'FFFFull);
  EXPECT_EQ(key & 0xFFFF'FFFFull, 0xFFFF'FFFEull);
}

TEST(PackPairKey, RejectsOperandsWiderThan32Bits) {
  // A std::size_t circuit-switch id of 2^32 + 5 would silently alias
  // with (device + 1, 5) under the naive packing; the checked version
  // refuses instead.
  const std::size_t huge = (std::size_t{1} << 32) + 5;
  EXPECT_THROW((void)util::pack_pair_key(std::size_t{1}, huge),
               ContractViolation);
  EXPECT_THROW((void)util::pack_pair_key(huge, std::size_t{0}),
               ContractViolation);
  EXPECT_NO_THROW((void)util::pack_pair_key(std::size_t{1}, std::size_t{5}));
}

TEST(PackPairKey, RejectsNegativeSignedOperands) {
  // Sign extension would smear a negative id across both words.
  EXPECT_THROW((void)util::pack_pair_key(-1, 0), ContractViolation);
  EXPECT_THROW((void)util::pack_pair_key(0, -2), ContractViolation);
  EXPECT_EQ(util::pack_pair_key(1, 2), util::pack_pair_key(1u, 2u));
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "12", "--csv=out.csv", "34", "--top=5"};
  auto r = cli::parse_args(5, const_cast<char**>(argv),
                           {{"csv", true}, {"top", true}}, 4);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.positional.size(), 2u);
  EXPECT_EQ(r.positional[0], "12");
  EXPECT_EQ(r.positional[1], "34");
  EXPECT_EQ(r.value_of("csv").value_or(""), "out.csv");
  EXPECT_EQ(r.value_of("top").value_or(""), "5");
  EXPECT_FALSE(r.value_of("absent").has_value());
}

TEST(Cli, RejectsUnknownFlagsAndMissingValues) {
  {
    const char* argv[] = {"prog", "--bogus=1"};
    auto r = cli::parse_args(2, const_cast<char**>(argv), {{"csv", true}}, 4);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("--bogus"), std::string::npos);
  }
  {
    const char* argv[] = {"prog", "--csv"};
    auto r = cli::parse_args(2, const_cast<char**>(argv), {{"csv", true}}, 4);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("requires a value"), std::string::npos);
  }
  {
    const char* argv[] = {"prog", "a", "b"};
    auto r = cli::parse_args(3, const_cast<char**>(argv), {}, 1);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("extra argument"), std::string::npos);
  }
}

TEST(Cli, ParseIntAndDoubleRejectPartialTokens) {
  EXPECT_EQ(cli::parse_int("42").value_or(-1), 42);
  EXPECT_FALSE(cli::parse_int("42x").has_value());
  EXPECT_FALSE(cli::parse_int("").has_value());
  EXPECT_DOUBLE_EQ(cli::parse_double("2.5").value_or(-1.0), 2.5);
  EXPECT_FALSE(cli::parse_double("2.5GB").has_value());
}

TEST(Cli, ParseDoubleRejectsNonFiniteValues) {
  // strtod accepts these spellings whole; a flag value must be finite.
  EXPECT_FALSE(cli::parse_double("nan").has_value());
  EXPECT_FALSE(cli::parse_double("inf").has_value());
  EXPECT_FALSE(cli::parse_double("-inf").has_value());
  EXPECT_FALSE(cli::parse_double("1e400").has_value());  // overflows
  EXPECT_DOUBLE_EQ(cli::parse_double("-1e300").value_or(0.0), -1e300);
  EXPECT_DOUBLE_EQ(cli::parse_double("0").value_or(-1.0), 0.0);
}

TEST(Assert, ExpectsThrowsContractViolation) {
  EXPECT_THROW(SBK_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(SBK_EXPECTS(1 == 1));
}

TEST(Assert, MessageNamesExpressionAndLocation) {
  try {
    SBK_EXPECTS_MSG(false, "extra context");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("extra context"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, DeterministicAcrossInstancesWithSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndComplete) {
  Rng rng(7);
  auto sample = rng.sample_without_replacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);

  auto partial = rng.sample_without_replacement(100, 5);
  EXPECT_EQ(partial.size(), 5u);
  std::sort(partial.begin(), partial.end());
  EXPECT_TRUE(std::adjacent_find(partial.begin(), partial.end()) ==
              partial.end());
}

TEST(Rng, ParetoIsHeavyTailedAboveScale) {
  Rng rng(3);
  double xm = 2.0;
  int above_10x = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.pareto(xm, 1.1);
    EXPECT_GE(v, xm);
    if (v > 10 * xm) ++above_10x;
  }
  // Pareto(alpha=1.1): P(X > 10 xm) = 10^-1.1 ~ 7.9%.
  EXPECT_GT(above_10x, 400);
  EXPECT_LT(above_10x, 1600);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(9);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);
}

TEST(Rng, PreconditionsEnforced) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform_int(5, 4), ContractViolation);
  EXPECT_THROW((void)rng.uniform_index(0), ContractViolation);
  EXPECT_THROW((void)rng.exponential(0.0), ContractViolation);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4),
               ContractViolation);
}

TEST(Summary, BasicMoments) {
  Summary s;
  s.add_all({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Summary, PercentileInterpolates) {
  Summary s;
  s.add_all({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(s.median(), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(12.5), 15.0);
}

TEST(Summary, EmptyQueriesThrow) {
  Summary s;
  EXPECT_THROW((void)s.mean(), ContractViolation);
  EXPECT_THROW((void)s.percentile(50), ContractViolation);
}

TEST(Cdf, CoversMinAndMaxWithMonotoneFractions) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  auto cdf = empirical_cdf(xs, 10);
  ASSERT_EQ(cdf.size(), 10u);
  EXPECT_DOUBLE_EQ(cdf.front().value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 100.0);
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].fraction, cdf[i].fraction);
  }
}

TEST(Summary, MergeAppendsSamplesInOrder) {
  Summary a;
  a.add_all({1.0, 3.0});
  Summary b;
  b.add_all({2.0, 4.0});
  a.merge(b);
  EXPECT_EQ(a.samples(), (std::vector<double>{1.0, 3.0, 2.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.median(), 2.5);
  a.merge(Summary{});  // merging an empty accumulator is a no-op
  EXPECT_EQ(a.count(), 4u);
}

TEST(Cdf, SingleSampleCollapsesToOneStep) {
  auto cdf = empirical_cdf({3.5}, 10);
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 3.5);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 1.0);
}

TEST(Summary, SingleSamplePercentileIsTheSample) {
  // Regression: the interpolated rank formula degenerates at n == 1
  // (rank span of zero); every percentile of one sample is that sample.
  Summary s;
  s.add(7.25);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.25);
  EXPECT_DOUBLE_EQ(s.median(), 7.25);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.25);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.25);
}

TEST(Cdf, PercentileReadsBackOffTheCurve) {
  auto cdf = empirical_cdf({10.0, 20.0, 30.0, 40.0}, 10);
  EXPECT_DOUBLE_EQ(cdf_percentile(cdf, 0), 10.0);
  EXPECT_DOUBLE_EQ(cdf_percentile(cdf, 100), 40.0);
  // F(10)=0.25, F(20)=0.5: p=37.5 interpolates halfway between them.
  EXPECT_DOUBLE_EQ(cdf_percentile(cdf, 37.5), 15.0);
  // Below the first point's fraction there is nothing to bracket.
  EXPECT_DOUBLE_EQ(cdf_percentile(cdf, 10), 10.0);
}

TEST(Cdf, PercentileOfSingleSampleCdfIsTheSample) {
  // Regression: a one-sample CDF has a single point at F = 1, so the
  // two-point interpolation has no bracketing pair; every percentile
  // must return the sample instead of reading past the curve.
  auto cdf = empirical_cdf({3.5}, 10);
  EXPECT_DOUBLE_EQ(cdf_percentile(cdf, 0), 3.5);
  EXPECT_DOUBLE_EQ(cdf_percentile(cdf, 50), 3.5);
  EXPECT_DOUBLE_EQ(cdf_percentile(cdf, 100), 3.5);
  EXPECT_THROW((void)cdf_percentile({}, 50), ContractViolation);
}

TEST(Csv, NumExactRoundTripsFullPrecision) {
  // num() compresses to 6 significant digits for human-facing tables;
  // num_exact() must round-trip the exact double for outputs that are
  // re-parsed and compared (recovery timelines vs. traces).
  const double v = 0.01225007;
  EXPECT_EQ(CsvWriter::num(v), "0.0122501");  // lossy by design
  EXPECT_EQ(std::stod(CsvWriter::num_exact(v)), v);
  EXPECT_EQ(CsvWriter::num_exact(3.0), "3");
}

TEST(Cdf, RejectsFewerThanTwoMaxPoints) {
  EXPECT_THROW((void)empirical_cdf({1.0, 2.0}, 1), ContractViolation);
  EXPECT_THROW((void)empirical_cdf({1.0, 2.0}, 0), ContractViolation);
}

TEST(Histogram, RejectsBadBoundsBeforeDerivingWidth) {
  // Regression: the width used to be computed in the member-init list
  // before the preconditions ran, yielding inf/NaN widths on bad input
  // instead of a clean contract violation.
  EXPECT_THROW(Histogram(0.0, 10.0, 0), ContractViolation);
  EXPECT_THROW(Histogram(5.0, 5.0, 4), ContractViolation);
  EXPECT_THROW(Histogram(7.0, 2.0, 4), ContractViolation);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);  // clamps to first bin
  h.add(0.5);
  h.add(9.9);
  h.add(42.0);  // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  EXPECT_EQ(os.str(),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(Csv, NumFormatsIntegersWithoutDecimalNoise) {
  EXPECT_EQ(CsvWriter::num(3.0), "3");
  EXPECT_EQ(CsvWriter::num(3.25), "3.25");
  EXPECT_EQ(CsvWriter::num(std::size_t{17}), "17");
}

TEST(FlatKeyMap, FindMissReturnsNullAndEmplaceInserts) {
  util::FlatKeyMap<int> m;
  EXPECT_EQ(m.find(7), nullptr);  // empty map: no probe table yet
  int& v = m.find_or_emplace(7, [] { return 42; });
  EXPECT_EQ(v, 42);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 42);
  EXPECT_EQ(m.size(), 1u);
  // Second emplace with the same key must NOT call the factory.
  bool called = false;
  int& again = m.find_or_emplace(7, [&called] {
    called = true;
    return -1;
  });
  EXPECT_EQ(again, 42);
  EXPECT_FALSE(called);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatKeyMap, SurvivesGrowthAndStructuredKeys) {
  // pack_pair_key output is highly structured (small ints in each half);
  // insert a few thousand such keys to push through several growth
  // doublings and verify every value survives relocation.
  util::FlatKeyMap<std::uint64_t> m;
  for (std::uint32_t a = 0; a < 64; ++a) {
    for (std::uint32_t b = 0; b < 64; ++b) {
      const std::uint64_t key = util::pack_pair_key(a, b);
      m.find_or_emplace(key, [a, b] {
        return static_cast<std::uint64_t>(a) * 1000 + b;
      });
    }
  }
  EXPECT_EQ(m.size(), 64u * 64u);
  for (std::uint32_t a = 0; a < 64; ++a) {
    for (std::uint32_t b = 0; b < 64; ++b) {
      auto* v = m.find(util::pack_pair_key(a, b));
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, static_cast<std::uint64_t>(a) * 1000 + b);
    }
  }
}

TEST(FlatKeyMap, ClearEmptiesButAllowsReuse) {
  util::FlatKeyMap<std::string> m;
  for (std::uint64_t k = 1; k <= 100; ++k) {
    m.find_or_emplace(k, [k] { return std::to_string(k); });
  }
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(50), nullptr);
  std::string& v = m.find_or_emplace(50, [] { return std::string("fresh"); });
  EXPECT_EQ(v, "fresh");
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatKeyMap, RejectsReservedKey) {
  util::FlatKeyMap<int> m;
  EXPECT_THROW(m.find_or_emplace(util::FlatKeyMap<int>::kEmptyKey,
                                 [] { return 0; }),
               ContractViolation);
}

TEST(FlatKeyMap, RefReadsValueWhileGenerationUnchanged) {
  util::FlatKeyMap<int> m;
  auto ref = m.find_or_emplace_ref(7, [] { return 42; });
  ASSERT_TRUE(ref.valid());
  EXPECT_EQ(*ref, 42);
  *ref = 43;  // writable through the ref
  EXPECT_EQ(*m.find(7), 43);
  // Insertions that do NOT trigger growth leave the ref usable (the
  // initial table holds 16 slots; 2 entries stay under the 70% load
  // threshold).
  m.find_or_emplace(8, [] { return 0; });
  EXPECT_EQ(m.generation(), 1u);  // only the initial 0 -> 16 growth
  EXPECT_EQ(*ref, 43);
}

TEST(FlatKeyMap, RefThrowsAfterRehash) {
  util::FlatKeyMap<int> m;
  auto ref = m.find_or_emplace_ref(1, [] { return 10; });
  const std::uint64_t gen = m.generation();
  // Push past the 70% load factor of the initial 16-slot table so the
  // map grows and relocates every value.
  for (std::uint64_t k = 2; k <= 20; ++k) {
    m.find_or_emplace(k, [] { return 0; });
  }
  ASSERT_GT(m.generation(), gen);
  EXPECT_THROW((void)*ref, ContractViolation);
  EXPECT_THROW((void)ref.get(), ContractViolation);
  // A fresh ref to the same key works again.
  auto fresh = m.find_ref(1);
  ASSERT_TRUE(fresh.valid());
  EXPECT_EQ(*fresh, 10);
}

TEST(FlatKeyMap, RefThrowsAfterClear) {
  util::FlatKeyMap<int> m;
  auto ref = m.find_or_emplace_ref(5, [] { return 99; });
  m.clear();
  EXPECT_THROW((void)*ref, ContractViolation);
  EXPECT_FALSE(m.find_ref(5).valid());  // absent key -> invalid ref
}

TEST(FlatKeyMap, EmptyRefThrowsOnDereference) {
  util::FlatKeyMap<int>::Ref ref;
  EXPECT_FALSE(ref.valid());
  EXPECT_THROW((void)*ref, ContractViolation);
}

TEST(RingBuffer, KeepsFifoOrderAcrossWrapAndGrowth) {
  util::RingBuffer<int> q;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the front wraps past the end of the
  // slots several times, and grow while it is wrapped.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3 + round % 7; ++i) q.push_back(next_in++);
    for (int i = 0; i < 2 + round % 5 && !q.empty(); ++i) {
      ASSERT_EQ(q.front(), next_out++);
      q.pop_front();
    }
    ASSERT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
    for (std::size_t i = 0; i < q.size(); ++i) {
      ASSERT_EQ(q[i], next_out + static_cast<int>(i));
    }
    if (!q.empty()) {
      EXPECT_EQ(q.back(), next_in - 1);
    }
  }
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push_back(7);
  EXPECT_EQ(q.front(), 7);
}

TEST(RingBuffer, NeverGrowsPastItsSlotBound) {
  util::RingBuffer<int> q(5);
  for (int i = 0; i < 5; ++i) q.push_back(i);
  EXPECT_THROW(q.push_back(5), ContractViolation);
  q.pop_front();
  q.push_back(5);  // a freed slot is reused
  EXPECT_EQ(q.front(), 1);
  EXPECT_EQ(q.back(), 5);
  EXPECT_THROW(util::RingBuffer<int>(0), ContractViolation);
}

TEST(Time, UnitHelpers) {
  EXPECT_DOUBLE_EQ(milliseconds(3), 0.003);
  EXPECT_DOUBLE_EQ(microseconds(40), 4e-5);
  EXPECT_DOUBLE_EQ(nanoseconds(70), 7e-8);
  EXPECT_DOUBLE_EQ(minutes(5), 300.0);
}

}  // namespace
}  // namespace sbk
