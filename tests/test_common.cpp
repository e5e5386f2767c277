// Unit tests for the common substrate: contracts, RNG, statistics,
// histograms, config parsing, bit utilities and StaticVector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <vector>

#include "common/assert.hpp"
#include "common/bitops.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/static_vector.hpp"
#include "common/stats.hpp"

namespace flexrouter {
namespace {

// ---------------------------------------------------------------- contracts
TEST(Contracts, RequireThrowsWithExpressionText) {
  try {
    FR_REQUIRE_MSG(1 == 2, "math is broken");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
  }
}

TEST(Contracts, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(FR_REQUIRE(2 + 2 == 4));
  EXPECT_NO_THROW(FR_ENSURE(true));
  EXPECT_NO_THROW(FR_ASSERT(1));
}

// ---------------------------------------------------------------------- rng
TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 500; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kSamples / kBuckets * 0.9);
    EXPECT_LT(c, kSamples / kBuckets * 1.1);
  }
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UnitDoublesInHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  // Child stream should not replay the parent's output.
  Rng b(23);
  b.next_u64();  // advance past the split draw
  EXPECT_NE(child.next_u64(), b.next_u64());
}

TEST(Rng, RejectsZeroBound) { EXPECT_THROW(Rng(1).next_below(0), ContractViolation); }

// -------------------------------------------------------------------- stats
TEST(StreamingStats, MeanVarianceMinMax) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, MergeMatchesCombinedStream) {
  Rng rng(31);
  StreamingStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_unit() * 10.0;
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(StreamingStats, MergeWithEmptyIsIdentity) {
  StreamingStats s, empty;
  s.add(1.0);
  s.add(3.0);
  s.merge(empty);
  EXPECT_EQ(s.count(), 2);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(StreamingStats, EmptyMinThrows) {
  StreamingStats s;
  EXPECT_THROW(s.min(), ContractViolation);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(5.5);
  h.add(9.999);
  h.add(10.0);
  h.add(25.0);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 2);
  EXPECT_EQ(h.bin_count(0), 1);
  EXPECT_EQ(h.bin_count(5), 1);
  EXPECT_EQ(h.bin_count(9), 1);
  EXPECT_EQ(h.count(), 6);
}

TEST(Histogram, ExactPercentilesWithKeptSamples) {
  Histogram h(0.0, 100.0, 10, /*keep_samples=*/true);
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(h.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(h.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(h.percentile(99), 99.01, 0.05);
}

TEST(Histogram, InterpolatedPercentileApproximates) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 1000; ++i) h.add(i % 100 + 0.5);
  EXPECT_NEAR(h.percentile(50.0), 50.0, 2.0);
  EXPECT_NEAR(h.percentile(90.0), 90.0, 2.0);
}

// -------------------------------------------------------------------- config
TEST(Config, ParsesTypesAndComments) {
  const auto cfg = Config::parse(R"(
    # a comment
    width = 8; height = 8   // trailing comment
    rate = 0.35
    name = "uniform random"
    verbose = true
  )");
  EXPECT_EQ(cfg.get_int("width", 0), 8);
  EXPECT_EQ(cfg.get_int("height", 0), 8);
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0.0), 0.35);
  EXPECT_EQ(cfg.get_string("name", ""), "uniform random");
  EXPECT_TRUE(cfg.get_bool("verbose", false));
  EXPECT_EQ(cfg.get_int("missing", -7), -7);
}

TEST(Config, IntListAndOverride) {
  const auto base = Config::parse("faults = 0,1,2,4; vcs = 2");
  const auto over = Config::parse("vcs = 5");
  const auto merged = base.overridden_by(over);
  EXPECT_EQ(merged.get_int("vcs", 0), 5);
  const auto faults = merged.get_int_list("faults", {});
  EXPECT_EQ(faults, (std::vector<std::int64_t>{0, 1, 2, 4}));
}

TEST(Config, RequireMissingThrows) {
  const auto cfg = Config::parse("a = 1");
  EXPECT_EQ(cfg.require_int("a"), 1);
  EXPECT_THROW(cfg.require_int("b"), ContractViolation);
  EXPECT_THROW(cfg.require_string("b"), ContractViolation);
}

TEST(Config, MalformedValueThrows) {
  const auto cfg = Config::parse("x = banana");
  EXPECT_THROW(cfg.get_int("x", 0), ContractViolation);
  EXPECT_THROW(cfg.get_double("x", 0.0), ContractViolation);
  EXPECT_THROW(cfg.get_bool("x", false), ContractViolation);
  // Numbers are consumed whole: a trailing typo is an error, not a
  // silently truncated value.
  const auto trailing = Config::parse("n = 8abc; r = 0.1x; l = 0.1,x");
  EXPECT_THROW(trailing.get_int("n", 0), ContractViolation);
  EXPECT_THROW(trailing.get_double("r", 0.0), ContractViolation);
  EXPECT_THROW(trailing.get_double_list("l", {}), ContractViolation);
}

TEST(Config, DoubleList) {
  const auto cfg = Config::parse("rates = 0.02, 0.06,1e-1");
  EXPECT_EQ(cfg.get_double_list("rates", {}),
            (std::vector<double>{0.02, 0.06, 0.1}));
  EXPECT_EQ(cfg.get_double_list("missing", {0.5}),
            (std::vector<double>{0.5}));
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::parse("just words no equals"), ContractViolation);
}

TEST(Config, RoundTripThroughToString) {
  const auto cfg = Config::parse("a = 1; b = two; c = 3.5");
  const auto again = Config::parse(cfg.to_string());
  EXPECT_EQ(again.get_int("a", 0), 1);
  EXPECT_EQ(again.get_string("b", ""), "two");
  EXPECT_DOUBLE_EQ(again.get_double("c", 0.0), 3.5);
}

// --------------------------------------------------------------------- log
TEST(Log, LevelsGateOutput) {
  auto& logger = Logger::instance();
  std::ostringstream sink;
  logger.set_sink(&sink);
  logger.set_level(LogLevel::Warn);
  FR_DEBUG("hidden " << 42);
  FR_WARN("visible " << 43);
  FR_ERROR("also visible");
  logger.set_sink(nullptr);
  logger.set_level(LogLevel::Warn);
  const std::string out = sink.str();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("[warn] visible 43"), std::string::npos);
  EXPECT_NE(out.find("[error] also visible"), std::string::npos);
}

TEST(Log, TraceLevelEnablesEverything) {
  auto& logger = Logger::instance();
  std::ostringstream sink;
  logger.set_sink(&sink);
  logger.set_level(LogLevel::Trace);
  FR_TRACE("t");
  FR_INFO("i");
  logger.set_sink(nullptr);
  logger.set_level(LogLevel::Warn);
  EXPECT_NE(sink.str().find("[trace] t"), std::string::npos);
  EXPECT_NE(sink.str().find("[info] i"), std::string::npos);
}

TEST(Log, OffSilencesAll) {
  auto& logger = Logger::instance();
  std::ostringstream sink;
  logger.set_sink(&sink);
  logger.set_level(LogLevel::Off);
  FR_ERROR("nope");
  logger.set_sink(nullptr);
  logger.set_level(LogLevel::Warn);
  EXPECT_TRUE(sink.str().empty());
}

TEST(Config, FromFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/flexrouter_cfg_test.cfg";
  {
    std::ofstream out(path);
    out << "# experiment\nwidth = 16\nrate = 0.25\nname = \"trial one\"\n";
  }
  const auto cfg = Config::from_file(path);
  EXPECT_EQ(cfg.get_int("width", 0), 16);
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0), 0.25);
  EXPECT_EQ(cfg.get_string("name", ""), "trial one");
  EXPECT_THROW(Config::from_file(path + ".missing"), ContractViolation);
  std::remove(path.c_str());
}

TEST(ConfigFuzz, CorruptedConfigsNeverCrash) {
  // Every key flexsim accepts (examples/flexsim.cpp, known_key), each set
  // to a value of the shape flexsim reads. Corrupted copies must parse or
  // be rejected with a ContractViolation, and so must every typed getter
  // on every key: nothing else may escape, under ASan+UBSan included.
  const std::string base =
      "# flexsim experiment\n"
      "topology = mesh; width = 8; height = 8; dimension = 4\n"
      "algorithm = ft-mesh-rules; traffic = uniform\n"
      "rate = 0.10; rates = 0.02,0.06,0.10; threads = 0\n"
      "packet_length = 4; warmup = 1000; measure = 2000\n"
      "link_faults = 6; node_faults = 0; seed = 1; show_links = false\n"
      "shards = 1; shard_threads = 0\n"
      "fault_at = 1500:link:27:1,2200:node:12; repair_after = 800\n"
      "flap = 27:1:1500:120:260; failslow = 1500:27:1:8\n"
      "fault_regime = storm; detection_delay = 0; max_retries = 3\n"
      "exec_mode = interp  // decision backend\n"
      "swap_rules_at = \"2000,new_rules.txt\"; swap_policy = rolling\n"
      "rolling_shards = 8\n";
  Rng rng(2029);
  int parsed = 0, rejected = 0, getter_rejections = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = base;
    // Apply 1-4 random edits: delete, duplicate or perturb characters.
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const auto pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0: mutated.erase(pos, 1); break;
        case 1: mutated.insert(pos, 1, mutated[pos]); break;
        default:
          mutated[pos] = static_cast<char>(' ' + rng.next_below(95));
          break;
      }
    }
    Config cfg;
    try {
      cfg = Config::parse(mutated);
      ++parsed;
    } catch (const ContractViolation&) {
      ++rejected;  // clean rejection — fine
      continue;
    }
    // Anything but a ContractViolation escapes these and fails the test.
    const auto probe = [&](const auto& get) {
      try {
        get();
      } catch (const ContractViolation&) {
        ++getter_rejections;
      }
    };
    for (const std::string& key : cfg.keys()) {
      probe([&] { (void)cfg.get_string(key, ""); });
      probe([&] { (void)cfg.require_string(key); });
      probe([&] { (void)cfg.get_int(key, 0); });
      probe([&] { (void)cfg.require_int(key); });
      probe([&] { (void)cfg.get_double(key, 0.0); });
      probe([&] { (void)cfg.require_double(key); });
      probe([&] { (void)cfg.get_bool(key, false); });
      probe([&] { (void)cfg.get_int_list(key, {}); });
      probe([&] { (void)cfg.get_double_list(key, {}); });
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(getter_rejections, 0);
}

TEST(Histogram, AsciiRenderShowsBars) {
  Histogram h(0, 10, 5);
  for (int i = 0; i < 8; ++i) h.add(1.0);
  h.add(9.0);
  const std::string art = h.ascii_render(20);
  EXPECT_NE(art.find("####"), std::string::npos);
  EXPECT_NE(art.find("[0, 2)"), std::string::npos);
  h.reset();
  EXPECT_EQ(h.count(), 0);
}

// -------------------------------------------------------------------- bitops
TEST(BitOps, BitsFor) {
  EXPECT_EQ(bits_for(1), 0);
  EXPECT_EQ(bits_for(2), 1);
  EXPECT_EQ(bits_for(3), 2);
  EXPECT_EQ(bits_for(4), 2);
  EXPECT_EQ(bits_for(5), 3);
  EXPECT_EQ(bits_for(1024), 10);
  EXPECT_EQ(bits_for(1025), 11);
}

TEST(BitOps, Log2CeilFloor) {
  EXPECT_EQ(log2_ceil(1), 0);
  EXPECT_EQ(log2_ceil(2), 1);
  EXPECT_EQ(log2_ceil(5), 3);
  EXPECT_EQ(log2_floor(1), 0);
  EXPECT_EQ(log2_floor(5), 2);
  EXPECT_EQ(log2_floor(8), 3);
}

TEST(BitOps, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(6));
}

// -------------------------------------------------------------- StaticVector
TEST(StaticVector, PushIndexIterate) {
  StaticVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  v.emplace_back(3);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v.back(), 3);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 6);
}

TEST(StaticVector, OverflowThrows) {
  StaticVector<int, 2> v{1, 2};
  EXPECT_TRUE(v.full());
  EXPECT_THROW(v.push_back(3), ContractViolation);
}

TEST(StaticVector, SwapEraseReordersButKeepsElements) {
  StaticVector<int, 8> v{10, 20, 30, 40};
  v.swap_erase(1);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.contains(10));
  EXPECT_FALSE(v.contains(20));
  EXPECT_TRUE(v.contains(30));
  EXPECT_TRUE(v.contains(40));
}

TEST(StaticVector, OutOfRangeIndexThrows) {
  StaticVector<int, 2> v{5};
  EXPECT_THROW(v[1], ContractViolation);
  v.pop_back();
  EXPECT_THROW(v.pop_back(), ContractViolation);
}

TEST(StaticVector, EqualityComparesContents) {
  StaticVector<int, 4> a{1, 2}, b{1, 2}, c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace flexrouter
