#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "support/arena.h"
#include "support/failpoint.h"
#include "support/function_ref.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/table.h"
#include "tensor/tensor.h"

namespace g2p {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntThrowsOnBadRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, UniformCoversUnitInterval) {
  Rng rng(11);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, NormalMeanAndVariance) {
  Rng rng(13);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng root(99);
  Rng a = root.fork("alpha");
  Rng b = root.fork("beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
  // Fork is a pure function of parent state + tag.
  Rng a2 = root.fork("alpha");
  EXPECT_EQ(a2.next_u64(), Rng(99).fork("alpha").next_u64());
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(5);
  const std::vector<double> w = {0.0, 10.0, 0.0, 1.0};
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 5000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_GT(counts[1], counts[3] * 5);
}

TEST(Rng, WeightedIndexThrowsOnAllZero) {
  Rng rng(5);
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(w), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.shuffle(v);
  EXPECT_EQ(std::set<int>(v.begin(), v.end()), std::set<int>(original.begin(), original.end()));
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, JoinAndReplace) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(replace_all("xAxAx", "A", "BB"), "xBBxBBx");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

TEST(Strings, StartsEndsContains) {
  EXPECT_TRUE(starts_with("pragma omp", "pragma"));
  EXPECT_FALSE(starts_with("pr", "pragma"));
  EXPECT_TRUE(ends_with("loop.c", ".c"));
  EXPECT_TRUE(contains("abcdef", "cde"));
  EXPECT_FALSE(contains("abc", "xyz"));
}

TEST(Strings, CountLoc) {
  EXPECT_EQ(count_loc("for (;;) {\n\n  x++;\n// comment\n}\n"), 3);
  EXPECT_EQ(count_loc(""), 0);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Name", "Value"});
  t.add_row({"alpha", "1.25"});
  t.add_row({"b", "100"});
  const auto s = t.render();
  EXPECT_NE(s.find("Name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("100"), std::string::npos);
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

// ---- arena ------------------------------------------------------------------

TEST(Arena, BumpAllocationAndAlignment) {
  Arena arena;
  auto* a = static_cast<char*>(arena.allocate(3, 1));
  auto* b = static_cast<double*>(arena.allocate(sizeof(double), alignof(double)));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);
  EXPECT_GE(arena.bytes_allocated(), 3 + sizeof(double));
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(Arena, LargeAllocationsSpanBlocks) {
  Arena arena;
  // Far beyond the first block: forces several block growths.
  for (int i = 0; i < 64; ++i) {
    auto* p = static_cast<char*>(arena.allocate(8 * 1024, 8));
    p[0] = 'x';
    p[8 * 1024 - 1] = 'y';  // ASan checks the span is really owned
  }
  EXPECT_GE(arena.bytes_allocated(), 64u * 8u * 1024u);
}

TEST(Arena, InternCopiesAndIsStable) {
  Arena arena;
  std::string transient = "hello arena";
  const std::string_view interned = arena.intern(transient);
  transient.assign(transient.size(), '!');
  EXPECT_EQ(interned, "hello arena");
  EXPECT_EQ(arena.intern(""), std::string_view{});
}

namespace {
struct DtorCounter {
  explicit DtorCounter(int* counter) : counter_(counter) {}
  ~DtorCounter() { ++*counter_; }
  int* counter_;
};
}  // namespace

TEST(Arena, RunsRegisteredDestructorsOnceInReverse) {
  int destroyed = 0;
  {
    Arena arena;
    for (int i = 0; i < 10; ++i) arena.create<DtorCounter>(&destroyed);
    arena.create<int>(7);  // trivially destructible: no registration
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 10);
}

TEST(Arena, MoveTransfersOwnership) {
  int destroyed = 0;
  {
    Arena first;
    first.create<DtorCounter>(&destroyed);
    const std::string_view text = first.intern("moved");
    Arena second(std::move(first));
    EXPECT_EQ(text, "moved");  // storage owned by `second` now
    Arena third;
    third = std::move(second);
    EXPECT_EQ(text, "moved");
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

// ---- tensor_pool ------------------------------------------------------------

TEST(TensorPool, HandsOut64ByteAlignedBlocks) {
  // pack_projection packs weight panels into a FloatVec that the AVX2
  // projection kernel reads with aligned loads — every size must come back
  // 64-byte aligned, fresh or reallocated.
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % tensor_pool::kAlignment == 0;
  };
  for (const std::size_t bytes : {4u, 100u, 1u << 12, 1u << 16, (1u << 16) + 4, 1u << 20}) {
    for (int round = 0; round < 2; ++round) {
      FloatVec f(bytes / sizeof(float) + 1);
      EXPECT_TRUE(aligned(f.data())) << bytes << " bytes round " << round;
    }
  }
}

// ---- hashing ----------------------------------------------------------------

TEST(Hash128, DistinctInputsDistinctHashes) {
  std::set<std::string> hexes;
  for (int i = 0; i < 200; ++i) hexes.insert(hash128("input-" + std::to_string(i)).hex());
  EXPECT_EQ(hexes.size(), 200u);
  EXPECT_EQ(hash128("same"), hash128("same"));
}

TEST(Hash128, SourceHashSkipsCarriageReturns) {
  EXPECT_EQ(hash_source("a\r\nb"), hash_source("a\nb"));
  EXPECT_NE(hash_source("a\nb"), hash_source("ab"));
  // But '\r' is the only normalization: whitespace still matters.
  EXPECT_NE(hash_source("a b"), hash_source("ab"));
  // Only the CRLF pair is folded: a lone CR (legal inside a string
  // literal) still distinguishes sources, so "printf(\"a\rb\")" and
  // "printf(\"ab\")" can never share a cache entry.
  EXPECT_NE(hash_source(std::string_view("a\rb", 3)), hash_source("ab"));
}

// ---- function_ref -----------------------------------------------------------

TEST(FunctionRefTest, InvokesWithoutAllocation) {
  int calls = 0;
  // Capture list far beyond std::function's small-buffer size.
  int a = 1, b = 2, c = 3, d = 4, e = 5;
  const auto big_lambda = [&](int x) { calls += x + a + b + c + d + e; };
  FunctionRef<void(int)> ref = big_lambda;
  ref(10);
  EXPECT_EQ(calls, 25);
}

// ---- failpoint spec parsing and semantics (support/failpoint.h) -------------

/// Each test disarms on exit so an armed schedule never leaks across tests.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::disarm(); }
};

TEST(Failpoint, DisarmedByDefaultAndCheapToProbe) {
  EXPECT_FALSE(failpoint::armed());
  EXPECT_FALSE(failpoint::triggered("frontend.parse"));
  EXPECT_TRUE(failpoint::active_spec().empty());
}

TEST(Failpoint, ErrorActionFiresDeterministically) {
  FailpointGuard guard;
  failpoint::configure("mysite=error@1");
  EXPECT_TRUE(failpoint::armed());
  EXPECT_TRUE(failpoint::triggered("mysite"));
  EXPECT_FALSE(failpoint::triggered("othersite"));
  const auto counters = failpoint::counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].site, "mysite");
  EXPECT_EQ(counters[0].hits, 1u);
  EXPECT_EQ(counters[0].injected, 1u);
}

TEST(Failpoint, ThrowActionRaisesTypedError) {
  FailpointGuard guard;
  failpoint::configure("mysite=throw");
  try {
    (void)failpoint::triggered("mysite");
    FAIL() << "expected FailpointError";
  } catch (const failpoint::FailpointError& e) {
    EXPECT_EQ(e.site(), "mysite");
  }
}

TEST(TensorPool, AcquireFailpointThrowsTypedError) {
  // `pool.acquire` is the tensor-buffer allocation seam: an injected fault
  // surfaces as FailpointError from the container's constructor.
  FailpointGuard guard;
  failpoint::configure("pool.acquire=throw");
  EXPECT_THROW(FloatVec(16), failpoint::FailpointError);
  failpoint::disarm();
  FloatVec v(16, 1.0f);
  EXPECT_EQ(v.size(), 16u);
  EXPECT_EQ(v[15], 1.0f);
}

TEST(Failpoint, ProbabilityZeroNeverInjects) {
  FailpointGuard guard;
  failpoint::configure("mysite=error@0");
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(failpoint::triggered("mysite"));
  const auto counters = failpoint::counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].hits, 100u);
  EXPECT_EQ(counters[0].injected, 0u);
}

TEST(Failpoint, SeededDecisionsAreReproducible) {
  FailpointGuard guard;
  // Same site, same seed: the k-th hit decides identically across arms.
  std::vector<bool> first, second;
  failpoint::configure("mysite=error@0.5,97");
  for (int i = 0; i < 64; ++i) first.push_back(failpoint::triggered("mysite"));
  failpoint::configure("mysite=error@0.5,97");  // fresh schedule, hits reset
  for (int i = 0; i < 64; ++i) second.push_back(failpoint::triggered("mysite"));
  EXPECT_EQ(first, second);
  EXPECT_GT(std::count(first.begin(), first.end(), true), 0);
  EXPECT_GT(std::count(first.begin(), first.end(), false), 0);
}

TEST(Failpoint, SpecParsesMultipleSitesLastWins) {
  FailpointGuard guard;
  failpoint::configure("a=error; b=delay(5)@0.25,9 ;a=throw@0.5");
  const std::string spec = failpoint::active_spec();
  // Normalized form: last spec for 'a' won, every field explicit.
  EXPECT_NE(spec.find("a=throw@0.5"), std::string::npos);
  EXPECT_NE(spec.find("b=delay(5)@0.25,9"), std::string::npos);
  EXPECT_EQ(spec.find("a=error"), std::string::npos);
}

TEST(Failpoint, MalformedSpecsThrowAndLeaveScheduleIntact) {
  FailpointGuard guard;
  failpoint::configure("good=error");
  EXPECT_THROW(failpoint::configure("nosuchaction=banana"), std::invalid_argument);
  EXPECT_THROW(failpoint::configure("=error"), std::invalid_argument);
  EXPECT_THROW(failpoint::configure("x=error@2"), std::invalid_argument);
  EXPECT_THROW(failpoint::configure("x=delay(-1)"), std::invalid_argument);
  // A rejected spec never clobbers the active schedule.
  EXPECT_TRUE(failpoint::triggered("good"));
}

TEST(Failpoint, DisarmRestoresTheCheapPath) {
  failpoint::configure("mysite=error");
  EXPECT_TRUE(failpoint::armed());
  failpoint::disarm();
  EXPECT_FALSE(failpoint::armed());
  EXPECT_FALSE(failpoint::triggered("mysite"));
  EXPECT_TRUE(failpoint::active_spec().empty());
}

}  // namespace
}  // namespace g2p
