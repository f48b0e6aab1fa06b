#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/kernel_exec.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/vec3.hpp"

namespace dsmcpic {
namespace {

TEST(Error, CheckThrowsWithContext) {
  EXPECT_NO_THROW(DSMCPIC_CHECK(1 + 1 == 2));
  try {
    DSMCPIC_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("support_test.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123, 7), b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(123, 0), b(123, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(42);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng r(7);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[r.uniform_index(10)];
  for (int h : hits) EXPECT_GT(h, 800);  // ~1000 each
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(99);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, DeriveStreamSeedDiffers) {
  EXPECT_NE(derive_stream_seed(1, 0), derive_stream_seed(1, 1));
  EXPECT_NE(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
}

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_EQ(cross(Vec3(1, 0, 0), Vec3(0, 1, 0)), Vec3(0, 0, 1));
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
  EXPECT_NEAR(Vec3(3, 4, 0).normalized().norm(), 1.0, 1e-15);
}

TEST(Vec3, TripleProductIsSignedVolume) {
  EXPECT_DOUBLE_EQ(triple({1, 0, 0}, {0, 1, 0}, {0, 0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(triple({0, 1, 0}, {1, 0, 0}, {0, 0, 1}), -1.0);
}

TEST(Cli, ParsesTypesAndDefaults) {
  Cli cli("test");
  const auto* s = cli.add_string("name", "def", "a string");
  const auto* i = cli.add_int("count", 3, "an int");
  const auto* d = cli.add_double("ratio", 0.5, "a double");
  const auto* f = cli.add_flag("verbose", false, "a flag");
  const char* argv[] = {"prog", "--name", "abc", "--count=7", "--verbose",
                        "pos1"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(*s, "abc");
  EXPECT_EQ(*i, 7);
  EXPECT_DOUBLE_EQ(*d, 0.5);
  EXPECT_TRUE(*f);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, RejectsUnknownAndMalformed) {
  Cli cli("test");
  cli.add_int("n", 1, "");
  const char* bad1[] = {"prog", "--unknown", "3"};
  EXPECT_THROW(cli.parse(3, bad1), Error);
  Cli cli2("test");
  cli2.add_int("n", 1, "");
  const char* bad2[] = {"prog", "--n", "xyz"};
  EXPECT_THROW(cli2.parse(3, bad2), Error);
}

// Mistyped single-dash flags used to fall through as positionals and were
// silently ignored; they must error now. "-h" and negative numbers keep
// their meaning.
TEST(Cli, SingleDashTokensAreErrorsNotPositionals) {
  Cli cli("test");
  cli.add_int("steps", 1, "");
  const char* bad[] = {"prog", "-steps", "3"};
  EXPECT_THROW(cli.parse(3, bad), Error);

  Cli cli2("test");
  cli2.add_int("steps", 1, "");
  const char* neg[] = {"prog", "-3", "-.5", "-"};
  ASSERT_TRUE(cli2.parse(4, neg));
  ASSERT_EQ(cli2.positional().size(), 3u);
  EXPECT_EQ(cli2.positional()[0], "-3");
  EXPECT_EQ(cli2.positional()[1], "-.5");
  EXPECT_EQ(cli2.positional()[2], "-");

  Cli cli3("test");
  const char* help[] = {"prog", "-h"};
  EXPECT_FALSE(cli3.parse(2, help));
}

TEST(Table, AlignsColumns) {
  Table t("demo");
  t.header({"a", "bbbb"});
  t.row({"xxxx", "y"});
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("xxxx"), std::string::npos);
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
  EXPECT_EQ(Table::pct(0.373), "+37.3%");
}

TEST(Stats, BasicMoments) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_NEAR(stddev(v), std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(relative_stddev(v), std::sqrt(2.5) / 3.0, 1e-12);
}

TEST(Stats, MeanRelativeErrorSkipsNearZeroReference) {
  const std::vector<double> a{1.1, 2.2, 5.0};
  const std::vector<double> b{1.0, 2.0, 0.0};
  EXPECT_NEAR(mean_relative_error(a, b), 0.1, 1e-12);  // third pair skipped
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  for (const int n : {0, 1, 3, 17, 256}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossCalls) {
  support::ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round)
    pool.parallel_for(10, [&](int i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 50 * 45);
}

TEST(ThreadPool, PropagatesFirstException) {
  support::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   8,
                   [](int i) {
                     if (i == 5) throw Error("boom");
                   }),
               Error);
  // The pool must stay usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  support::ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

// Dispatch rule 1: a nested parallel_for on the SAME pool runs inline
// instead of deadlocking on the batch mutex.
TEST(ThreadPool, NestedCallRunsInline) {
  support::ThreadPool pool(3);
  std::atomic<int> inner{0};
  pool.parallel_for(6, [&](int) {
    pool.parallel_for(5, [&](int) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 30);
}

// Dispatch rule 2: concurrent external callers serialize their batches —
// here bodies running on one pool all fan out onto a second pool.
TEST(ThreadPool, ConcurrentExternalBatchesSerialize) {
  support::ThreadPool ranks(4);
  support::ThreadPool kernels(2);
  std::atomic<long> total{0};
  ranks.parallel_for(8, [&](int) {
    kernels.parallel_for(10, [&](int i) { total.fetch_add(i); });
  });
  EXPECT_EQ(total.load(), 8 * 45);
}

TEST(KernelExec, SerialExecutorRunsOneChunkInline) {
  const support::KernelExec exec;
  EXPECT_TRUE(exec.serial());
  EXPECT_EQ(exec.num_chunks(1000), 1);
  int calls = 0;
  std::int64_t begin = -1, end = -1;
  exec.for_chunks(17, [&](int c, std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(c, 0);
    begin = b;
    end = e;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(begin, 0);
  EXPECT_EQ(end, 17);
}

TEST(KernelExec, ChunksExactlyCoverTheRange) {
  support::ThreadPool pool(4);
  const support::KernelExec exec(&pool);
  EXPECT_FALSE(exec.serial());
  for (const std::int64_t n : {2LL, 7LL, 64LL, 1000LL}) {
    const int nc = exec.num_chunks(n);
    EXPECT_GE(nc, 2);
    EXPECT_LE(nc, 64);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    exec.for_chunks(n, [&](int c, std::int64_t b, std::int64_t e) {
      EXPECT_EQ(b, support::KernelExec::chunk_begin(n, nc, c));
      EXPECT_EQ(e, support::KernelExec::chunk_begin(n, nc, c + 1));
      for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

// A kernel called from inside one of the pool's batches (a rank body under
// rank dispatch) runs its one-chunk inline path on that lane; the same
// view chunks across the pool when called from outside.
TEST(KernelExec, InsideThePoolsBatchRunsOneChunkInline) {
  support::ThreadPool pool(4);
  const support::KernelExec exec(&pool);
  EXPECT_EQ(exec.threads(), 4);
  EXPECT_GT(exec.num_chunks(1000), 1);
  std::atomic<int> chunks{0}, inline_chunks{0};
  pool.parallel_for(8, [&](int) {
    EXPECT_TRUE(exec.serial());
    EXPECT_EQ(exec.num_chunks(1000), 1);
    const std::thread::id body = std::this_thread::get_id();
    exec.for_chunks(1000, [&](int c, std::int64_t b, std::int64_t e) {
      chunks.fetch_add(1);
      if (c == 0 && b == 0 && e == 1000 &&
          std::this_thread::get_id() == body)
        inline_chunks.fetch_add(1);
    });
  });
  EXPECT_EQ(chunks.load(), 8);
  EXPECT_EQ(inline_chunks.load(), 8);
  support::ThreadPool one_lane(1);
  EXPECT_TRUE(support::KernelExec(&one_lane).serial());
}

// Length prefixes are checked against the bytes left in the stream before
// anything is allocated: a corrupt one is a dsmcpic::Error.
TEST(Serialize, LengthPrefixBoundedByBytesLeft) {
  const auto stream_with = [](std::uint64_t n, std::size_t payload) {
    std::stringstream ss;
    io::Writer w(ss);
    w(n);
    ss << std::string(payload, 'x');
    return ss;
  };
  // Reads one field of type T from `ss`.
  const auto read = []<class T>(std::stringstream& ss, T& field) {
    io::Reader r(ss);
    r(field);
  };
  std::string s;
  std::vector<std::uint64_t> u64s;
  std::vector<double> doubles;
  {
    std::stringstream ss = stream_with(3, 3);
    read(ss, s);
    EXPECT_EQ(s, "xxx");
  }
  {
    std::stringstream ss = stream_with(2, 16);
    read(ss, u64s);
    EXPECT_EQ(u64s.size(), 2u);
  }
  {
    std::stringstream ss = stream_with(3, 16);  // 24 bytes wanted, 16 left
    EXPECT_THROW(read(ss, u64s), Error);
  }
  {
    std::stringstream ss = stream_with(std::uint64_t{1} << 56, 8);
    EXPECT_THROW(read(ss, s), Error);
  }
  {
    std::stringstream ss =
        stream_with(std::numeric_limits<std::uint64_t>::max() / 2, 8);
    EXPECT_THROW(read(ss, doubles), Error);  // size overflows
  }
}

}  // namespace
}  // namespace dsmcpic
