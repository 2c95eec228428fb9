// Tests for util:: (RNG, Table, Stopwatch, parallel_for).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/worker_pool.h"

namespace amdgcnn::util {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(5), b(5), c(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  bool differs = false;
  Rng a2(5);
  for (int i = 0; i < 100; ++i) differs = differs || a2.next_u64() != c.next_u64();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  double mn = 1.0, mx = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
  }
  EXPECT_GE(mn, 0.0);
  EXPECT_LT(mx, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(2);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(7ULL)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 70);
  EXPECT_THROW(rng.uniform_int(0ULL), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(4);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliRate) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(6);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0], 2000, 300);
  EXPECT_NEAR(counts[1], 6000, 500);
  EXPECT_NEAR(counts[3], 12000, 600);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(7);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(8);
  for (std::size_t k : {std::size_t{3}, std::size_t{50}, std::size_t{99}}) {
    auto s = rng.sample_without_replacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (auto x : s) EXPECT_LT(x, 100u);
  }
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(9);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ = differ || c1.next_u64() != c2.next_u64();
  EXPECT_TRUE(differ);
}

TEST(Table, FormatsAlignedAndCsv) {
  Table t({"name", "auc"});
  t.add_row({"AM-DGCNN", Table::fmt(0.98765, 2)});
  t.add_row({"Vanilla", "0.75"});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("AM-DGCNN"), std::string::npos);
  EXPECT_NE(text.str().find("0.99"), std::string::npos);  // rounded
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,auc\nAM-DGCNN,0.99\nVanilla,0.75\n");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a"});
  t.add_row({"x,y"});
  t.add_row({"quote\"inside"});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "a\n\"x,y\"\n\"quote\"\"inside\"\n");
}

TEST(Table, RejectsBadRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  const double t0 = w.seconds();
  EXPECT_GE(t0, 0.0);
  double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<double>(i);
  ASSERT_GT(sink, 0.0);  // keep the loop observable
  EXPECT_GE(w.seconds(), t0);
  EXPECT_NEAR(w.millis(), w.seconds() * 1000.0, w.seconds() * 100.0 + 1.0);
}

// ---- parallel_for: fallback paths and the thread cap ----------------------

/// Threads of this process that are running or runnable: state 'R' in
/// /proc/self/task/*/stat (Linux).
int running_threads() {
  int running = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream stat(task.path() / "stat");
    std::string line;
    std::getline(stat, line);
    const auto close = line.rfind(')');  // "pid (comm) state ..."
    if (close != std::string::npos && close + 2 < line.size() &&
        line[close + 2] == 'R')
      ++running;
  }
  return running;
}

TEST(ParallelFor, ConcurrentCallerRunsInlineWithTheSameContract) {
  // Caller A's item 0 runs caller B to completion, so B always meets a pool
  // held by A (on a 1-CPU host both run inline anyway).
  constexpr std::int64_t n = 64;
  const auto fails = [](std::int64_t i) { return i == 13 || i == 50; };
  std::vector<std::atomic<int>> runs_a(n), runs_b(n);
  std::vector<std::thread::id> ids_b(n);
  std::thread::id b_id;
  std::int64_t a_item = -1, b_item = -1;
  const auto run_b = [&] {
    b_id = std::this_thread::get_id();
    parallel_for("test.b", n, 0, [&](std::int64_t i) {
      ++runs_b[i];
      ids_b[i] = std::this_thread::get_id();
    });
    try {
      parallel_for("test.b", n, 0, [&](std::int64_t i) {
        if (fails(i)) throw std::runtime_error("bad item");
      });
    } catch (const WorkerError& e) {
      b_item = e.item();
    }
  };
  try {
    parallel_for("test.a", n, 0, [&](std::int64_t i) {
      if (i == 0) std::thread(run_b).join();
      ++runs_a[i];
      if (fails(i)) throw std::runtime_error("bad item");
    });
  } catch (const WorkerError& e) {
    a_item = e.item();
  }
  EXPECT_EQ(a_item, 13);
  EXPECT_EQ(b_item, 13);
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(runs_b[i].load(), 1) << i;
    EXPECT_EQ(ids_b[i], b_id) << i;  // B ran inline on its own thread
    EXPECT_LE(runs_a[i].load(), 1) << i;
    if (i <= 13) {
      EXPECT_EQ(runs_a[i].load(), 1) << i;
    }
  }
}

TEST(ParallelFor, NestedLoopRunsInlineOnTheOuterItemsThread) {
  constexpr std::int64_t outer = 8, inner = 16;
  std::vector<std::atomic<int>> runs(outer * inner);
  std::vector<std::thread::id> outer_ids(outer), inner_ids(outer * inner);
  parallel_for("test.outer", outer, 0, [&](std::int64_t o) {
    outer_ids[o] = std::this_thread::get_id();
    parallel_for("test.inner", inner, 0, [&](std::int64_t i) {
      ++runs[o * inner + i];
      inner_ids[o * inner + i] = std::this_thread::get_id();
    });
  });
  for (std::int64_t k = 0; k < outer * inner; ++k) {
    EXPECT_EQ(runs[k].load(), 1) << k;
    EXPECT_EQ(inner_ids[k], outer_ids[k / inner]) << k;
  }

  // An inner failure surfaces as the outer WorkerError of the lowest failing
  // outer item, with the inner WorkerError nested.
  std::int64_t outer_item = -1, inner_item = -1;
  try {
    parallel_for("test.outer", outer, 0, [&](std::int64_t o) {
      parallel_for("test.inner", inner, 0, [&](std::int64_t i) {
        if (o >= 3 && i >= 5) throw std::runtime_error("bad item");
      });
    });
  } catch (const WorkerError& e) {
    outer_item = e.item();
    try {
      std::rethrow_if_nested(e);
    } catch (const WorkerError& nested) {
      inner_item = nested.item();
    }
  }
  EXPECT_EQ(outer_item, 3);
  EXPECT_EQ(inner_item, 5);
}

TEST(ParallelFor, AtMostNumThreadsClaimItemsOrRun) {
  for (const int k : {1, 2}) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallel_for("test.cap", 256, k, [&](std::int64_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      const std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_LE(ids.size(), static_cast<std::size_t>(k));
    if (k == 1) {
      EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
    }
  }

  // Back-to-back loops capped at 2 threads, sampled midway through: the
  // other thread taking part still sleeps in its longer item and the pool
  // workers left out are parked, so only the sampling thread runs.  A
  // left-out worker that polled for the next loop would show as running in
  // every sample.
  int fewest = INT_MAX;
  for (int r = 0; r < 20; ++r)
    parallel_for("test.cap", 2, 2, [&](std::int64_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 1 : 3));
      if (i == 0) fewest = std::min(fewest, running_threads());
    });
  EXPECT_EQ(fewest, 1);
}

}  // namespace
}  // namespace amdgcnn::util
