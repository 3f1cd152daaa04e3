#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "datasets/datasets.h"
#include "graph/coloring.h"
#include "reduction/colorful_core.h"
#include "reduction/colorful_support.h"
#include "reduction/reduce.h"
#include "service/query_executor.h"

namespace fairclique {
namespace {

// Keeps posted tasks until the test runs them: after the ParallelFor that
// posted them has returned (late helpers), or never (a pool whose workers
// are all busy).
class DeferredRunner final : public TaskRunner {
 public:
  explicit DeferredRunner(int width) : width_(width) {}
  int width() const override { return width_; }
  void Post(int count, const std::function<void()>& task) override {
    for (int i = 0; i < count; ++i) tasks_.push_back(task);
  }
  // Runs every kept task on another thread and forgets it.
  void RunLate() {
    std::thread runner([this] {
      for (std::function<void()>& task : tasks_) task();
    });
    runner.join();
    tasks_.clear();
  }
  size_t posted() const { return tasks_.size(); }

 private:
  const int width_;
  std::vector<std::function<void()>> tasks_;
};

// Runs ParallelFor over [0, n) and checks that every index is covered
// exactly once, by chunks of at most `grain` indices (one chunk when the
// call runs inline) with worker ids below the runner's width.
void ExpectEachIndexOnce(TaskRunner* runner, size_t n, size_t grain) {
  std::vector<std::atomic<int>> hits(n);
  std::atomic<bool> bad_chunk{false};
  const int width = ParallelWidth(runner);
  ParallelFor(runner, n, grain, [&](int worker, size_t begin, size_t end) {
    if (worker < 0 || worker >= width || begin >= end || end > n) {
      bad_chunk = true;
      return;
    }
    if (end - begin > grain && !(begin == 0 && end == n)) bad_chunk = true;
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  EXPECT_FALSE(bad_chunk) << "n=" << n << " grain=" << grain;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of n=" << n;
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kGrain = 8;
  QueryExecutor pool(ExecutorOptions{4, 8});
  ThreadRunner threads(4);
  for (TaskRunner* runner : {static_cast<TaskRunner*>(nullptr),
                             pool.runner(),
                             static_cast<TaskRunner*>(&threads)}) {
    for (size_t n : {size_t{0}, size_t{1}, kGrain - 1, kGrain, kGrain + 1,
                     size_t{100003}}) {
      ExpectEachIndexOnce(runner, n, kGrain);
    }
  }
}

TEST(ParallelForTest, NullRunnerRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(nullptr, 1000, 8, [&](int worker, size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1000u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, OneWorkerExecutorWhoseWorkerIsTheCaller) {
  QueryExecutor pool(ExecutorOptions{1, 8});
  ASSERT_EQ(pool.runner()->width(), 1);
  std::promise<size_t> covered;
  std::future<size_t> result = covered.get_future();
  // The pool's only worker runs the ParallelFor, so no helper can start
  // until it returns.
  pool.runner()->Post(1, [&] {
    std::vector<uint8_t> seen(5000, 0);
    ParallelFor(pool.runner(), seen.size(), 8,
                [&](int, size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) seen[i]++;
                });
    size_t once = 0;
    for (uint8_t s : seen) once += s == 1;
    covered.set_value(once);
  });
  EXPECT_EQ(result.get(), 5000u);
}

TEST(ParallelForTest, CallerRunsEveryChunkWhenNoHelperStarts) {
  DeferredRunner never(4);
  ExpectEachIndexOnce(&never, 1000, 8);
  EXPECT_EQ(never.posted(), 3u);
}

TEST(ParallelForTest, LateHelperTouchesNothing) {
  DeferredRunner late(4);
  {
    // Heap state the body writes: ASan reports any late touch of it.
    auto out = std::make_unique<std::vector<int>>(512, 0);
    ParallelFor(&late, out->size(), 8, [&](int, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) (*out)[i] = static_cast<int>(i);
    });
    for (size_t i = 0; i < out->size(); ++i) {
      ASSERT_EQ((*out)[i], static_cast<int>(i));
    }
  }
  ASSERT_EQ(late.posted(), 3u);
  late.RunLate();
}

TEST(ParallelForTest, LateHelpersOnABusyPoolTouchNothing) {
  // Both workers are held until the ParallelFor has returned, so its helper
  // runs late, on a pool thread.
  QueryExecutor pool(ExecutorOptions{2, 8});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> held{0};
  pool.runner()->Post(2, [open, &held] {
    held.fetch_add(1);
    open.wait();
  });
  while (held.load() < 2) std::this_thread::yield();
  {
    auto out = std::make_unique<std::vector<int>>(512, 0);
    ParallelFor(pool.runner(), out->size(), 8,
                [&](int, size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) (*out)[i] = 1;
                });
    int sum = 0;
    for (int x : *out) sum += x;
    EXPECT_EQ(sum, 512);
  }
  gate.set_value();
  pool.Shutdown();  // the workers drain the late helper before exiting
}

TEST(ParallelForTest, FirstExceptionIsRethrownAfterEveryChunk) {
  ThreadRunner threads(4);
  std::atomic<int> running{0};
  EXPECT_THROW(
      ParallelFor(&threads, 4000, 8,
                  [&](int, size_t begin, size_t) {
                    running.fetch_add(1);
                    if (begin == 800) {
                      running.fetch_sub(1);
                      throw std::runtime_error("chunk failed");
                    }
                    running.fetch_sub(1);
                  }),
      std::runtime_error);
  // No chunk is still running once the call has returned.
  EXPECT_EQ(running.load(), 0);
}

// Every parallelised reduction kernel gives bit-identical output on runners
// of width 1, 2 and 4 and on a 4-worker pool, against the inline run.
class ParallelKernelsTest : public ::testing::TestWithParam<std::string> {};

void ExpectKernelsMatchInline(const AttributedGraph& g, int k,
                              const std::string& what) {
  const Coloring c = GreedyColoring(g);
  const std::vector<VertexId> rows = KeyOrderedNeighbors(g, c);
  const std::vector<AttrCounts> sup = ComputeColorfulSupports(g, c);
  const VertexReductionResult core = EnColorfulCore(g, c, k - 1);
  const EdgeReductionResult cs = ColorfulSupReduction(g, c, k);
  const EdgeReductionResult ecs = EnColorfulSupReduction(g, c, k);
  const ReductionPipelineResult pipeline = ReduceForFairClique(g, k, {});

  QueryExecutor pool(ExecutorOptions{4, 8});
  for (int width : {1, 2, 4, 0}) {
    // A fresh ThreadRunner per call: each one joins its threads when it
    // goes out of scope. Width 0 stands for the executor's pool.
    auto run = [&](auto&& kernel) {
      if (width == 0) return kernel(pool.runner());
      ThreadRunner threads(width);
      return kernel(&threads);
    };
    const std::string label =
        what + " k=" + std::to_string(k) +
        (width == 0 ? " pool" : " width=" + std::to_string(width));
    EXPECT_EQ(run([&](TaskRunner* r) { return KeyOrderedNeighbors(g, c, r); }),
              rows)
        << label;
    const std::vector<AttrCounts> par_sup =
        run([&](TaskRunner* r) { return ComputeColorfulSupports(g, c, r); });
    ASSERT_EQ(par_sup.size(), sup.size()) << label;
    EXPECT_TRUE(std::equal(sup.begin(), sup.end(), par_sup.begin()))
        << label << ": supports differ";
    EXPECT_EQ(run([&](TaskRunner* r) {
                return EnColorfulCore(g, c, k - 1, r).alive;
              }),
              core.alive)
        << label;
    const EdgeReductionResult par_cs =
        run([&](TaskRunner* r) { return ColorfulSupReduction(g, c, k, r); });
    EXPECT_EQ(par_cs.edge_alive, cs.edge_alive) << label;
    EXPECT_EQ(par_cs.vertex_alive, cs.vertex_alive) << label;
    const EdgeReductionResult par_ecs =
        run([&](TaskRunner* r) { return EnColorfulSupReduction(g, c, k, r); });
    EXPECT_EQ(par_ecs.edge_alive, ecs.edge_alive) << label;
    EXPECT_EQ(par_ecs.vertex_alive, ecs.vertex_alive) << label;
    const ReductionPipelineResult par_pipeline =
        run([&](TaskRunner* r) { return ReduceForFairClique(g, k, {}, r); });
    EXPECT_EQ(par_pipeline.original_ids, pipeline.original_ids) << label;
    EXPECT_TRUE(std::equal(pipeline.reduced.edges().begin(),
                           pipeline.reduced.edges().end(),
                           par_pipeline.reduced.edges().begin(),
                           par_pipeline.reduced.edges().end(),
                           [](const Edge& a, const Edge& b) {
                             return a.u == b.u && a.v == b.v;
                           }))
        << label << ": reduced graphs differ";
  }
}

TEST_P(ParallelKernelsTest, MatchInlineOnStandIn) {
  const DatasetSpec spec = DatasetByName(GetParam());
  const AttributedGraph raw = LoadDataset(spec.name);
  ExpectKernelsMatchInline(raw, spec.default_k, spec.name);
}

INSTANTIATE_TEST_SUITE_P(ParallelKernelsOnStandIns, ParallelKernelsTest,
                         ::testing::Values("themarker-s", "google-s", "dblp-s",
                                           "flixster-s", "pokec-s",
                                           "aminer-s"));

TEST(ParallelKernelsTest, MatchInlineOnPokecX4Core) {
  // The graph the screen sees in a cold pokec-s x4 read: its EnColorfulCore
  // output, where the first vertices carry most of the work.
  const AttributedGraph raw = LoadDataset("pokec-s", 4.0);
  for (int k : {4, 6}) {
    const VertexReductionResult core =
        EnColorfulCore(raw, GreedyColoring(raw), k - 1);
    const AttributedGraph cored = raw.FilteredSubgraph(core.alive, {});
    ExpectKernelsMatchInline(cored, k, "pokec-s x4 core");
  }
}

}  // namespace
}  // namespace fairclique
