#ifndef FAIRCLIQUE_COMMON_PARALLEL_FOR_H_
#define FAIRCLIQUE_COMMON_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

namespace fairclique {

/// Somewhere to run the helper tasks of a ParallelFor: a thread pool, or
/// threads started for one call. Implementations must run every posted task
/// at most once each, on threads other than the poster's, and may run them
/// late -- after the ParallelFor that posted them has returned -- or never.
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  /// Threads that may run chunks of one ParallelFor, the caller included;
  /// at least 1. Kernels size their per-worker scratch by it.
  virtual int width() const = 0;

  /// Queues `count` runs of `task`.
  virtual void Post(int count, const std::function<void()>& task) = 0;
};

/// Threads a kernel may see as ParallelFor workers: runner->width(), or 1
/// for a null runner.
inline int ParallelWidth(const TaskRunner* runner) {
  return runner != nullptr ? runner->width() : 1;
}

/// A TaskRunner that starts one std::thread per posted task and joins them
/// all when it is destroyed. For library callers that have no pool but ask
/// for `width` threads: one ParallelFor on it starts width - 1 threads.
class ThreadRunner final : public TaskRunner {
 public:
  explicit ThreadRunner(int width) : width_(width < 1 ? 1 : width) {}
  ~ThreadRunner() override;

  ThreadRunner(const ThreadRunner&) = delete;
  ThreadRunner& operator=(const ThreadRunner&) = delete;

  int width() const override { return width_; }
  void Post(int count, const std::function<void()>& task) override;

 private:
  const int width_;
  std::vector<std::thread> threads_;
};

namespace parallel_internal {

/// A non-owning reference to a chunk body, so the inline path keeps the
/// caller's lambda type and the shared path needs no allocation.
struct ChunkRef {
  void* body;
  void (*call)(void* body, int worker, size_t begin, size_t end);
};

void RunShared(TaskRunner* runner, size_t n, size_t grain, ChunkRef chunk);

}  // namespace parallel_internal

/// Runs fn(worker, begin, end) over chunks of [0, n) that together cover
/// every index exactly once; `worker` is in [0, ParallelWidth(runner)), and
/// no two chunks run at once with the same worker, so per-worker scratch
/// indexed by it needs no locking. Returns after every chunk has run.
///
/// With a null runner, a width-1 runner, or n <= grain the whole range runs
/// inline as fn(0, 0, n). Otherwise the range is cut into chunks of `grain`
/// indices, min(width, chunks) - 1 helper tasks are posted to the runner,
/// and the helpers and the caller claim chunks from one atomic cursor. The
/// caller claims too, so a runner whose threads are all busy (or the
/// caller's own thread) degrades to the inline speed and cannot deadlock.
/// A helper that starts after the call returned finds no chunk left and
/// touches nothing of fn. The first exception a chunk throws is rethrown
/// here once every claimed chunk has finished; later chunks are skipped.
///
/// fn must write only state no other chunk writes, so the result does not
/// depend on the schedule. Cut ranges into small chunks (a few vertices)
/// when per-index work is skewed: claiming balances the load.
template <typename Fn>
void ParallelFor(TaskRunner* runner, size_t n, size_t grain, Fn&& fn) {
  if (grain == 0) grain = 1;
  if (ParallelWidth(runner) <= 1 || n <= grain) {
    if (n > 0) fn(0, size_t{0}, n);
    return;
  }
  using Body = std::remove_reference_t<Fn>;
  parallel_internal::ChunkRef chunk{
      const_cast<void*>(static_cast<const void*>(&fn)),
      [](void* body, int worker, size_t begin, size_t end) {
        (*static_cast<Body*>(body))(worker, begin, end);
      }};
  parallel_internal::RunShared(runner, n, grain, chunk);
}

}  // namespace fairclique

#endif  // FAIRCLIQUE_COMMON_PARALLEL_FOR_H_
