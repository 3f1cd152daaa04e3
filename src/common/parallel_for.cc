#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace fairclique {

ThreadRunner::~ThreadRunner() {
  for (std::thread& t : threads_) t.join();
}

void ThreadRunner::Post(int count, const std::function<void()>& task) {
  for (int i = 0; i < count; ++i) threads_.emplace_back(task);
}

namespace parallel_internal {

namespace {

// One ParallelFor call's shared state. Helpers hold it by shared_ptr, so a
// helper that starts late still reads a live cursor; `chunk` is only called
// for a claimed chunk, and the caller does not return before every claimed
// chunk is done.
struct Region {
  Region(size_t n_in, size_t grain_in, ChunkRef chunk_in)
      : n(n_in),
        grain(grain_in),
        chunks((n_in + grain_in - 1) / grain_in),
        chunk(chunk_in) {}

  const size_t n;
  const size_t grain;
  const size_t chunks;
  const ChunkRef chunk;
  std::atomic<size_t> next{0};         // next unclaimed chunk
  std::atomic<size_t> done{0};         // chunks finished (or skipped)
  std::atomic<int> helper_ids{0};      // hands out worker ids 1, 2, ...
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // set once, by the chunk that set `failed`
};

void ClaimChunks(Region& r, int worker) {
  for (size_t c = r.next.fetch_add(1, std::memory_order_relaxed);
       c < r.chunks; c = r.next.fetch_add(1, std::memory_order_relaxed)) {
    if (!r.failed.load(std::memory_order_relaxed)) {
      try {
        r.chunk.call(r.chunk.body, worker, c * r.grain,
                     std::min(r.n, (c + 1) * r.grain));
      } catch (...) {
        if (!r.failed.exchange(true, std::memory_order_relaxed)) {
          r.error = std::current_exception();
        }
      }
    }
    // Release: the caller's acquire of the final count sees this chunk's
    // writes (and `error`).
    if (r.done.fetch_add(1, std::memory_order_acq_rel) + 1 == r.chunks) {
      r.done.notify_all();
    }
  }
}

}  // namespace

void RunShared(TaskRunner* runner, size_t n, size_t grain, ChunkRef chunk) {
  auto region = std::make_shared<Region>(n, grain, chunk);
  const size_t helpers =
      std::min(static_cast<size_t>(runner->width()), region->chunks) - 1;
  try {
    runner->Post(static_cast<int>(helpers), [region] {
      ClaimChunks(*region, 1 + region->helper_ids.fetch_add(
                                   1, std::memory_order_relaxed));
    });
  } catch (...) {
    // Helpers are an optimisation: when none (or only some) could be
    // posted, the caller claims the remaining chunks itself.
  }
  ClaimChunks(*region, 0);
  for (size_t d = region->done.load(std::memory_order_acquire);
       d != region->chunks; d = region->done.load(std::memory_order_acquire)) {
    region->done.wait(d, std::memory_order_acquire);
  }
  if (region->error) std::rethrow_exception(region->error);
}

}  // namespace parallel_internal

}  // namespace fairclique
