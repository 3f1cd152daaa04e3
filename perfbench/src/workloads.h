#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunArgs {
  std::string workload;  // cold-reduce | branch-sweep | serve-mixed
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the data dir and the span file; created fresh.
  std::string work_dir;
};

/// True when `name` is one of the workloads RunWorkload accepts.
bool KnownWorkload(const std::string& name);

/// Sets up, measures and checks one workload, printing the metric lines and
/// the one-line JSON result. Returns the process exit code: 0 when every
/// answer was verified and every acknowledged write recovered.
int RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
