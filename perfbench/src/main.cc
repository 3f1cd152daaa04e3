// perfbench: the repository benchmark. Drives the fairclique library
// in-process through the objects fairclique_server wires up and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
//
//   perfbench --workload cold-reduce|branch-sweep|serve-mixed --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//   perfbench --self-test
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/build_info.h"
#include "harness.h"
#include "workloads.h"

extern char** environ;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n"
               "       perfbench --self-test\n");
  return 2;
}

/// Timing is refused when any FAIRCLIQUE_* variable could change what the
/// library does, or when the library is not an optimized build.
bool ProvenanceOk() {
  bool ok = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "FAIRCLIQUE_", 11) == 0) {
      std::fprintf(stderr, "refusing to time: %s is set\n", *env);
      ok = false;
    }
  }
  if (std::strcmp(fairclique::BuildType(), "Release") != 0) {
    std::fprintf(stderr, "refusing to time: build type is %s, not Release\n",
                 fairclique::BuildType());
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return perfbench::RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value);
    } else if (arg == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (arg == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!perfbench::KnownWorkload(args.workload) || !have_seed ||
      args.seconds <= 0 || args.work_dir.empty()) {
    return Usage();
  }
  if (!ProvenanceOk()) return 3;
  return perfbench::RunWorkload(args);
}
