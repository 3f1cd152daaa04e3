// Measurement plumbing shared by the perfbench workloads: clocks,
// nearest-rank percentiles, an in-memory span recorder with self-time
// arithmetic, the metric report, process/disk probes and the answer oracle.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile: the ceil(q * N)-th smallest sample, so every
/// reported value is one that was observed. q in (0, 1]; 0 for no samples.
double NearestRank(std::vector<double> samples, double q);

/// One traced interval. Spans of one read share `query`; `parent` is the
/// index of the enclosing span in the recorder, or -1 for a root.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t query = 0;
};

/// Records spans in memory; nothing is written until the run ends. A
/// disabled recorder returns -1 from Begin and ignores End, so the untraced
/// run pays one branch per boundary. Used from the client thread only.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  int64_t Begin(const char* name, int64_t parent, uint64_t query);
  void End(int64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bool enabled_;
  std::vector<Span> spans_;
};

/// Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t parent, uint64_t query)
      : tracer_(tracer), id_(tracer.Begin(name, parent, query)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const int64_t id_;
};

/// Self time of each span: its duration minus the part of its interval that
/// the union of its children's intervals covers. Indexed like `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Writes one JSON object per span (name, start/end ns, parent, query,
/// self_ns). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// The metrics one run prints, in insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Human-readable "name = value unit" lines, then the one-line JSON result
  /// (the last line of standard output).
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// High-water resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Total size of the regular files under `dir`, in bytes.
uint64_t DirBytes(const std::string& dir);

/// The enumeration oracle for many fairness parameters at once: for each
/// (k, delta) key of `sizes`, the size of a maximum relative fair clique of
/// `g`. It is MaxFairCliqueByEnumeration's computation -- Bron-Kerbosch over
/// the maximal cliques, best fair subset of each -- with one enumeration
/// shared by every key; the self-test checks it against that function.
void OracleSizes(const fairclique::AttributedGraph& g,
                 std::map<std::pair<int, int>, size_t>* sizes);

/// Mixes two words into a well-spread seed (splitmix64 finalizer).
uint64_t MixSeed(uint64_t a, uint64_t b);

/// Checks the percentile and self-time arithmetic and OracleSizes against
/// MaxFairCliqueByEnumeration; returns 0 when they hold.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
