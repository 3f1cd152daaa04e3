#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "datasets/datasets.h"
#include "core/enumeration.h"

namespace perfbench {

using fairclique::AttributedGraph;
using fairclique::VertexId;

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  if (rank > 0) --rank;
  return samples[std::min(rank, samples.size() - 1)];
}

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t query) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, NowNs(), 0, parent, query});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (auto [start, end] : kids) {
      start = std::max(start, lo);
      end = std::min(end, hi);
      if (end <= start) continue;
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%" PRId64
                 ",\"query\":%" PRIu64 ",\"self_ns\":%" PRId64 "}\n",
                 i, s.name, s.start_ns, s.end_ns, s.parent, s.query, self[i]);
  }
  return std::fclose(f) == 0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const Metric& m : metrics_) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void OracleSizes(const AttributedGraph& g,
                 std::map<std::pair<int, int>, size_t>* sizes) {
  for (auto& entry : *sizes) entry.second = 0;
  fairclique::EnumerateMaximalCliques(g, [&](const std::vector<VertexId>& m) {
    fairclique::AttrCounts counts;
    for (VertexId v : m) counts[g.attribute(v)]++;
    for (auto& [kd, size] : *sizes) {
      const fairclique::FairnessParams params{kd.first, kd.second};
      size = std::max(size, static_cast<size_t>(std::max<int64_t>(
                                params.BestFairSubsetSize(counts), 0)));
    }
  });
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int RunSelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test failed: %s\n", what);
      ++failures;
    }
  };

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(NearestRank(hundred, 0.50) == 50, "p50 of 1..100 is 50");
  expect(NearestRank(hundred, 0.95) == 95, "p95 of 1..100 is 95");
  expect(NearestRank(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  expect(NearestRank(hundred, 1.0) == 100, "p100 of 1..100 is 100");
  expect(NearestRank({7}, 0.99) == 7, "any percentile of one sample");
  expect(NearestRank({}, 0.5) == 0, "no samples gives 0");
  expect(NearestRank({1, 2, 3, 4}, 0.5) == 2, "p50 of 4 is the 2nd");
  expect(NearestRank({1, 2, 3, 4, 5}, 0.5) == 3, "p50 of 5 is the 3rd");

  // root [0,100) with children [10,30), [20,50) (overlapping), [90,120)
  // (clipped to 90..100) and a grandchild inside the first child.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1}, {"b", 20, 50, 0, 1},
      {"c", 90, 120, 0, 1},     {"a1", 12, 18, 1, 1}, {"other", 0, 40, -1, 2},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  expect(self[0] == 100 - 40 - 10, "root self excludes union of children");
  expect(self[1] == 20 - 6, "child self excludes grandchild");
  expect(self[2] == 30, "leaf self is its duration");
  expect(self[3] == 30, "leaf self ignores its parent's bounds");
  expect(self[5] == 40, "other query's root is independent");

  const AttributedGraph g = fairclique::LoadDataset("dblp-s", 0.2);
  std::map<std::pair<int, int>, size_t> oracle;
  for (int k = 1; k <= 6; ++k) {
    for (int delta = 0; delta <= 3; ++delta) oracle[{k, delta}] = 0;
  }
  OracleSizes(g, &oracle);
  for (const auto& [kd, size] : oracle) {
    const fairclique::FairnessParams params{kd.first, kd.second};
    expect(size == fairclique::MaxFairCliqueByEnumeration(g, params).size(),
           "shared enumeration matches MaxFairCliqueByEnumeration");
  }
  if (failures == 0) std::printf("self-test passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
