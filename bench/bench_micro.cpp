// Google-benchmark microbenchmarks for the library's primitives: coloring,
// core decompositions, reductions, upper bounds and heuristics. Not tied to
// a specific paper figure; used to watch for regressions in the building
// blocks the headline experiments are made of.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <vector>

#include "bench_util.h"
#include "bounds/upper_bounds.h"
#include "common/bitset_simd.h"
#include "common/logging.h"
#include "core/heuristics.h"
#include "core/max_fair_clique.h"
#include "graph/coloring.h"
#include "graph/cores.h"
#include "graph/generators.h"
#include "graph/triangles.h"
#include "reduction/colorful_core.h"
#include "reduction/colorful_support.h"
#include "reduction/support_decomposition.h"

namespace fairclique {
namespace {

AttributedGraph MakeBenchGraph(int64_t n, double avg_degree) {
  Rng rng(0xBE7C);
  AttributedGraph g =
      ChungLuPowerLaw(static_cast<VertexId>(n), avg_degree, 2.4, rng);
  return AssignAttributesBernoulli(g, 0.5, rng);
}

void BM_GreedyColoring(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  for (auto _ : state) {
    Coloring c = GreedyColoring(g);
    benchmark::DoNotOptimize(c.num_colors);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_GreedyColoring)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_CoreDecomposition(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  for (auto _ : state) {
    CoreDecomposition d = ComputeCores(g);
    benchmark::DoNotOptimize(d.degeneracy);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CoreDecomposition)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_ColorfulCoreDecomposition(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  Coloring c = GreedyColoring(g);
  for (auto _ : state) {
    ColorfulCoreDecomposition d = ComputeColorfulCores(g, c);
    benchmark::DoNotOptimize(d.colorful_degeneracy);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ColorfulCoreDecomposition)->Arg(1000)->Arg(4000);

void BM_TriangleCount(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_TriangleCount)->Arg(1000)->Arg(4000);

// The oriented listing the support reductions build their slot table from;
// reading all three edge ids keeps the callback from being optimized into a
// bare count.
void BM_ForEachTriangle(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  for (auto _ : state) {
    uint64_t sides = 0;
    ForEachTriangle(g, [&sides](VertexId, VertexId, VertexId, EdgeId euv,
                                EdgeId euw, EdgeId evw) {
      sides += euv ^ euw ^ evw;
    });
    benchmark::DoNotOptimize(sides);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ForEachTriangle)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_ColorfulSupReduction(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  Coloring c = GreedyColoring(g);
  for (auto _ : state) {
    EdgeReductionResult r = ColorfulSupReduction(g, c, 3);
    benchmark::DoNotOptimize(r.edges_left);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ColorfulSupReduction)->Arg(1000)->Arg(4000);

void BM_EnColorfulSupReduction(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  Coloring c = GreedyColoring(g);
  for (auto _ : state) {
    EdgeReductionResult r = EnColorfulSupReduction(g, c, 3);
    benchmark::DoNotOptimize(r.edges_left);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_EnColorfulSupReduction)->Arg(1000)->Arg(4000);

void BM_AdvancedBound(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  Coloring c = GreedyColoring(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AdvancedBound(g, c, 2));
  }
}
BENCHMARK(BM_AdvancedBound)->Arg(1000)->Arg(4000);

void BM_ColorfulPathBound(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  Coloring c = GreedyColoring(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColorfulPathBound(g, c));
  }
}
BENCHMARK(BM_ColorfulPathBound)->Arg(1000)->Arg(4000);

void BM_SupportDecomposition(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  Coloring c = GreedyColoring(g);
  for (auto _ : state) {
    SupportDecomposition d = ComputeColorfulSupportNumbers(g, c);
    benchmark::DoNotOptimize(d.max_k);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_SupportDecomposition)->Arg(1000)->Arg(4000);

void BM_SearchVectorEngine(benchmark::State& state) {
  Rng rng(0x5EA);
  AttributedGraph g = MakeBenchGraph(state.range(0), 14.0);
  g = PlantClique(g, 16, /*balanced=*/true, rng, nullptr);
  SearchOptions opts = BoundedOptions(4, 2, ExtraBound::kColorfulDegeneracy);
  opts.engine = SearchEngine::kVector;
  for (auto _ : state) {
    SearchResult r = FindMaximumFairClique(g, opts);
    benchmark::DoNotOptimize(r.clique.size());
  }
}
BENCHMARK(BM_SearchVectorEngine)->Arg(1000)->Arg(3000);

void BM_SearchBitsetEngine(benchmark::State& state) {
  Rng rng(0x5EA);
  AttributedGraph g = MakeBenchGraph(state.range(0), 14.0);
  g = PlantClique(g, 16, /*balanced=*/true, rng, nullptr);
  SearchOptions opts = BoundedOptions(4, 2, ExtraBound::kColorfulDegeneracy);
  opts.engine = SearchEngine::kBitset;
  for (auto _ : state) {
    SearchResult r = FindMaximumFairClique(g, opts);
    benchmark::DoNotOptimize(r.clique.size());
  }
}
BENCHMARK(BM_SearchBitsetEngine)->Arg(1000)->Arg(3000);

// ---------------------------------------------------------------------
// Bitset kernel section: the word-parallel primitives the branch engine is
// made of, timed per variant. `/scalar` pins the reference kernels;
// `/dispatched` runs whatever the CPU dispatched (avx2/neon, or scalar
// again on machines without vector ISA — compare the two to read the
// speedup). Arg is the word count per operand: 64 words = 4096 bits, one
// adjacency row of the largest component the old fixed threshold allowed.

std::vector<uint64_t> KernelWords(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> w(n);
  for (auto& x : w) x = rng();
  return w;
}

void RunKernelBench(benchmark::State& state, bool scalar,
                    void (*op)(const simd::Kernels&, uint64_t*,
                               const uint64_t*, const uint64_t*,
                               const uint64_t*, size_t)) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> a = KernelWords(n, 1);
  std::vector<uint64_t> b = KernelWords(n, 2);
  std::vector<uint64_t> mask = KernelWords(n, 3);
  std::vector<uint64_t> dst(n, 0);
  simd::SetKernelOverride(scalar ? "scalar" : nullptr);
  const simd::Kernels& k = simd::Active();
  state.SetLabel(k.name);
  for (auto _ : state) {
    op(k, dst.data(), a.data(), b.data(), mask.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  simd::SetKernelOverride(nullptr);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(n * sizeof(uint64_t)));
}

void OpIntersectDual(const simd::Kernels& k, uint64_t* dst, const uint64_t* a,
                     const uint64_t* b, const uint64_t* mask, size_t n) {
  simd::DualCount c = k.intersect_into_dual(dst, a, b, mask, n);
  benchmark::DoNotOptimize(c.total);
}

void OpIntersectCount(const simd::Kernels& k, uint64_t* dst, const uint64_t* a,
                      const uint64_t* b, const uint64_t*, size_t n) {
  uint64_t c = k.intersect_count(a, b, n);
  benchmark::DoNotOptimize(c);
  benchmark::DoNotOptimize(dst);
}

void OpAndInPlace(const simd::Kernels& k, uint64_t* dst, const uint64_t* a,
                  const uint64_t* b, const uint64_t*, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i];
  k.and_inplace(dst, b, n);
}

void BM_BitsetKernelDual_Scalar(benchmark::State& state) {
  RunKernelBench(state, true, OpIntersectDual);
}
BENCHMARK(BM_BitsetKernelDual_Scalar)->Arg(8)->Arg(64)->Arg(512);

void BM_BitsetKernelDual_Dispatched(benchmark::State& state) {
  RunKernelBench(state, false, OpIntersectDual);
}
BENCHMARK(BM_BitsetKernelDual_Dispatched)->Arg(8)->Arg(64)->Arg(512);

void BM_BitsetKernelIntersectCount_Scalar(benchmark::State& state) {
  RunKernelBench(state, true, OpIntersectCount);
}
BENCHMARK(BM_BitsetKernelIntersectCount_Scalar)->Arg(64)->Arg(512);

void BM_BitsetKernelIntersectCount_Dispatched(benchmark::State& state) {
  RunKernelBench(state, false, OpIntersectCount);
}
BENCHMARK(BM_BitsetKernelIntersectCount_Dispatched)->Arg(64)->Arg(512);

void BM_BitsetKernelAnd_Scalar(benchmark::State& state) {
  RunKernelBench(state, true, OpAndInPlace);
}
BENCHMARK(BM_BitsetKernelAnd_Scalar)->Arg(64)->Arg(512);

void BM_BitsetKernelAnd_Dispatched(benchmark::State& state) {
  RunKernelBench(state, false, OpAndInPlace);
}
BENCHMARK(BM_BitsetKernelAnd_Dispatched)->Arg(64)->Arg(512);

// Self-timed kernel comparison feeding BENCH_micro.json: CI gates the
// dual-count intersection at >= 2x over scalar whenever a vector variant
// dispatched (kernel_simd_active == 1). Timed here rather than scraped
// from the google-benchmark output so the JSON stays one self-contained
// artifact.
double TimeKernelNs(const simd::Kernels& k, size_t words, int iters,
                    uint64_t* dst, const uint64_t* a, const uint64_t* b,
                    const uint64_t* mask) {
  uint64_t sink = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    simd::DualCount c = k.intersect_into_dual(dst, a, b, mask, words);
    sink += c.total + c.in_mask;
  }
  auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

void EmitKernelMetrics() {
  constexpr size_t kWords = 64;  // one 4096-bit adjacency row
  constexpr int kIters = 400000;
  std::vector<uint64_t> a = KernelWords(kWords, 11);
  std::vector<uint64_t> b = KernelWords(kWords, 12);
  std::vector<uint64_t> mask = KernelWords(kWords, 13);
  std::vector<uint64_t> dst(kWords, 0);

  const simd::Kernels& scalar = simd::Scalar();
  const simd::Kernels& active = simd::Active();
  // Warm both paths, then take the best of three to shed scheduler noise.
  TimeKernelNs(scalar, kWords, kIters / 10, dst.data(), a.data(), b.data(),
               mask.data());
  TimeKernelNs(active, kWords, kIters / 10, dst.data(), a.data(), b.data(),
               mask.data());
  double scalar_ns = 1e30, active_ns = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    scalar_ns = std::min(
        scalar_ns, TimeKernelNs(scalar, kWords, kIters, dst.data(), a.data(),
                                b.data(), mask.data()));
    active_ns = std::min(
        active_ns, TimeKernelNs(active, kWords, kIters, dst.data(), a.data(),
                                b.data(), mask.data()));
  }
  bool simd_active = std::string(active.name) != "scalar";
  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("kernel_simd_active", simd_active ? 1.0 : 0.0);
  metrics.emplace_back("dual_kernel_scalar_ns", scalar_ns);
  metrics.emplace_back("dual_kernel_dispatched_ns", active_ns);
  metrics.emplace_back("dual_kernel_speedup",
                       active_ns > 0 ? scalar_ns / active_ns : 0.0);
  bench::EmitBenchJson("micro", metrics);
  std::printf("kernel %s: dual %zu-word intersect %.1f ns scalar / %.1f ns "
              "dispatched (%.2fx)\n",
              active.name, kWords, scalar_ns, active_ns,
              scalar_ns / active_ns);
}

void BM_HeurRFC(benchmark::State& state) {
  AttributedGraph g = MakeBenchGraph(state.range(0), 12.0);
  for (auto _ : state) {
    HeuristicResult r = HeurRFC(g, {{3, 2}, 1});
    benchmark::DoNotOptimize(r.clique.size());
  }
}
BENCHMARK(BM_HeurRFC)->Arg(1000)->Arg(4000);

}  // namespace
}  // namespace fairclique

int main(int argc, char** argv) {
  fairclique::SetLogLevel(fairclique::LogLevel::kWarning);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  fairclique::EmitKernelMetrics();
  return 0;
}
