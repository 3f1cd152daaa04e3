#include "reduction/reduce.h"

#include <numeric>
#include <utility>

#include "common/timer.h"
#include "graph/coloring.h"
#include "obs/profiler.h"
#include "reduction/colorful_core.h"
#include "reduction/colorful_support.h"

namespace fairclique {

namespace {

// Composes `inner` (ids of the current graph -> previous graph) into
// `outer` (previous graph -> original graph).
std::vector<VertexId> ComposeIds(const std::vector<VertexId>& outer,
                                 const std::vector<VertexId>& inner) {
  std::vector<VertexId> composed(inner.size());
  for (size_t i = 0; i < inner.size(); ++i) composed[i] = outer[inner[i]];
  return composed;
}

}  // namespace

ReductionPipelineResult ReduceForFairClique(const AttributedGraph& g, int k,
                                            const ReductionOptions& options,
                                            TaskRunner* runner) {
  ReductionPipelineResult result;
  result.reduced = g;
  result.original_ids.resize(g.num_vertices());
  std::iota(result.original_ids.begin(), result.original_ids.end(), 0);

  auto run_stage = [&result](const char* name, auto&& stage_fn) {
    // The stage names below are string literals, which is what lets the
    // profiler tag the scope by pointer identity.
    obs::ProfileScope profile_scope(name);
    WallTimer timer;
    AttributedGraph& cur = result.reduced;
    Coloring coloring = GreedyColoring(cur);
    std::vector<VertexId> inner_ids;
    AttributedGraph next = stage_fn(cur, coloring, &inner_ids);
    result.stages.push_back({name, next.num_vertices(), next.num_edges(),
                             timer.ElapsedMicros()});
    result.original_ids = ComposeIds(result.original_ids, inner_ids);
    result.reduced = std::move(next);
  };

  if (options.use_en_colorful_core) {
    run_stage("EnColorfulCore",
              [k, runner](const AttributedGraph& cur, const Coloring& coloring,
                          std::vector<VertexId>* ids) {
                // Lemma 2: fair cliques live in the enhanced colorful
                // (k-1)-core.
                VertexReductionResult r =
                    EnColorfulCore(cur, coloring, k - 1, runner);
                return cur.FilteredSubgraph(r.alive, {}, ids);
              });
  }
  if (options.use_colorful_sup) {
    run_stage("ColorfulSup",
              [k, runner](const AttributedGraph& cur, const Coloring& coloring,
                          std::vector<VertexId>* ids) {
                EdgeReductionResult r =
                    ColorfulSupReduction(cur, coloring, k, runner);
                return cur.FilteredSubgraph(r.vertex_alive, r.edge_alive, ids);
              });
  }
  if (options.use_en_colorful_sup) {
    run_stage("EnColorfulSup",
              [k, runner](const AttributedGraph& cur, const Coloring& coloring,
                          std::vector<VertexId>* ids) {
                EdgeReductionResult r =
                    EnColorfulSupReduction(cur, coloring, k, runner);
                return cur.FilteredSubgraph(r.vertex_alive, r.edge_alive, ids);
              });
  }
  return result;
}

}  // namespace fairclique
