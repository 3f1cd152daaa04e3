#ifndef FAIRCLIQUE_REDUCTION_COLORFUL_SUPPORT_H_
#define FAIRCLIQUE_REDUCTION_COLORFUL_SUPPORT_H_

#include <cstdint>
#include <vector>

#include "graph/coloring.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// Result of an edge-peeling (truss-style) reduction: flags per edge and per
/// vertex (a vertex dies when all its edges die) plus summary counts.
struct EdgeReductionResult {
  std::vector<uint8_t> edge_alive;    // size E
  std::vector<uint8_t> vertex_alive;  // size V
  VertexId vertices_left = 0;
  EdgeId edges_left = 0;
};

/// Colorful support of every edge (Definition 6): sup_ai(u,v) = number of
/// distinct colors among common neighbors of u and v having attribute ai.
/// Exposed for tests and diagnostics; computed by the same screen that
/// ColorfulSupReduction runs first.
std::vector<AttrCounts> ComputeColorfulSupports(const AttributedGraph& g,
                                                const Coloring& coloring,
                                                TaskRunner* runner = nullptr);

/// ColorfulSup reduction (Algorithm 1 / Lemma 3): iteratively removes every
/// edge whose colorful support violates the attribute-dependent thresholds
///   A(u)=A(v)=a : sup_a >= k-2 and sup_b >= k
///   A(u)=A(v)=b : sup_a >= k   and sup_b >= k-2
///   mixed       : sup_a >= k-1 and sup_b >= k-1
/// The surviving subgraph contains every relative fair clique with size
/// parameter k.
///
/// Both support reductions build one per-edge triangle-slot table: each
/// triangle puts its third vertex into a slot of each of its three edges,
/// and an edge's slots, in (color, attribute) key order, are M_(u,v) of
/// Algorithm 1. A degree-oriented triangle listing (graph/triangles.h)
/// sizes every edge's range; the fill scans, for each edge, the key-ordered
/// row (KeyOrderedNeighbors) of its lower-(degree, id) endpoint against
/// byte marks on the other endpoint's neighbors, so the slots arrive in key
/// order with no sort. The peel tears each triangle down once from those
/// slots, finding its other two sides with FindEdge. Time O(alpha * E) for
/// listing and fill plus O(log) per slot to tear it down; space 8 B per
/// (edge, triangle) slot plus 8 B per edge, next to O(E) flags and per-edge
/// support counts. The key-ordered rows (4 B per adjacency entry) live only
/// while the table is filled.
///
/// ColorfulSup first screens every edge: the same row scan, counting the
/// distinct keys among the common neighbors instead of storing them, in
/// O(sum over edges of the lower-ranked endpoint's degree) = O(alpha * E)
/// time with no per-triangle state. Edges already violating the thresholds
/// are dropped in bulk (no support rises when edges go, so none of them is
/// in the fixpoint), and the slot table and peel cover only the survivor
/// subgraph, under the same coloring.
///
/// The screen, the key-ordered rows, the table's count and fill passes and
/// the per-edge support and class setup run in chunks on `runner` (inline
/// when null). Each chunk writes only its own vertices' or edges' slots, so
/// the survivors do not depend on the schedule. The peel is serial.
EdgeReductionResult ColorfulSupReduction(const AttributedGraph& g,
                                         const Coloring& coloring, int k,
                                         TaskRunner* runner = nullptr);

/// Enhanced colorful support reduction (Definition 7 / Lemma 4): like
/// ColorfulSup, but colors of the common neighborhood are partitioned into
/// a-only / b-only / mixed classes and each mixed color counts toward only
/// one attribute. An edge with endpoint-attribute thresholds (ta, tb)
/// survives iff  max(0, ta-ca) + max(0, tb-cb) <= cm  (the greedy assignment
/// of Definition 7 succeeds exactly in this case). Strictly stronger than
/// ColorfulSup.
EdgeReductionResult EnColorfulSupReduction(const AttributedGraph& g,
                                           const Coloring& coloring, int k,
                                           TaskRunner* runner = nullptr);

/// Greedy mixed-color assignment of Definition 7, exposed for tests: given
/// class sizes and thresholds, returns the per-attribute enhanced colorful
/// supports (gsup_a, gsup_b) produced by assigning to attribute a first.
AttrCounts GreedyEnhancedSupport(int64_t ca, int64_t cb, int64_t cm,
                                 int64_t ta, int64_t tb);

/// Thresholds (ta, tb) used by both reductions for an edge whose endpoints
/// carry `au` and `av` (Lemma 3 / Lemma 4 case analysis).
inline void SupportThresholds(Attribute au, Attribute av, int k, int64_t* ta,
                              int64_t* tb) {
  if (au == Attribute::kA && av == Attribute::kA) {
    *ta = k - 2;
    *tb = k;
  } else if (au == Attribute::kB && av == Attribute::kB) {
    *ta = k;
    *tb = k - 2;
  } else {
    *ta = k - 1;
    *tb = k - 1;
  }
}

}  // namespace fairclique

#endif  // FAIRCLIQUE_REDUCTION_COLORFUL_SUPPORT_H_
