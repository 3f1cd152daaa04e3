#include "reduction/colorful_support.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <span>

#include "common/logging.h"
#include "graph/triangles.h"

namespace fairclique {

namespace {

// Vertices per claimed chunk of a per-vertex loop. Small, because a
// vertex's work follows its degree and the stand-in graphs put their hubs at
// low ids: claiming small chunks balances the load.
constexpr size_t kVertexGrain = 8;
// Edges per claimed chunk of a per-edge loop.
constexpr size_t kEdgeGrain = 256;

// Calls fn(e, sup_a, sup_b) once for every edge e with its colorful supports
// (Definition 6), storing nothing per triangle. For every vertex v, tag v's
// neighbors with their (color, attribute) keys, then scan the key-ordered
// row of each lower-(degree, id) neighbor u: the tagged entries are the
// common neighbors of (u, v) in key order, so each key change among them is
// one more distinct key. O(alpha * E): each edge scans the row of its lower-
// ranked endpoint once. The vertices v run in chunks on `runner`, so fn may
// run concurrently, but never twice for one edge. Scratch: 4 B per adjacency
// entry for the rows and 4 B per vertex per worker for the tags, freed on
// return.
template <typename Fn>
void ForEachColorfulSupport(const AttributedGraph& g, const Coloring& coloring,
                            TaskRunner* runner, Fn&& fn) {
  constexpr uint32_t kUntagged = ~uint32_t{0};
  const VertexId n = g.num_vertices();
  const std::vector<VertexId> by_key = KeyOrderedNeighbors(g, coloring, runner);
  std::span<const uint64_t> rows = g.csr_offsets();
  // One tag array per worker, allocated here: the chunks allocate nothing.
  std::vector<std::vector<uint32_t>> tags(
      ParallelWidth(runner), std::vector<uint32_t>(n, kUntagged));
  ParallelFor(runner, n, kVertexGrain, [&](int worker, size_t first,
                                           size_t last_vertex) {
    uint32_t* const tag = tags[worker].data();
    for (VertexId v = first; v < last_vertex; ++v) {
      const auto nbrs = g.neighbors(v);
      const auto eids = g.edge_ids(v);
      bool tagged = false;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        if (!RanksBelow(g, u, v)) continue;
        if (!tagged) {
          for (VertexId w : nbrs) {
            tag[w] = ColorAttrKey(coloring.color[w], g.attribute(w));
          }
          tagged = true;
        }
        // Branch-free: an untagged entry repeats the last key, which counts
        // nothing.
        std::array<int32_t, 2> sup = {0, 0};
        uint32_t last = kUntagged;
        // fclint: hot-path-begin(support_screen)
        for (uint64_t j = rows[u]; j < rows[u + 1]; ++j) {
          const uint32_t t = tag[by_key[j]];
          const uint32_t key = t == kUntagged ? last : t;
          sup[key & 1] += key != last;
          last = key;
        }
        // fclint: hot-path-end
        fn(eids[i], sup[0], sup[1]);
      }
      if (tagged) {
        for (VertexId w : nbrs) tag[w] = kUntagged;
      }
    }
  });
}

// Lemma 3: true when an edge with these supports cannot be in a relative
// fair clique of size parameter k.
bool ViolatesColorfulSup(const AttributedGraph& g, EdgeId e, int k,
                         int64_t sup_a, int64_t sup_b) {
  const Edge& edge = g.edges()[e];
  int64_t ta, tb;
  SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
  return sup_a < ta || sup_b < tb;
}

// Per-edge triangle slots. Slot i of edge (u,v) holds one common neighbor w
// of u and v. An edge's slots are sorted by w's (color, attribute) key, and
// the first slot of each run of equal keys holds the run's live count (the
// others hold 0), so the runs are the multiset M_(u,v) of Algorithm 1. The
// same slots are the triangle list PeelEdges tears down: a triangle's two
// other sides are found with FindEdge instead of by re-intersecting
// adjacency rows. The count pass, the fill pass and Supports() run in chunks
// on a TaskRunner; each chunk writes only its own edges' slots and counts.
class TriangleSlotTable {
 public:
  struct Slot {
    VertexId w;
    uint32_t count;  // live run size at a run head, 0 elsewhere
  };

  TriangleSlotTable(const AttributedGraph& g, const Coloring& coloring,
                    TaskRunner* runner) {
    const VertexId n = g.num_vertices();
    const EdgeId m = g.num_edges();
    const size_t width = static_cast<size_t>(ParallelWidth(runner));
    vertex_key_.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      vertex_key_[v] = ColorAttrKey(coloring.color[v], g.attribute(v));
    }
    // Count pass: the degree-oriented listing sizes every edge's slot range
    // exactly. Chunks list the triangles of different lowest-ranked
    // vertices, which share edges, so their increments are atomic.
    offsets_.assign(m + 1, 0);
    {
      const DegreeOrientation orient = OrientByDegree(g);
      std::vector<std::vector<EdgeId>> marks(
          width, std::vector<EdgeId>(n, kInvalidEdge));
      const bool shared = width > 1;
      auto count = [this, shared](EdgeId e) {
        if (shared) {
          std::atomic_ref<uint64_t>(offsets_[e + 1])
              .fetch_add(1, std::memory_order_relaxed);
        } else {
          ++offsets_[e + 1];
        }
      };
      ParallelFor(runner, n, kVertexGrain,
                  [&](int worker, size_t first, size_t last) {
                    ForEachTriangle(
                        orient, static_cast<VertexId>(first),
                        static_cast<VertexId>(last), marks[worker].data(),
                        [&count](VertexId, VertexId, VertexId, EdgeId euv,
                                 EdgeId euw, EdgeId evw) {
                          count(euv);
                          count(euw);
                          count(evw);
                        });
                  });
    }
    for (EdgeId e = 0; e < m; ++e) offsets_[e + 1] += offsets_[e];
    slots_.resize(offsets_[m]);
    // Fill pass: for every vertex v, mark its neighbors, then scan the
    // key-ordered row of each lower-ranked neighbor u against the marks
    // until the edge's range is full. The common neighbors of (u, v) arrive
    // in key order, so only the run heads are left to set. O(alpha * E):
    // each edge scans at most the row of its lower-(degree, id) endpoint,
    // and only v's chunk writes the edge's slots.
    const std::vector<VertexId> by_key =
        KeyOrderedNeighbors(g, coloring, runner);
    std::span<const uint64_t> rows = g.csr_offsets();
    std::vector<std::vector<uint8_t>> marks(width, std::vector<uint8_t>(n, 0));
    ParallelFor(runner, n, kVertexGrain, [&](int worker, size_t first,
                                             size_t last) {
      uint8_t* const mark = marks[worker].data();
      // fclint: hot-path-begin(slot_fill)
      for (VertexId v = first; v < last; ++v) {
        const auto nbrs = g.neighbors(v);
        const auto eids = g.edge_ids(v);
        bool marked = false;
        for (size_t i = 0; i < nbrs.size(); ++i) {
          const VertexId u = nbrs[i];
          Slot* const begin = slots_.data() + offsets_[eids[i]];
          Slot* const end = slots_.data() + offsets_[eids[i] + 1];
          if (begin == end || !RanksBelow(g, u, v)) continue;
          if (!marked) {
            for (VertexId w : nbrs) mark[w] = 1;
            marked = true;
          }
          // Branch-free: every candidate is written, and kept by advancing
          // past it only when marked.
          Slot* out = begin;
          const VertexId* it = by_key.data() + rows[u];
          const VertexId* const row_end = by_key.data() + rows[u + 1];
          while (out != end && it != row_end) {
            out->w = *it++;
            out += mark[out->w];
          }
          for (Slot* head = begin; head != end;) {
            const uint32_t key = vertex_key_[head->w];
            Slot* next = head + 1;
            for (; next != end && vertex_key_[next->w] == key; ++next) {
              next->count = 0;
            }
            head->count = static_cast<uint32_t>(next - head);
            head = next;
          }
        }
        if (marked) {
          for (VertexId w : nbrs) mark[w] = 0;
        }
      }
      // fclint: hot-path-end
    });
  }

  uint32_t key(VertexId w) const { return vertex_key_[w]; }

  std::span<Slot> slots(EdgeId e) {
    return {slots_.data() + offsets_[e], slots_.data() + offsets_[e + 1]};
  }

  // Head slot of e's run with key `key`, or nullptr when e has no common
  // neighbor with that key.
  Slot* FindRun(EdgeId e, uint32_t key) {
    std::span<Slot> s = slots(e);
    auto it = std::partition_point(s.begin(), s.end(), [&](const Slot& x) {
      return vertex_key_[x.w] < key;
    });
    return it != s.end() && vertex_key_[it->w] == key ? &*it : nullptr;
  }

  // Per-edge counts of live (color, attribute) runs by attribute index: the
  // colorful supports of Definition 6, in 8 B per edge.
  std::vector<std::array<int32_t, 2>> Supports(TaskRunner* runner) {
    std::vector<std::array<int32_t, 2>> sup(offsets_.size() - 1, {0, 0});
    ParallelFor(runner, sup.size(), kEdgeGrain,
                [&](int, size_t first, size_t last) {
                  for (EdgeId e = first; e < last; ++e) {
                    for (const Slot& s : slots(e)) {
                      if (s.count > 0) sup[e][key(s.w) & 1]++;
                    }
                  }
                });
    return sup;
  }

 private:
  std::vector<uint32_t> vertex_key_;  // size V
  std::vector<uint64_t> offsets_;     // size E+1
  std::vector<Slot> slots_;           // one per (edge, triangle) pair
};

// Shared edge-peeling driver. `Violates(e)` checks the per-edge survival
// condition from the current support state; `OnNeighborLoss(e, w)` updates
// edge e's state after losing common neighbor w and returns true when e
// must be re-checked.
//
// Triangle accounting: a triangle is torn down exactly once — when the first
// of its edges to be *popped* from the queue is processed. At that moment the
// other two side edges each lose their third vertex (decrements on already-
// dead-but-unpopped edges are skipped; their state no longer matters). Edges
// are marked removed at push time, matching Algorithm 1 line 10, so the
// violation check never re-queues an edge. At fixpoint every dead edge has
// been popped, hence every alive edge's support counts exactly the triangles
// whose other two edges are alive — the maximal subgraph of Lemma 3/4.
template <typename ViolatesFn, typename LossFn>
EdgeReductionResult PeelEdges(const AttributedGraph& g,
                              TriangleSlotTable& table, ViolatesFn&& violates,
                              LossFn&& on_loss) {
  const EdgeId m = g.num_edges();
  EdgeReductionResult result;
  result.edge_alive.assign(m, 1);
  result.vertex_alive.assign(g.num_vertices(), 0);
  // not_processed[e] == 1 until e has been popped and its triangles torn
  // down: a triangle with a processed side has already been handled.
  std::vector<uint8_t> not_processed(m, 1);

  // Every edge is queued at most once, so the queue never reallocates.
  std::vector<EdgeId> queue;
  queue.reserve(m);
  for (EdgeId e = 0; e < m; ++e) {
    if (violates(e)) {
      result.edge_alive[e] = 0;  // Removed immediately (Alg. 1 line 10).
      queue.push_back(e);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const EdgeId e = queue[head];
    const VertexId u = g.edges()[e].u;
    const VertexId v = g.edges()[e].v;
    not_processed[e] = 0;
    // Edge (u,w) loses common neighbor v; edge (v,w) loses u.
    // fclint: hot-path-begin(reduction_peel)
    for (const TriangleSlotTable::Slot& slot : table.slots(e)) {
      const EdgeId euw = g.FindEdge(u, slot.w);
      if (!not_processed[euw]) continue;  // triangle already torn down
      const EdgeId evw = g.FindEdge(v, slot.w);
      if (!not_processed[evw]) continue;
      if (result.edge_alive[euw] && on_loss(euw, v) && violates(euw)) {
        result.edge_alive[euw] = 0;
        queue.push_back(euw);
      }
      if (result.edge_alive[evw] && on_loss(evw, u) && violates(evw)) {
        result.edge_alive[evw] = 0;
        queue.push_back(evw);
      }
    }
    // fclint: hot-path-end
  }
  for (EdgeId e = 0; e < m; ++e) {
    if (result.edge_alive[e]) {
      result.edges_left++;
      result.vertex_alive[g.edges()[e].u] = 1;
      result.vertex_alive[g.edges()[e].v] = 1;
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (result.vertex_alive[v]) result.vertices_left++;
  }
  return result;
}

// The ColorfulSup peel over every edge of g from its triangle-slot table.
EdgeReductionResult PeelColorfulSup(const AttributedGraph& g,
                                    const Coloring& coloring, int k,
                                    TaskRunner* runner) {
  TriangleSlotTable table(g, coloring, runner);
  std::vector<std::array<int32_t, 2>> sup = table.Supports(runner);

  auto violates = [&](EdgeId e) {
    return ViolatesColorfulSup(g, e, k, sup[e][0], sup[e][1]);
  };
  // Losing common neighbor w decrements its (color, attribute) run in
  // M_e; the support drops only when that run's count hits zero.
  auto on_loss = [&](EdgeId e, VertexId w) {
    TriangleSlotTable::Slot* run = table.FindRun(e, table.key(w));
    FC_CHECK(run != nullptr && run->count > 0)
        << "double decrement on edge color count";
    if (--run->count == 0) {
      sup[e][AttrIndex(g.attribute(w))]--;
      return true;
    }
    return false;
  };
  return PeelEdges(g, table, violates, on_loss);
}

}  // namespace

std::vector<AttrCounts> ComputeColorfulSupports(const AttributedGraph& g,
                                                const Coloring& coloring,
                                                TaskRunner* runner) {
  std::vector<AttrCounts> sup(g.num_edges());
  ForEachColorfulSupport(g, coloring, runner,
                         [&sup](EdgeId e, int32_t sup_a, int32_t sup_b) {
                           sup[e].counts[0] = sup_a;
                           sup[e].counts[1] = sup_b;
                         });
  return sup;
}

EdgeReductionResult ColorfulSupReduction(const AttributedGraph& g,
                                         const Coloring& coloring, int k,
                                         TaskRunner* runner) {
  const EdgeId m = g.num_edges();
  // Screen: drop every edge that already violates Lemma 3 on g. Removing
  // edges never raises a support, so these edges are outside the fixpoint,
  // and peeling the rest reaches the same fixpoint. When the screen drops
  // nothing, nothing violates and g is its own fixpoint.
  EdgeReductionResult result;
  result.edge_alive.assign(m, 0);
  ForEachColorfulSupport(
      g, coloring, runner, [&](EdgeId e, int32_t sup_a, int32_t sup_b) {
        result.edge_alive[e] = !ViolatesColorfulSup(g, e, k, sup_a, sup_b);
      });
  const EdgeId passed = static_cast<EdgeId>(
      std::count(result.edge_alive.begin(), result.edge_alive.end(), 1));
  result.vertex_alive.assign(g.num_vertices(), 0);
  for (EdgeId e = 0; e < m; ++e) {
    if (result.edge_alive[e]) {
      result.vertex_alive[g.edges()[e].u] = 1;
      result.vertex_alive[g.edges()[e].v] = 1;
    }
  }
  if (0 < passed && passed < m) {
    // Peel the survivors only, under the same coloring.
    std::vector<VertexId> ids;
    const AttributedGraph sub =
        g.FilteredSubgraph(result.vertex_alive, result.edge_alive, &ids);
    FC_CHECK(sub.num_edges() == passed) << "screen survivors lost an edge";
    Coloring sub_coloring;
    sub_coloring.num_colors = coloring.num_colors;
    sub_coloring.color.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      sub_coloring.color[i] = coloring.color[ids[i]];
    }
    const EdgeReductionResult peeled =
        PeelColorfulSup(sub, sub_coloring, k, runner);
    // FilteredSubgraph keeps the passed edges in g's edge order.
    EdgeId j = 0;
    for (EdgeId e = 0; e < m; ++e) {
      if (result.edge_alive[e]) result.edge_alive[e] = peeled.edge_alive[j++];
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      result.vertex_alive[ids[i]] = peeled.vertex_alive[i];
    }
  }
  result.edges_left = static_cast<EdgeId>(
      std::count(result.edge_alive.begin(), result.edge_alive.end(), 1));
  result.vertices_left = static_cast<VertexId>(
      std::count(result.vertex_alive.begin(), result.vertex_alive.end(), 1));
  return result;
}

AttrCounts GreedyEnhancedSupport(int64_t ca, int64_t cb, int64_t cm,
                                 int64_t ta, int64_t tb) {
  // Definition 7: assign mixed colors to attribute a first (up to its
  // deficit), then the remainder to b.
  int64_t gamma_a = ca < ta ? std::min(ta - ca, cm) : 0;
  int64_t rest = cm - gamma_a;
  int64_t gamma_b = cb < tb ? std::min(tb - cb, rest) : 0;
  AttrCounts gsup;
  gsup[Attribute::kA] = ca + gamma_a;
  gsup[Attribute::kB] = cb + gamma_b;
  return gsup;
}

EdgeReductionResult EnColorfulSupReduction(const AttributedGraph& g,
                                           const Coloring& coloring, int k,
                                           TaskRunner* runner) {
  TriangleSlotTable table(g, coloring, runner);
  // Per-edge color-class sizes (Group a / Group b / Mixed of Fig. 2(c)).
  struct Classes {
    int32_t ca = 0, cb = 0, cm = 0;
  };
  std::vector<Classes> cls(g.num_edges());
  ParallelFor(runner, g.num_edges(), kEdgeGrain, [&](int, size_t first,
                                                     size_t last) {
    for (EdgeId e = first; e < last; ++e) {
      // Walk the run heads; a color with both attributes has its a-run
      // immediately followed by its b-run.
      std::span<const TriangleSlotTable::Slot> s = table.slots(e);
      for (size_t i = 0; i < s.size(); i += s[i].count) {
        const uint32_t key = table.key(s[i].w);
        const size_t next = i + s[i].count;
        if ((key & 1) == 0 && next < s.size() &&
            table.key(s[next].w) == (key | 1)) {
          cls[e].cm++;
          i = next;
        } else if ((key & 1) == 0) {
          cls[e].ca++;
        } else {
          cls[e].cb++;
        }
      }
    }
  });

  auto violates = [&](EdgeId e) {
    const Edge& edge = g.edges()[e];
    int64_t ta, tb;
    SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
    // Feasibility of the mixed-color assignment: both deficits must be
    // coverable by distinct mixed colors.
    int64_t need_a = std::max<int64_t>(0, ta - cls[e].ca);
    int64_t need_b = std::max<int64_t>(0, tb - cls[e].cb);
    return need_a + need_b > cls[e].cm;
  };
  auto on_loss = [&](EdgeId e, VertexId w) {
    const Attribute attr_w = g.attribute(w);
    const uint32_t key = table.key(w);
    TriangleSlotTable::Slot* run = table.FindRun(e, key);
    FC_CHECK(run != nullptr && run->count > 0)
        << "double decrement on edge color count";
    if (--run->count != 0) return false;
    // Color lost its attr_w side on this edge; reclassify.
    const TriangleSlotTable::Slot* other = table.FindRun(e, key ^ 1);
    if (other != nullptr && other->count > 0) {
      cls[e].cm--;
      if (attr_w == Attribute::kA) {
        cls[e].cb++;
      } else {
        cls[e].ca++;
      }
    } else {
      if (attr_w == Attribute::kA) {
        cls[e].ca--;
      } else {
        cls[e].cb--;
      }
    }
    return true;
  };
  return PeelEdges(g, table, violates, on_loss);
}

}  // namespace fairclique
