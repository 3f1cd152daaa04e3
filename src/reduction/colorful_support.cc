#include "reduction/colorful_support.h"

#include <algorithm>
#include <array>
#include <span>

#include "common/logging.h"
#include "graph/triangles.h"

namespace fairclique {

namespace {

// Per-edge triangle slots, filled from a degree-oriented triangle listing.
// Slot i of edge (u,v) holds one common neighbor w of u and v. An edge's
// slots are sorted by w's (color, attribute) key, and the first slot of each
// run of equal keys holds the run's live count (the others hold 0), so the
// runs are the multiset M_(u,v) of Algorithm 1. The same slots are the
// triangle list PeelEdges tears down: a triangle's two other sides are found
// with FindEdge instead of by re-intersecting adjacency rows.
class TriangleSlotTable {
 public:
  struct Slot {
    VertexId w;
    uint32_t count;  // live run size at a run head, 0 elsewhere
  };

  TriangleSlotTable(const AttributedGraph& g, const Coloring& coloring) {
    const EdgeId m = g.num_edges();
    vertex_key_.resize(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      vertex_key_[v] = MakeKey(coloring.color[v], g.attribute(v));
    }
    // Pass 1 sizes every edge's slot range exactly; pass 2 fills it, using
    // offsets_[e] as e's write cursor (shifted back to a start afterwards).
    const DegreeOrientation orient = OrientByDegree(g);
    offsets_.assign(m + 1, 0);
    ForEachTriangle(orient, [this](VertexId, VertexId, VertexId, EdgeId euv,
                                   EdgeId euw, EdgeId evw) {
      ++offsets_[euv + 1];
      ++offsets_[euw + 1];
      ++offsets_[evw + 1];
    });
    for (EdgeId e = 0; e < m; ++e) offsets_[e + 1] += offsets_[e];
    slots_.resize(offsets_[m]);
    // While filling, `count` carries the slot's key for the sort below.
    ForEachTriangle(orient, [this](VertexId u, VertexId v, VertexId w,
                                   EdgeId euv, EdgeId euw, EdgeId evw) {
      slots_[offsets_[euv]++] = {w, vertex_key_[w]};
      slots_[offsets_[euw]++] = {v, vertex_key_[v]};
      slots_[offsets_[evw]++] = {u, vertex_key_[u]};
    });
    for (EdgeId e = m; e > 0; --e) offsets_[e] = offsets_[e - 1];
    offsets_[0] = 0;
    for (EdgeId e = 0; e < m; ++e) {
      std::span<Slot> s = slots(e);
      std::sort(s.begin(), s.end(), [](const Slot& a, const Slot& b) {
        return a.count < b.count;
      });
      for (size_t i = 0; i < s.size();) {
        const uint32_t key = s[i].count;
        size_t j = i;
        for (; j < s.size() && s[j].count == key; ++j) s[j].count = 0;
        s[i].count = static_cast<uint32_t>(j - i);
        i = j;
      }
    }
  }

  // (color << 1) | attr: a color's a-run sorts directly before its b-run.
  static uint32_t MakeKey(ColorId color, Attribute attr) {
    return (static_cast<uint32_t>(color) << 1) | static_cast<uint32_t>(attr);
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
  std::vector<std::array<int32_t, 2>> Supports() {
    std::vector<std::array<int32_t, 2>> sup(offsets_.size() - 1, {0, 0});
    for (EdgeId e = 0; e < sup.size(); ++e) {
      for (const Slot& s : slots(e)) {
        if (s.count > 0) sup[e][key(s.w) & 1]++;
      }
    }
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

}  // namespace

std::vector<AttrCounts> ComputeColorfulSupports(const AttributedGraph& g,
                                                const Coloring& coloring) {
  const std::vector<std::array<int32_t, 2>> runs =
      TriangleSlotTable(g, coloring).Supports();
  std::vector<AttrCounts> sup(runs.size());
  for (EdgeId e = 0; e < sup.size(); ++e) {
    sup[e].counts[0] = runs[e][0];
    sup[e].counts[1] = runs[e][1];
  }
  return sup;
}

EdgeReductionResult ColorfulSupReduction(const AttributedGraph& g,
                                         const Coloring& coloring, int k) {
  TriangleSlotTable table(g, coloring);
  std::vector<std::array<int32_t, 2>> sup = table.Supports();

  auto violates = [&](EdgeId e) {
    const Edge& edge = g.edges()[e];
    int64_t ta, tb;
    SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
    return sup[e][0] < ta || sup[e][1] < tb;
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
                                           const Coloring& coloring, int k) {
  TriangleSlotTable table(g, coloring);
  // Per-edge color-class sizes (Group a / Group b / Mixed of Fig. 2(c)).
  struct Classes {
    int32_t ca = 0, cb = 0, cm = 0;
  };
  std::vector<Classes> cls(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
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
