#include "core/prepared_graph.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <numeric>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/bitset.h"
#include "common/logging.h"
#include "core/heuristics.h"
#include "core/verifier.h"
#include "graph/coloring.h"
#include "graph/cores.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "reduction/colorful_core.h"

namespace fairclique {

namespace {

// Lock-free monotone max on the shared incumbent-size floor.
void RaiseFloor(std::atomic<int64_t>* floor, int64_t value) {
  int64_t cur = floor->load(std::memory_order_relaxed);
  while (cur < value &&
         !floor->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// Rank positions for the configured branch ordering.
std::vector<uint32_t> ComputeBranchPositions(const AttributedGraph& comp,
                                             BranchOrder order) {
  switch (order) {
    case BranchOrder::kColorfulCore: {
      Coloring coloring = GreedyColoring(comp);
      return ComputeColorfulCores(comp, coloring).position;
    }
    case BranchOrder::kDegeneracy:
      return ComputeCores(comp).position;
    case BranchOrder::kDegree: {
      // Stable ascending-degree ranks.
      std::vector<VertexId> verts(comp.num_vertices());
      std::iota(verts.begin(), verts.end(), 0);
      std::stable_sort(verts.begin(), verts.end(),
                       [&comp](VertexId a, VertexId b) {
                         return comp.degree(a) < comp.degree(b);
                       });
      std::vector<uint32_t> position(comp.num_vertices());
      for (uint32_t i = 0; i < verts.size(); ++i) position[verts[i]] = i;
      return position;
    }
  }
  return {};
}

// Branch-and-bound over one connected component, with vertices relabeled to
// their colorful-core peeling rank (CalColorOD order): candidate sets only
// ever contain ranks greater than the last added vertex, so every clique of
// the component is enumerated exactly once, from its lowest-ranked vertex.
class ComponentSearch {
 public:
  ComponentSearch(const AttributedGraph& comp,
                  const std::vector<uint32_t>& rank_of,
                  const SearchOptions& options, const Deadline& deadline,
                  SearchStats* stats, CliqueResult* best,
                  std::atomic<int64_t>* floor)
      : g_(comp),
        options_(options),
        deadline_(deadline),
        stats_(stats),
        best_(best),
        floor_(floor),
        rank_of_(rank_of) {
    vertex_at_.resize(g_.num_vertices());
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      vertex_at_[rank_of_[v]] = v;
    }
    // Rank-space sorted adjacency for O(|C| + deg) candidate filtering.
    adj_.resize(g_.num_vertices());
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      auto& row = adj_[rank_of_[v]];
      row.reserve(g_.degree(v));
      for (VertexId w : g_.neighbors(v)) row.push_back(rank_of_[w]);
      std::sort(row.begin(), row.end());
    }
  }

  // Runs the search; `to_original(rank)` maps a rank-space vertex to an
  // original-graph id for incumbent reporting.
  template <typename MapFn>
  void Run(MapFn&& to_original) {
    map_ = [&](uint32_t r) { return to_original(vertex_at_[r]); };
    std::vector<uint32_t> all(g_.num_vertices());
    std::iota(all.begin(), all.end(), 0);
    AttrCounts cnt;
    for (uint32_t r = 0; r < g_.num_vertices(); ++r) {
      cnt[g_.attribute(vertex_at_[r])]++;
    }
    r_.clear();
    r_cnt_ = AttrCounts{};
    Branch(all, cnt, 0);
  }

  bool aborted() const { return aborted_; }

 private:
  // Minimum size the incumbent forces us to beat: a new clique must have
  // size >= max(2k, |best|+1).
  // Known incumbent size: the larger of this component's best and the
  // cross-component floor (shared by parallel workers).
  int64_t Known() const {
    int64_t local = static_cast<int64_t>(best_->size());
    if (floor_ != nullptr) {
      local = std::max(local, floor_->load(std::memory_order_relaxed));
    }
    return local;
  }

  int64_t Target() const {
    return std::max<int64_t>(2 * options_.params.k, Known() + 1);
  }

  void Branch(const std::vector<uint32_t>& candidates, AttrCounts cand_cnt,
              int depth) {
    if (aborted_) return;
    stats_->nodes++;
    if (options_.node_limit != 0 && stats_->nodes > options_.node_limit) {
      stats_->stop_reason = StopReason::kNodeLimit;
      aborted_ = true;
      return;
    }
    if ((stats_->nodes & 0x3ff) == 0) {
      // The deadline-check cadence doubles as the live-progress cadence:
      // one predictable branch per kilonode either way.
      if (options_.branch_tick != nullptr) (*options_.branch_tick)();
      if (options_.progress != nullptr) options_.progress->AddNodes(1024);
      if (deadline_.Expired()) {
        stats_->stop_reason = StopReason::kTimeLimit;
        aborted_ = true;
        return;
      }
    }
    // Every node's R is a clique reached exactly once; record it when fair.
    if (static_cast<int64_t>(r_.size()) > Known() &&
        options_.params.Satisfied(r_cnt_)) {
      best_->vertices.clear();
      for (uint32_t r : r_) best_->vertices.push_back(map_(r));
      best_->attr_counts = r_cnt_;
      if (floor_ != nullptr) {
        RaiseFloor(floor_, static_cast<int64_t>(r_.size()));
      }
      if (options_.progress != nullptr) {
        options_.progress->NoteIncumbent(static_cast<int64_t>(r_.size()));
      }
    }
    if (candidates.empty()) return;

    // Size prune (Lemma 5 / Alg. 3 line 19).
    if (static_cast<int64_t>(r_.size() + candidates.size()) < Target()) {
      stats_->size_prunes++;
      return;
    }
    // Attribute feasibility (Alg. 3 lines 20-23): both attributes must be
    // able to reach k.
    if (r_cnt_.a() + cand_cnt.a() < options_.params.k ||
        r_cnt_.b() + cand_cnt.b() < options_.params.k) {
      stats_->attr_prunes++;
      return;
    }
    // Delta cap (sound form of Alg. 3 lines 4-8): when attribute x already
    // matches the best the other side can reach plus delta, no x-vertex can
    // be added to any fair completion.
    const std::vector<uint32_t>* cand = &candidates;
    std::vector<uint32_t> capped;
    for (Attribute x : {Attribute::kA, Attribute::kB}) {
      Attribute y = Other(x);
      if (cand_cnt[x] > 0 &&
          r_cnt_[x] >= r_cnt_[y] + cand_cnt[y] + options_.params.delta) {
        capped.clear();
        capped.reserve(cand->size());
        for (uint32_t r : *cand) {
          if (g_.attribute(vertex_at_[r]) != x) capped.push_back(r);
        }
        stats_->cap_removals += cand->size() - capped.size();
        cand_cnt[x] = 0;
        cand = &capped;
        // Re-check the size prune after dropping candidates.
        if (static_cast<int64_t>(r_.size() + cand->size()) < Target()) {
          stats_->size_prunes++;
          return;
        }
      }
    }

    // Configured upper bounds on the induced subgraph of R ∪ C, at shallow
    // depths only (building the subgraph is O(E(G')) per node).
    if (depth < options_.bound_depth &&
        (options_.bounds.use_advanced ||
         options_.bounds.extra != ExtraBound::kNone)) {
      if (UpperBoundOf(*cand) < Target()) {
        stats_->bound_prunes++;
        return;
      }
    }

    // Expand each candidate in rank order; the suffix filter keeps every
    // clique enumerated exactly once.
    for (size_t i = 0; i < cand->size(); ++i) {
      if (aborted_) return;
      uint32_t u = (*cand)[i];
      // Remaining-size prune for this child before building its set.
      if (static_cast<int64_t>(r_.size() + 1 + (cand->size() - i - 1)) <
          Target()) {
        stats_->size_prunes++;
        break;  // Later children only get smaller.
      }
      std::vector<uint32_t> next;
      AttrCounts next_cnt;
      // next = {v in cand[i+1..] : v adjacent to u}; both sides sorted.
      const std::vector<uint32_t>& nbrs = adj_[u];
      size_t a = i + 1, b = 0;
      while (a < cand->size() && b < nbrs.size()) {
        if ((*cand)[a] < nbrs[b]) {
          ++a;
        } else if ((*cand)[a] > nbrs[b]) {
          ++b;
        } else {
          next.push_back((*cand)[a]);
          next_cnt[g_.attribute(vertex_at_[(*cand)[a]])]++;
          ++a;
          ++b;
        }
      }
      Attribute au = g_.attribute(vertex_at_[u]);
      r_.push_back(u);
      r_cnt_[au]++;
      Branch(next, next_cnt, depth + 1);
      r_.pop_back();
      r_cnt_[au]--;
    }
  }

  // Evaluates the configured bound on the subgraph induced by R ∪ C.
  int64_t UpperBoundOf(const std::vector<uint32_t>& cand) {
    std::vector<VertexId> verts;
    verts.reserve(r_.size() + cand.size());
    for (uint32_t r : r_) verts.push_back(vertex_at_[r]);
    for (uint32_t r : cand) verts.push_back(vertex_at_[r]);
    AttributedGraph sub = g_.InducedSubgraph(verts);
    return ComputeUpperBound(sub, options_.params.delta, options_.bounds);
  }

  const AttributedGraph& g_;
  const SearchOptions& options_;
  const Deadline& deadline_;
  SearchStats* stats_;
  CliqueResult* best_;
  std::atomic<int64_t>* floor_;
  bool aborted_ = false;

  const std::vector<uint32_t>& rank_of_;
  std::vector<VertexId> vertex_at_;
  std::vector<std::vector<uint32_t>> adj_;
  std::vector<uint32_t> r_;  // Current clique, as ranks.
  AttrCounts r_cnt_;
  std::function<VertexId(uint32_t)> map_;
};

// Word-parallel variant of ComponentSearch for dense components: candidate
// sets are bitsets over ranks, child sets are built with word-parallel
// kernels (runtime-dispatched scalar/AVX2/NEON, see common/bitset_simd.h).
// Branch semantics, pruning rules and answers are identical to the vector
// engine (asserted by differential tests).
//
// Layout: adjacency rows live in one contiguous cache-line-aligned
// BitsetArena (rows padded to 64 bytes) rather than n separate heap
// allocations, so the candidate∩row intersections of a branch walk dense
// memory; the next pivot's row is prefetched while the current child
// recurses. Child candidate sets come from a per-depth scratch pool (one
// Bitset per recursion level, reused across siblings) instead of a fresh
// allocation per node, and the child's per-attribute counts fall out of the
// fused dual-count intersection in the same pass that builds it.
class BitsetComponentSearch {
 public:
  BitsetComponentSearch(const AttributedGraph& comp,
                        const std::vector<uint32_t>& rank_of,
                        const SearchOptions& options, const Deadline& deadline,
                        SearchStats* stats, CliqueResult* best,
                        std::atomic<int64_t>* floor)
      : g_(comp),
        n_(comp.num_vertices()),
        options_(options),
        deadline_(deadline),
        stats_(stats),
        best_(best),
        floor_(floor),
        rank_of_(rank_of),
        nbr_(n_, n_) {
    vertex_at_.resize(n_);
    for (VertexId v = 0; v < n_; ++v) vertex_at_[rank_of_[v]] = v;
    attr_bits_[0] = Bitset(n_);
    attr_bits_[1] = Bitset(n_);
    for (VertexId v = 0; v < n_; ++v) {
      uint32_t r = rank_of_[v];
      for (VertexId w : g_.neighbors(v)) nbr_.SetBit(r, rank_of_[w]);
      attr_bits_[AttrIndex(g_.attribute(v))].Set(r);
    }
  }

  template <typename MapFn>
  void Run(MapFn&& to_original) {
    map_ = [&](uint32_t r) { return to_original(vertex_at_[r]); };
    Bitset all(n_);
    all.SetAll();
    AttrCounts cnt;
    cnt[Attribute::kA] = static_cast<int64_t>(attr_bits_[0].Count());
    cnt[Attribute::kB] = static_cast<int64_t>(attr_bits_[1].Count());
    r_.clear();
    r_cnt_ = AttrCounts{};
    Branch(all, cnt, 0);
  }

  bool aborted() const { return aborted_; }

 private:
  // Known incumbent size: the larger of this component's best and the
  // cross-component floor (shared by parallel workers).
  int64_t Known() const {
    int64_t local = static_cast<int64_t>(best_->size());
    if (floor_ != nullptr) {
      local = std::max(local, floor_->load(std::memory_order_relaxed));
    }
    return local;
  }

  int64_t Target() const {
    return std::max<int64_t>(2 * options_.params.k, Known() + 1);
  }

  // `cand` is the caller's scratch set for this depth; the callee may
  // consume it destructively (pivots are cleared as the loop advances, and
  // the delta-cap prune subtracts in place). Parents rebuild their scratch
  // from their own `cand` each iteration, so nothing downstream reads it
  // after the call.
  // fclint: hot-path-begin(branch_kernel)
  // The branch-and-bound inner loop: no allocation expressions, no string
  // building, no logging, no lock acquisition. (push_back into the
  // pre-sized incumbent / prefix vectors is the one sanctioned container
  // use.) tools/lint/fclint.py enforces this region.
  void Branch(Bitset& cand, AttrCounts cand_cnt, int depth) {
    if (aborted_) return;
    stats_->nodes++;
    if (options_.node_limit != 0 && stats_->nodes > options_.node_limit) {
      stats_->stop_reason = StopReason::kNodeLimit;
      aborted_ = true;
      return;
    }
    if ((stats_->nodes & 0x3ff) == 0) {
      // The deadline-check cadence doubles as the live-progress cadence:
      // one predictable branch per kilonode either way.
      if (options_.branch_tick != nullptr) (*options_.branch_tick)();
      if (options_.progress != nullptr) options_.progress->AddNodes(1024);
      if (deadline_.Expired()) {
        stats_->stop_reason = StopReason::kTimeLimit;
        aborted_ = true;
        return;
      }
    }
    if (static_cast<int64_t>(r_.size()) > Known() &&
        options_.params.Satisfied(r_cnt_)) {
      best_->vertices.clear();
      for (uint32_t r : r_) best_->vertices.push_back(map_(r));
      best_->attr_counts = r_cnt_;
      if (floor_ != nullptr) {
        RaiseFloor(floor_, static_cast<int64_t>(r_.size()));
      }
      if (options_.progress != nullptr) {
        options_.progress->NoteIncumbent(static_cast<int64_t>(r_.size()));
      }
    }
    int64_t cand_size = cand_cnt.Total();
    if (cand_size == 0) return;
    if (static_cast<int64_t>(r_.size()) + cand_size < Target()) {
      stats_->size_prunes++;
      return;
    }
    if (r_cnt_.a() + cand_cnt.a() < options_.params.k ||
        r_cnt_.b() + cand_cnt.b() < options_.params.k) {
      stats_->attr_prunes++;
      return;
    }
    for (Attribute x : {Attribute::kA, Attribute::kB}) {
      Attribute y = Other(x);
      if (cand_cnt[x] > 0 &&
          r_cnt_[x] >= r_cnt_[y] + cand_cnt[y] + options_.params.delta) {
        stats_->cap_removals += static_cast<uint64_t>(cand_cnt[x]);
        cand -= attr_bits_[AttrIndex(x)];
        cand_cnt[x] = 0;
        cand_size = cand_cnt.Total();
        if (static_cast<int64_t>(r_.size()) + cand_size < Target()) {
          stats_->size_prunes++;
          return;
        }
      }
    }
    if (depth < options_.bound_depth &&
        (options_.bounds.use_advanced ||
         options_.bounds.extra != ExtraBound::kNone)) {
      if (UpperBoundOf(cand) < Target()) {
        stats_->bound_prunes++;
        return;
      }
    }
    int64_t remaining = cand_size;
    Bitset& next = ScratchAt(depth);
    for (size_t u = cand.NextSetBit(0); u < cand.size(); --remaining) {
      if (aborted_) return;
      if (static_cast<int64_t>(r_.size()) + remaining < Target()) {
        stats_->size_prunes++;
        break;  // Later children only get smaller.
      }
      // "Rest" form of the ordered expansion: clearing the pivot makes
      // cand = {bits > u still eligible} (every bit < u was a pivot
      // already), so cand & nbr[u] equals the textbook
      // (cand & nbr[u]).ResetBelow(u + 1) without the extra pass.
      cand.Reset(u);
      size_t u_next = cand.NextSetBit(u + 1);
      // Pull the next pivot's adjacency row toward L1 while this child's
      // subtree runs; by the time the loop comes back around it is resident.
      if (u_next < cand.size()) nbr_.PrefetchRow(u_next);
      simd::DualCount dc =
          next.AssignIntersectDual(cand, nbr_.row(u), attr_bits_[0]);
      AttrCounts next_cnt;
      next_cnt[Attribute::kA] = static_cast<int64_t>(dc.in_mask);
      // Every vertex holds exactly one of the two attributes, so the B
      // count is the complement within the intersection.
      next_cnt[Attribute::kB] = static_cast<int64_t>(dc.total - dc.in_mask);
      Attribute au = g_.attribute(vertex_at_[u]);
      r_.push_back(static_cast<uint32_t>(u));
      r_cnt_[au]++;
      Branch(next, next_cnt, depth + 1);
      r_.pop_back();
      r_cnt_[au]--;
      u = u_next;
    }
  }
  // fclint: hot-path-end

  // One scratch Bitset per recursion depth, reused across every sibling at
  // that depth. A deque keeps references stable while deeper levels append.
  Bitset& ScratchAt(int depth) {
    while (static_cast<size_t>(depth) >= scratch_.size()) {
      scratch_.emplace_back(n_);
    }
    return scratch_[static_cast<size_t>(depth)];
  }

  int64_t UpperBoundOf(const Bitset& cand) {
    std::vector<VertexId> verts;
    verts.reserve(r_.size() + cand.Count());
    for (uint32_t r : r_) verts.push_back(vertex_at_[r]);
    cand.ForEachSetBit([&](size_t r) { verts.push_back(vertex_at_[r]); });
    AttributedGraph sub = g_.InducedSubgraph(verts);
    return ComputeUpperBound(sub, options_.params.delta, options_.bounds);
  }

  const AttributedGraph& g_;
  const VertexId n_;
  const SearchOptions& options_;
  const Deadline& deadline_;
  SearchStats* stats_;
  CliqueResult* best_;
  std::atomic<int64_t>* floor_;
  bool aborted_ = false;

  const std::vector<uint32_t>& rank_of_;
  std::vector<VertexId> vertex_at_;
  BitsetArena nbr_;
  Bitset attr_bits_[2];
  // Per-depth child-set scratch, one Bitset per recursion level. A deque so
  // references handed to recursive calls stay valid when deeper levels grow
  // the pool.
  std::deque<Bitset> scratch_;
  std::vector<uint32_t> r_;
  AttrCounts r_cnt_;
  std::function<VertexId(uint32_t)> map_;
};

// Bytes the bitset engine's blocked adjacency arena takes for an n-vertex
// component: n rows of n bits, each row padded to a whole cache line.
uint64_t ArenaBytesFor(VertexId n) {
  uint64_t words_per_row =
      ((static_cast<uint64_t>(n) + 63) / 64 + 7) & ~uint64_t{7};
  return static_cast<uint64_t>(n) * words_per_row * sizeof(uint64_t);
}

}  // namespace

const std::vector<uint32_t>& PreparedComponent::BranchPositions(
    BranchOrder order) const {
  int i = static_cast<int>(order);
  std::call_once(position_once_[i], [this, order, i] {
    positions_[i] = ComputeBranchPositions(graph, order);
  });
  return positions_[i];
}

bool PreparedGraph::Compatible(const SearchOptions& options) const {
  return options.params.k == k &&
         options.reductions.use_en_colorful_core ==
             reductions.use_en_colorful_core &&
         options.reductions.use_colorful_sup == reductions.use_colorful_sup &&
         options.reductions.use_en_colorful_sup ==
             reductions.use_en_colorful_sup;
}

uint64_t BitsetArenaBudgetBytes() {
  static const uint64_t budget = [] {
    constexpr uint64_t kMiB = 1024 * 1024;
    // Explicit override wins (benchmarks and tests pin the decision).
    if (const char* env = std::getenv("FAIRCLIQUE_BITSET_BUDGET_BYTES")) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && v > 0) return static_cast<uint64_t>(v);
    }
    // Otherwise size to the last-level cache: the arena should mostly live
    // there during a branch. Clamped so exotic cache reports cannot make
    // kAuto wildly aggressive or refuse components the old fixed threshold
    // (4096 vertices = exactly 2 MiB of arena) accepted.
    uint64_t cache = 0;
#if defined(_SC_LEVEL3_CACHE_SIZE)
    {
      long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
      if (v > 0) cache = static_cast<uint64_t>(v);
    }
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
    if (cache == 0) {
      long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
      if (v > 0) cache = static_cast<uint64_t>(v);
    }
#endif
    if (cache == 0) return uint64_t{8} * kMiB;
    return std::min(uint64_t{32} * kMiB, std::max(uint64_t{2} * kMiB, cache));
  }();
  return budget;
}

EngineDecision ResolveEngineDecision(SearchEngine engine,
                                     VertexId component_vertices) {
  EngineDecision d;
  d.arena_bytes = ArenaBytesFor(component_vertices);
  d.budget_bytes = BitsetArenaBudgetBytes();
  if (engine != SearchEngine::kAuto) {
    d.engine = engine;
  } else {
    d.engine = d.arena_bytes <= d.budget_bytes ? SearchEngine::kBitset
                                               : SearchEngine::kVector;
  }
  return d;
}

SearchEngine ResolveEngine(SearchEngine engine, VertexId component_vertices) {
  return ResolveEngineDecision(engine, component_vertices).engine;
}

const char* SearchEngineName(SearchEngine engine) {
  switch (engine) {
    case SearchEngine::kAuto: return "auto";
    case SearchEngine::kVector: return "vector";
    case SearchEngine::kBitset: return "bitset";
  }
  return "auto";
}

std::shared_ptr<const PreparedGraph> PrepareGraph(
    const AttributedGraph& g, int k, const ReductionOptions& reductions,
    TaskRunner* runner) {
  FC_CHECK(k >= 1) << "fairness parameter k must be >= 1";
  obs::ProfileScope profile_scope("PrepareGraph");
  WallTimer timer;
  auto prepared = std::make_shared<PreparedGraph>();
  prepared->k = k;
  prepared->reductions = reductions;
  prepared->source_vertices = g.num_vertices();
  prepared->source_edges = g.num_edges();

  ReductionPipelineResult reduced =
      ReduceForFairClique(g, k, reductions, runner);
  prepared->reduced = std::move(reduced.reduced);
  prepared->original_ids = std::move(reduced.original_ids);
  prepared->stages = std::move(reduced.stages);

  // Decompose: components below 2k vertices cannot hold a fair clique
  // (each attribute needs >= k members), so they never become tasks.
  std::vector<std::vector<VertexId>> components =
      prepared->reduced.ConnectedComponents();
  std::sort(components.begin(), components.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  for (std::vector<VertexId>& comp_vertices : components) {
    if (static_cast<int64_t>(comp_vertices.size()) < 2 * k) continue;
    auto comp = std::make_unique<PreparedComponent>();
    std::vector<VertexId> reduced_ids;
    comp->graph = prepared->reduced.InducedSubgraph(comp_vertices,
                                                    &reduced_ids);
    comp->original_ids.reserve(reduced_ids.size());
    for (VertexId r : reduced_ids) {
      comp->original_ids.push_back(prepared->original_ids[r]);
    }
    prepared->components.push_back(std::move(comp));
  }
  prepared->prepare_micros = timer.ElapsedMicros();
  return prepared;
}

IncumbentSeed SeedIncumbent(const AttributedGraph& g,
                            const PreparedGraph& prepared,
                            const SearchOptions& options) {
  obs::ProfileScope profile_scope("SeedIncumbent");
  IncumbentSeed seed;
  const AttributedGraph& rg = prepared.reduced;
  if (options.use_heuristic && rg.num_vertices() > 0) {
    WallTimer heur_timer;
    HeuristicOptions hopts{.params = options.params};
    HeuristicResult heur = HeurRFC(rg, hopts);
    seed.heuristic_micros = heur_timer.ElapsedMicros();
    seed.heuristic_size = static_cast<int64_t>(heur.clique.size());
    if (!heur.clique.empty()) {
      seed.clique.attr_counts = heur.clique.attr_counts;
      for (VertexId v : heur.clique.vertices) {
        seed.clique.vertices.push_back(prepared.original_ids[v]);
      }
    }
  }
  // Optional warm start from a caller-supplied known fair clique (dynamic
  // re-queries seed the previous epoch's answer). Verified against the
  // *original* graph — reduction may have pruned its vertices, but the
  // incumbent only flows into pruning through its size.
  if (static_cast<int64_t>(options.warm_start.size()) >
          static_cast<int64_t>(seed.clique.size()) &&
      VerifyFairClique(g, options.warm_start, options.params).ok()) {
    seed.clique.vertices = options.warm_start;
    seed.clique.attr_counts = CountAttributes(g, options.warm_start);
  }
  return seed;
}

ComponentBranchResult BranchComponent(const PreparedGraph& prepared,
                                      size_t component,
                                      const SearchOptions& options,
                                      const Deadline& deadline,
                                      std::atomic<int64_t>* floor) {
  FC_CHECK(prepared.Compatible(options))
      << "BranchComponent: options (k, reductions) do not match the plan";
  ComponentBranchResult out;
  const PreparedComponent& comp = *prepared.components[component];
  int64_t known =
      floor != nullptr ? floor->load(std::memory_order_relaxed) : 0;
  if (static_cast<int64_t>(comp.graph.num_vertices()) <
      std::max<int64_t>(2 * options.params.k, known + 1)) {
    return out;  // Component too small to beat the incumbent.
  }
  obs::ProfileScope profile_scope("BranchComponent");
  WallTimer timer;
  const std::vector<uint32_t>& rank_of = comp.BranchPositions(options.order);
  auto to_original = [&comp](VertexId local) {
    return comp.original_ids[local];
  };
  if (ResolveEngine(options.engine, comp.graph.num_vertices()) ==
      SearchEngine::kBitset) {
    BitsetComponentSearch search(comp.graph, rank_of, options, deadline,
                                 &out.stats, &out.best, floor);
    search.Run(to_original);
    out.aborted = search.aborted();
  } else {
    ComponentSearch search(comp.graph, rank_of, options, deadline, &out.stats,
                           &out.best, floor);
    search.Run(to_original);
    out.aborted = search.aborted();
  }
  out.stats.search_micros = timer.ElapsedMicros();
  return out;
}

SearchResult AggregatePreparedSearch(
    const PreparedGraph& prepared, const IncumbentSeed& seed,
    std::span<const ComponentBranchResult> results) {
  SearchResult result;
  result.clique = seed.clique;
  result.stats.heuristic_micros = seed.heuristic_micros;
  result.stats.heuristic_size = seed.heuristic_size;
  result.stats.reduction_stages = prepared.stages;
  for (const ComponentBranchResult& task : results) {
    result.stats.nodes += task.stats.nodes;
    result.stats.bound_prunes += task.stats.bound_prunes;
    result.stats.size_prunes += task.stats.size_prunes;
    result.stats.attr_prunes += task.stats.attr_prunes;
    result.stats.cap_removals += task.stats.cap_removals;
    result.stats.component_search_micros += task.stats.search_micros;
    if (task.aborted) result.stats.completed = false;
    result.stats.stop_reason =
        std::max(result.stats.stop_reason, task.stats.stop_reason);
    if (task.best.size() > result.clique.size()) {
      result.clique = task.best;
    }
  }
  std::sort(result.clique.vertices.begin(), result.clique.vertices.end());
  return result;
}

SearchResult SearchPreparedGraph(
    const AttributedGraph& g, const PreparedGraph& prepared,
    const SearchOptions& options,
    std::vector<ComponentBranchResult>* per_component) {
  FC_CHECK(options.params.k >= 1) << "fairness parameter k must be >= 1";
  FC_CHECK(options.params.delta >= 0) << "delta must be >= 0";
  FC_CHECK(prepared.Compatible(options))
      << "SearchPreparedGraph: options (k, reductions) do not match the plan";
  FC_CHECK(g.num_vertices() >= prepared.source_vertices)
      << "SearchPreparedGraph: graph is smaller than the plan's source";

  WallTimer total_timer;
  Deadline deadline(options.time_limit_seconds);

  IncumbentSeed seed = SeedIncumbent(g, prepared, options);
  std::atomic<int64_t> floor{static_cast<int64_t>(seed.clique.size())};

  WallTimer search_timer;
  std::vector<ComponentBranchResult> results(prepared.components.size());
  int num_threads = options.num_threads;
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  // One component per chunk; the caller branches too, so the call starts
  // num_threads - 1 threads, and never more than there are components.
  // Once a component aborts (a safety valve fired), the components not yet
  // started are skipped.
  ThreadRunner runner(num_threads);
  std::atomic<bool> aborted{false};
  ParallelFor(&runner, prepared.components.size(), 1,
              [&](int, size_t first, size_t last) {
                for (size_t i = first; i < last; ++i) {
                  if (aborted.load(std::memory_order_relaxed)) return;
                  results[i] =
                      BranchComponent(prepared, i, options, deadline, &floor);
                  if (options.progress != nullptr) {
                    options.progress->NoteComponentDone();
                  }
                  if (results[i].aborted) {
                    aborted.store(true, std::memory_order_relaxed);
                  }
                }
              });

  SearchResult result = AggregatePreparedSearch(prepared, seed, results);
  result.stats.search_micros = search_timer.ElapsedMicros();
  result.stats.total_micros = total_timer.ElapsedMicros();
  if (per_component != nullptr) *per_component = std::move(results);
  return result;
}

}  // namespace fairclique
