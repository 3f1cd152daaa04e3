#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitset_simd.h"
#include "common/build_info.h"
#include "common/random.h"
#include "core/prepared_graph.h"
#include "core/verifier.h"
#include "datasets/datasets.h"
#include "dynamic/dynamic_graph.h"
#include "graph/fingerprint.h"
#include "harness.h"
#include "service/graph_registry.h"
#include "service/prepared_graph_cache.h"
#include "service/query_executor.h"
#include "service/result_cache.h"
#include "service/wire.h"
#include "storage/storage_manager.h"

namespace perfbench {
namespace {

using namespace fairclique;
namespace fs = std::filesystem;

// fairclique_server's defaults.
constexpr size_t kResultCacheCapacity = 128;
constexpr size_t kPlanCacheCapacity = 16;
constexpr size_t kQueueCapacity = 256;

// Set-up runs at least kSetupMinRepeats times per run, and again while the
// set-ups so far took less than kSetupMinSeconds (serve-mixed's takes
// 0.18 s, and the median of five spread 0.26 over ten runs), up to
// kSetupMaxRepeats; setup_s is their median.
constexpr int kSetupMinRepeats = 5;
constexpr int kSetupMaxRepeats = 25;
constexpr double kSetupMinSeconds = 2.0;

// Update batches applied after the read passes of cold-reduce and
// branch-sweep, so every workload measures the write path (uncontended, at
// its own graph scale) and its durability. They all go to the workload's
// first graph: alternating between two graphs of different size put the
// median write on the boundary between their costs.
constexpr int kClosedLoopWrites = 200;

// cold-reduce and branch-sweep run passes until `seconds` have passed and
// at least this many reads are done, so that read_p95_ms has ten samples
// beyond it. At 30 s a slow run of cold-reduce made only 165.
constexpr size_t kMinPassReads = 200;

// serve-mixed runs in whole rounds of kServeRoundOps operations: every
// kServeWriteEvery-th one is a write; of the reads, kServeScanReads are the
// next cards of a deck holding every key once (the scan) and the rest are
// Zipf(kServeZipf) cards over the key ranks. The graphs take the writes in
// turns, and about three reads in four are result-cache hits.
constexpr size_t kServeRoundOps = 2000;
constexpr size_t kServeWriteEvery = 10;
constexpr size_t kServeScanReads = 150;
constexpr double kServeZipf = 1.8;

// Operations of the seeded stream folded into the printed ops_hash.
constexpr int kHashedOps = 256;

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

enum class Preset { kBaseline, kBounded, kFull };

const char* PresetName(Preset p) {
  switch (p) {
    case Preset::kBaseline:
      return "baseline";
    case Preset::kBounded:
      return "bounded";
    case Preset::kFull:
      break;
  }
  return "full";
}

struct ReadKey {
  std::string graph;
  int k = 1;
  int delta = 0;
  Preset preset = Preset::kFull;
};

SearchOptions OptionsFor(const ReadKey& key) {
  switch (key.preset) {
    case Preset::kBaseline:
      return BaselineOptions(key.k, key.delta);
    case Preset::kBounded:
      return BoundedOptions(key.k, key.delta, ExtraBound::kColorfulPath);
    case Preset::kFull:
      break;
  }
  return FullOptions(key.k, key.delta, ExtraBound::kColorfulPath);
}

/// A registered graph: the LoadDataset stand-in `dataset` at `scale`. The
/// instances are fixed; the seed draws the read order, the Zipf keys and
/// the update batches. Branch-and-bound and reduction cost are properties
/// of the instance: over seeded draws of the datasets.cc recipes the
/// cold-reduce median read took 119 to 221 ms (16 seeds) and the
/// branch-sweep one 4 ms to 1.1 s (5 seeds), while repeated runs on one
/// instance agree within a few percent.
struct GraphSpec {
  std::string name;
  std::string dataset;
  double scale = 1.0;
};

/// What one workload runs.
struct Plan {
  std::vector<GraphSpec> graphs;
  std::vector<ReadKey> keys;
  int workers = 1;
  /// serve-mixed: a Zipf-drawn stream of reads and writes instead of
  /// passes over the keys.
  bool mixed = false;
  bool bypass_result_cache = false;
  bool bypass_plan_cache = false;
  /// Build every (graph, k) plan and its branch orderings during set-up.
  bool prebuild_plans = false;
};

Plan MakePlan(const std::string& workload) {
  Plan plan;
  if (workload == "cold-reduce") {
    // k = 3..7 on both graphs plus k = 6, delta = 1 on pokec-s. The median
    // read then falls in the middle of three queries of about the same
    // cost (dblp-s k = 4, pokec-s k = 6 with delta 1 and 2; the reduction,
    // which depends on k alone, is most of their cost). With the ten
    // queries it fell on the boundary between the two of them, and with
    // k = 8 on dblp-s as the eleventh, 4% of the reads above the cheaper
    // pokec-s k = 7 block, in the lower tail of the costlier two: runs
    // spread 0.15 of the median.
    plan.graphs = {{"dblp-s", "dblp-s", 4.0}, {"pokec-s", "pokec-s", 4.0}};
    for (const GraphSpec& g : plan.graphs) {
      for (int k = 3; k <= 7; ++k) {
        plan.keys.push_back({g.name, k, 2, Preset::kFull});
      }
    }
    plan.keys.push_back({"pokec-s", 6, 1, Preset::kFull});
    plan.workers = Nproc();
    plan.bypass_result_cache = true;
    plan.bypass_plan_cache = true;
  } else if (workload == "branch-sweep") {
    plan.graphs = {{"themarker-s", "themarker-s", 4.0}};
    for (int k = 2; k <= 4; ++k) {
      for (int delta = 0; delta <= 2; ++delta) {
        for (Preset p : {Preset::kBaseline, Preset::kBounded, Preset::kFull}) {
          plan.keys.push_back({"themarker-s", k, delta, p});
        }
      }
    }
    plan.workers = Nproc();
    plan.bypass_result_cache = true;
    plan.prebuild_plans = true;
  } else {
    for (const DatasetSpec& spec : StandardDatasets()) {
      plan.graphs.push_back({spec.name, spec.name, 1.0});
      for (int k : spec.k_range) {
        for (int delta = 0; delta <= 4; ++delta) {
          for (Preset p : {Preset::kBounded, Preset::kFull}) {
            plan.keys.push_back({spec.name, k, delta, p});
          }
        }
      }
    }
    // Executor workers plus the client thread stay <= nproc.
    plan.workers = std::max(1, Nproc() - 1);
    plan.mixed = true;
  }
  return plan;
}

/// The objects fairclique_server wires up, at its defaults, in its member
/// order (the executor drains before the caches it borrows go away).
struct Service {
  explicit Service(int workers)
      : cache(kResultCacheCapacity),
        prepared(kPlanCacheCapacity),
        executor(ExecutorOptions{workers, kQueueCapacity}, &cache, &prepared) {
    registry.AttachCache(&cache);
    registry.AttachPreparedCache(&prepared);
  }
  ~Service() { registry.AttachStorage(nullptr); }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  GraphRegistry registry;
  ResultCache cache;
  PreparedGraphCache prepared;
  QueryExecutor executor;
  std::unique_ptr<storage::StorageManager> storage;
  std::map<std::string, std::unique_ptr<DynamicGraph>> dynamics;
};

struct SetupTimes {
  double total_s = 0.0;
  double generate_s = 0.0;
  double register_s = 0.0;
  double persist_s = 0.0;
};

/// Generates every graph, registers it and persists its snapshot
/// into a fresh data dir, then attaches the storage for the write path's
/// write-through. Registering before persisting (the server's Add with the
/// storage attached does both in one call) lets the two costs show apart.
Status SetUp(Service& svc, const Plan& plan, const std::string& data_dir,
             SetupTimes* times) {
  std::error_code ec;
  fs::remove_all(data_dir, ec);
  fs::create_directories(data_dir, ec);
  if (ec) return Status::IOError("cannot create " + data_dir);
  FAIRCLIQUE_RETURN_NOT_OK(storage::StorageManager::Open(
      data_dir, storage::StorageManager::Options{}, &svc.storage));
  for (const GraphSpec& spec : plan.graphs) {
    const int64_t t0 = NowNs();
    AttributedGraph g = LoadDataset(spec.dataset, spec.scale);
    const int64_t t1 = NowNs();
    FAIRCLIQUE_RETURN_NOT_OK(
        svc.registry.Add(spec.name, std::move(g), "dataset:" + spec.dataset));
    const int64_t t2 = NowNs();
    auto entry = svc.registry.Get(spec.name);
    FAIRCLIQUE_RETURN_NOT_OK(svc.storage->PersistGraph(
        spec.name, *entry->graph, entry->version, entry->fingerprint,
        entry->source));
    const int64_t t3 = NowNs();
    times->generate_s += (t1 - t0) / 1e9;
    times->register_s += (t2 - t1) / 1e9;
    times->persist_s += (t3 - t2) / 1e9;
  }
  svc.registry.AttachStorage(svc.storage.get());
  if (plan.prebuild_plans) {
    for (const ReadKey& key : plan.keys) {
      auto entry = svc.registry.Get(key.graph);
      const SearchOptions options = OptionsFor(key);
      bool built = false;
      auto prepared = svc.prepared.GetOrPrepare(
          PreparedGraphCache::MakeKey(entry->fingerprint, key.k,
                                      options.reductions),
          entry->fingerprint,
          [&] {
            return PrepareGraph(*entry->graph, key.k, options.reductions);
          },
          &built);
      for (const auto& component : prepared->components) {
        component->BranchPositions(options.order);
      }
    }
  }
  return Status::OK();
}

/// One read as the client saw it.
struct Read {
  size_t key = 0;
  /// The registered snapshot the read was submitted against.
  uint64_t version = 0;
  uint64_t fingerprint = 0;
  QueryResponse response;
  double latency_ms = 0.0;
  /// False for serve-mixed's warm-up reads: checked, but not timed.
  bool timed = true;
  bool traced = false;
  /// Answer size of the traced staged run of the same query; -1 when none.
  int64_t staged_size = -1;
};

bool ReadFailed(const Read& r) {
  return !r.response.status.ok() || r.response.result == nullptr ||
         r.response.deadline_missed;
}

struct Write {
  double latency_ms = 0.0;
  bool ok = false;
};

/// Draws update batches that stay valid whatever came before them: each
/// vertex pair is added or removed at most once per run (adds only pairs
/// that are non-edges of the initial graph, removals only its edges), and
/// attribute flips track the current attribute of every flipped vertex.
class WritePlanner {
 public:
  explicit WritePlanner(uint64_t seed) : rng_(seed) {}

  std::vector<UpdateOp> Next(const std::string& name,
                             const AttributedGraph& base) {
    GraphState& st = state_[name];
    std::vector<UpdateOp> batch;
    const VertexId n = base.num_vertices();
    const double kind = rng_.NextDouble();
    if (kind < 0.4) {
      // Insert-only: cached cliques migrate as exact-chain hints.
      while (batch.size() < 4) {
        VertexId u = static_cast<VertexId>(rng_.NextBounded(n));
        VertexId v = static_cast<VertexId>(rng_.NextBounded(n));
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        if (base.HasEdge(u, v) || !st.touched.insert({u, v}).second) continue;
        batch.push_back(AddEdgeOp(u, v));
      }
    } else if (kind < 0.7) {
      while (batch.size() < 4) {
        const Edge& e = base.edges()[rng_.NextBounded(base.num_edges())];
        const VertexId u = std::min(e.u, e.v), v = std::max(e.u, e.v);
        if (!st.touched.insert({u, v}).second) continue;
        batch.push_back(RemoveEdgeOp(u, v));
      }
    } else {
      // Attribute flips downgrade cached cliques to warm-start hints.
      std::set<VertexId> picked;
      while (batch.size() < 2) {
        const VertexId v = static_cast<VertexId>(rng_.NextBounded(n));
        if (!picked.insert(v).second) continue;
        auto it = st.attrs.find(v);
        const Attribute now = it == st.attrs.end() ? base.attribute(v)
                                                   : it->second;
        st.attrs[v] = Other(now);
        batch.push_back(SetAttributeOp(v, Other(now)));
      }
    }
    return batch;
  }

 private:
  struct GraphState {
    std::set<std::pair<VertexId, VertexId>> touched;
    std::map<VertexId, Attribute> attrs;
  };
  Rng rng_;
  std::map<std::string, GraphState> state_;
};

uint64_t HashBatch(uint64_t h, const std::string& graph,
                   const std::vector<UpdateOp>& batch) {
  for (char c : graph) h = MixSeed(h, static_cast<uint8_t>(c));
  for (const UpdateOp& op : batch) {
    h = MixSeed(h, (static_cast<uint64_t>(op.kind) << 56) ^
                       (static_cast<uint64_t>(op.u) << 24) ^ op.v ^
                       (static_cast<uint64_t>(op.attr) << 62));
  }
  return h;
}

/// Apply -> AppendUpdate -> Replace, in fairclique_server's order, with a
/// span around each call. The DynamicGraph shadow is created on a graph's
/// first update, as the server does.
Status ApplyWrite(Service& svc, const std::string& name,
                  const std::vector<UpdateOp>& batch, Tracer& tracer,
                  uint64_t qid, UpdateSummary* summary) {
  ScopedSpan root(tracer, "write", -1, qid);
  auto [it, created] = svc.dynamics.try_emplace(name);
  if (created) {
    auto entry = svc.registry.Get(name);
    it->second = std::make_unique<DynamicGraph>(*entry->graph, entry->version);
  }
  DynamicGraph& dyn = *it->second;
  const std::span<const UpdateOp> ops(batch.data(), batch.size());
  {
    ScopedSpan span(tracer, "dynamic.apply", root.id(), qid);
    FAIRCLIQUE_RETURN_NOT_OK(dyn.Apply(ops, summary));
  }
  {
    ScopedSpan span(tracer, "storage.append", root.id(), qid);
    FAIRCLIQUE_RETURN_NOT_OK(svc.storage->AppendUpdate(name, *summary, ops));
  }
  ScopedSpan span(tracer, "service.replace", root.id(), qid);
  ReplaceReport report;
  return svc.registry.Replace(name, dyn.snapshot(), summary->version, summary,
                              &report);
}

/// Counts the staged runs of traced reads add up, per layer.
struct CoreCounts {
  size_t staged_reads = 0;
  size_t prepared_reads = 0;
  uint64_t nodes = 0;
  uint64_t bound_prunes = 0;
  uint64_t size_prunes = 0;
  uint64_t attr_prunes = 0;
  // Program-reported PreparedGraph::stages, in pipeline order.
  double stage_ms[3] = {0, 0, 0};
  double edges_in[3] = {0, 0, 0};
  double edges_out[3] = {0, 0, 0};
};

constexpr const char* kStageNames[3] = {"EnColorfulCore", "ColorfulSup",
                                        "EnColorfulSup"};

/// The query's staged pipeline run directly on the calling thread, with a
/// span around each core call: PrepareGraph (or the plan-cache probe),
/// SeedIncumbent, BranchPositions and BranchComponent per selected
/// component, AggregatePreparedSearch. Returns the answer size.
size_t RunStaged(Service& svc, const RegisteredGraph& entry,
                 const SearchOptions& options, bool cold, Tracer& tracer,
                 uint64_t qid, CoreCounts* counts) {
  ScopedSpan root(tracer, "staged", -1, qid);
  std::shared_ptr<const PreparedGraph> prepared;
  if (cold) {
    ScopedSpan span(tracer, "core.prepare", root.id(), qid);
    prepared =
        PrepareGraph(*entry.graph, options.params.k, options.reductions);
  } else {
    ScopedSpan span(tracer, "service.plan_probe", root.id(), qid);
    bool built = false;
    prepared = svc.prepared.GetOrPrepare(
        PreparedGraphCache::MakeKey(entry.fingerprint, options.params.k,
                                    options.reductions),
        entry.fingerprint,
        [&] {
          return PrepareGraph(*entry.graph, options.params.k,
                              options.reductions);
        },
        &built);
  }
  IncumbentSeed seed;
  {
    ScopedSpan span(tracer, "core.seed", root.id(), qid);
    seed = SeedIncumbent(*entry.graph, *prepared, options);
  }
  std::atomic<int64_t> floor{static_cast<int64_t>(seed.clique.size())};
  // The executor's component selection.
  const int64_t target =
      std::max<int64_t>(2 * options.params.k,
                        static_cast<int64_t>(seed.clique.size()) + 1);
  std::vector<size_t> selected;
  for (size_t i = 0; i < prepared->components.size(); ++i) {
    if (static_cast<int64_t>(prepared->components[i]->graph.num_vertices()) >=
        target) {
      selected.push_back(i);
    }
  }
  for (size_t i : selected) {
    ScopedSpan span(tracer, "core.order", root.id(), qid);
    prepared->components[i]->BranchPositions(options.order);
  }
  std::vector<ComponentBranchResult> results;
  const Deadline unlimited;
  for (size_t i : selected) {
    ScopedSpan span(tracer, "core.branch", root.id(), qid);
    results.push_back(
        BranchComponent(*prepared, i, options, unlimited, &floor));
  }
  SearchResult result;
  {
    ScopedSpan span(tracer, "core.aggregate", root.id(), qid);
    result = AggregatePreparedSearch(*prepared, seed, results);
  }
  ++counts->staged_reads;
  counts->nodes += result.stats.nodes;
  counts->bound_prunes += result.stats.bound_prunes;
  counts->size_prunes += result.stats.size_prunes;
  counts->attr_prunes += result.stats.attr_prunes;
  if (cold) {
    ++counts->prepared_reads;
    double edges = static_cast<double>(prepared->source_edges);
    for (const ReductionStageStats& stage : prepared->stages) {
      for (int s = 0; s < 3; ++s) {
        if (stage.name != kStageNames[s]) continue;
        counts->stage_ms[s] += stage.micros / 1e3;
        counts->edges_in[s] += edges;
        counts->edges_out[s] += static_cast<double>(stage.edges_left);
      }
      edges = static_cast<double>(stage.edges_left);
    }
  }
  return result.clique.size();
}

/// An acknowledged update batch, kept so the answer check can replay every
/// snapshot instead of the run holding them all in memory.
struct AckedWrite {
  std::string graph;
  uint64_t version = 0;  // the epoch the batch produced
  std::vector<UpdateOp> batch;
};

/// Everything the measured phase produced.
struct RunLog {
  /// The registered graphs the measured phase started from.
  std::map<std::string, std::shared_ptr<const RegisteredGraph>> initial;
  std::vector<Read> reads;
  std::vector<Write> writes;
  std::vector<AckedWrite> acked_writes;
  /// Client gap per operation: from the previous operation's end to this
  /// one's start, the load generator's own overhead.
  std::vector<double> late_ms;
  CoreCounts core;
  uint64_t serialized_bytes = 0;
  uint64_t ops_hash = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> acked;  // version, fp
};

void RecordAck(RunLog* log, const std::string& name,
               const std::vector<UpdateOp>& batch,
               const UpdateSummary& summary) {
  log->acked[name] = {summary.version, summary.fingerprint};
  log->acked_writes.push_back({name, summary.version, batch});
}

/// Sends one read and waits for it, as one closed-loop client, through
/// Submit, or through the synchronous Run on serve-mixed; on a traced pass
/// of the other workloads the same query then runs staged for the per-layer
/// split.
void ClosedLoopRead(Service& svc, const Plan& plan, size_t key_index,
                    Tracer& tracer, uint64_t qid, RunLog* log) {
  const ReadKey& key = plan.keys[key_index];
  Read read;
  read.key = key_index;
  read.traced = tracer.enabled();
  std::shared_ptr<const RegisteredGraph> entry = svc.registry.Get(key.graph);
  read.version = entry->version;
  read.fingerprint = entry->fingerprint;
  QueryRequest request;
  request.graph = entry;
  request.options = OptionsFor(key);
  request.bypass_cache = plan.bypass_result_cache;
  request.bypass_prepared_cache = plan.bypass_plan_cache;
  const int64_t t0 = NowNs();
  {
    ScopedSpan root(tracer, "read", -1, qid);
    if (plan.mixed) {
      ScopedSpan span(tracer, "service.run", root.id(), qid);
      read.response = svc.executor.Run(request);
    } else {
      ScopedSpan span(tracer, "service.submit_get", root.id(), qid);
      read.response = svc.executor.Submit(std::move(request)).get();
    }
    ScopedSpan span(tracer, "service.serialize", root.id(), qid);
    log->serialized_bytes +=
        wire::QueryResponseJson(qid, key.graph, read.response).size();
  }
  read.latency_ms = (NowNs() - t0) / 1e6;
  if (read.traced && !plan.mixed) {
    read.staged_size = static_cast<int64_t>(
        RunStaged(svc, *entry, OptionsFor(key), plan.bypass_plan_cache,
                  tracer, qid, &log->core));
  }
  log->reads.push_back(std::move(read));
}

struct Counters {
  ResultCacheStats cache;
  PreparedGraphCacheStats plans;
  ExecutorMetrics exec;
  storage::StorageCounters storage;
};

Counters Snapshot(Service& svc) {
  return Counters{svc.cache.Stats(), svc.prepared.Stats(),
                  svc.executor.metrics(), svc.storage->counters()};
}

/// One closed-loop client: whole passes over the keys, each in a fresh
/// seeded order, until `seconds` have passed and kMinPassReads reads are
/// done. On a traced run every other
/// pass is traced, so traced and untraced reads interleave in time. Then
/// kClosedLoopWrites update batches run back to back. `before` gets the
/// counters as timing starts.
void RunPasses(Service& svc, const Plan& plan, const RunArgs& args,
               Tracer& traced, RunLog* log, Counters* before) {
  Tracer untraced(false);
  *before = Snapshot(svc);
  Rng order_rng(MixSeed(args.seed, 0x0D));
  std::vector<size_t> order(plan.keys.size());
  uint64_t qid = 0;
  const int64_t end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  int64_t last_done = NowNs();
  for (int pass = 0;
       pass == 0 || NowNs() < end || log->reads.size() < kMinPassReads;
       ++pass) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    order_rng.Shuffle(order);
    if (pass == 0) {
      for (size_t i : order) log->ops_hash = MixSeed(log->ops_hash, i);
    }
    Tracer& tracer = traced.enabled() && pass % 2 == 1 ? traced : untraced;
    for (size_t i : order) {
      log->late_ms.push_back((NowNs() - last_done) / 1e6);
      ClosedLoopRead(svc, plan, i, tracer, ++qid, log);
      last_done = NowNs();
    }
  }
  WritePlanner planner(MixSeed(args.seed, 0x3A));
  for (int w = 0; w < kClosedLoopWrites; ++w) {
    const std::string& name = plan.graphs.front().name;
    const std::vector<UpdateOp> batch =
        planner.Next(name, *log->initial.at(name)->graph);
    log->ops_hash = HashBatch(log->ops_hash, name, batch);
    Tracer& tracer = traced.enabled() && w % 2 == 1 ? traced : untraced;
    UpdateSummary summary;
    const int64_t t0 = NowNs();
    Status status = ApplyWrite(svc, name, batch, tracer, ++qid, &summary);
    log->writes.push_back({(NowNs() - t0) / 1e6, status.ok()});
    if (status.ok()) RecordAck(log, name, batch, summary);
  }
}

/// A seeded cyclic order over a fixed multiset of cards: every cycle of
/// cards.size() draws deals each card once, in a fresh shuffled order.
class Deck {
 public:
  explicit Deck(std::vector<size_t> cards)
      : cards_(std::move(cards)), next_(cards_.size()) {}

  size_t Next(Rng& rng) {
    if (next_ == cards_.size()) {
      rng.Shuffle(cards_);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<size_t> cards_;
  size_t next_;
};

/// 0, 1, ..., n - 1.
std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

/// `size` cards over the keys in `by_rank` order, each rank r holding its
/// Zipf(exponent) share of the cards, rounded by largest remainder. Ranks
/// whose share rounds to nothing get no card.
std::vector<size_t> ZipfCards(const std::vector<size_t>& by_rank,
                              double exponent, size_t size) {
  std::vector<double> quota(by_rank.size());
  double total = 0.0;
  for (size_t r = 0; r < quota.size(); ++r) {
    quota[r] = 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    total += quota[r];
  }
  std::vector<size_t> count(quota.size());
  size_t dealt = 0;
  for (size_t r = 0; r < quota.size(); ++r) {
    quota[r] *= static_cast<double>(size) / total;
    count[r] = static_cast<size_t>(quota[r]);
    dealt += count[r];
  }
  std::vector<size_t> by_remainder = Iota(quota.size());
  std::stable_sort(by_remainder.begin(), by_remainder.end(),
                   [&](size_t a, size_t b) {
                     return quota[a] - count[a] > quota[b] - count[b];
                   });
  for (size_t i = 0; dealt < size; ++i, ++dealt) ++count[by_remainder[i]];
  std::vector<size_t> cards;
  for (size_t r = 0; r < count.size(); ++r) {
    cards.insert(cards.end(), count[r], by_rank[r]);
  }
  return cards;
}

/// serve-mixed: one client sends a seeded stream of operations back to back,
/// as one connection piping commands to fairclique_server does. Reads go
/// through QueryExecutor::Run, the executor's cache path on the calling
/// thread: a hit then costs its probe, not two thread hand-offs, whose
/// wake-up latency moved the median read 3.5x between identical runs
/// through Submit. Writes run inline.
///
/// The stream's shape is fixed and only its order and update batches are
/// seeded, so that every run does the same mix of work and its percentiles
/// fall on the same kind of read. It runs in whole rounds (kServeRoundOps operations), started
/// until `seconds` have passed:
///  - every kServeWriteEvery-th operation is a write, and the graphs take
///    writes in turns that visit each graph once (a write sends the graph's
///    next reads down the incremental, warm-start and cold paths; with
///    uniform draws the writes to the costliest graph, and with them the
///    read tail, varied by several percent between seeds);
///  - the reads of a round are shuffled together from kServeScanReads
///    cards of a deck holding every key once, a scan over more distinct
///    keys than the result cache holds, so it can evict (how often depends
///    on the seed), and cards holding
///    each key its Zipf share of the other reads, which make most reads
///    result-cache hits. Which key holds which rank is part of the
///    workload, not of the seed, so every seed reads the same hot set.
/// A write drops every plan of its graph, so the plan cache never holds
/// more live plans than its 16 slots and does not evict. A warm-up reads
/// every key once, least popular first, so the timed phase starts with the
/// result cache full and the hot set in it. `before` gets the counters as
/// timing starts. On a traced run every other second is traced.
void RunMixed(Service& svc, const Plan& plan, const RunArgs& args,
              Tracer& traced, RunLog* log, Counters* before) {
  Rng popularity(0x5C);
  std::vector<size_t> by_rank = Iota(plan.keys.size());
  popularity.Shuffle(by_rank);
  const size_t round_reads = kServeRoundOps - kServeRoundOps / kServeWriteEvery;
  const std::vector<size_t> hot =
      ZipfCards(by_rank, kServeZipf, round_reads - kServeScanReads);
  std::vector<size_t> reads;
  Rng rng(MixSeed(args.seed, 0x5C));
  Deck scan_keys(by_rank);
  Deck write_graphs(Iota(plan.graphs.size()));
  WritePlanner planner(MixSeed(args.seed, 0x3A));
  Tracer untraced(false);
  uint64_t qid = 0;
  for (auto it = by_rank.rbegin(); it != by_rank.rend(); ++it) {
    ClosedLoopRead(svc, plan, *it, untraced, ++qid, log);
    log->reads.back().timed = false;
  }
  *before = Snapshot(svc);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  int64_t last_done = start;
  for (int round = 0; round == 0 || NowNs() < end; ++round) {
    reads = hot;
    for (size_t i = 0; i < kServeScanReads; ++i) {
      reads.push_back(scan_keys.Next(rng));
    }
    rng.Shuffle(reads);
    size_t next_read = 0;
    for (size_t op = 1; op <= kServeRoundOps; ++op) {
      const int64_t now = NowNs();
      Tracer& tracer =
          traced.enabled() && (now - start) / 1000000000 % 2 == 1 ? traced
                                                                  : untraced;
      log->late_ms.push_back((now - last_done) / 1e6);
      const bool hashed = round == 0 && op <= kHashedOps;
      ++qid;
      if (op % kServeWriteEvery == 0) {
        const std::string& name = plan.graphs[write_graphs.Next(rng)].name;
        const std::vector<UpdateOp> batch =
            planner.Next(name, *log->initial.at(name)->graph);
        if (hashed) log->ops_hash = HashBatch(log->ops_hash, name, batch);
        UpdateSummary summary;
        const int64_t t0 = NowNs();
        Status status = ApplyWrite(svc, name, batch, tracer, qid, &summary);
        log->writes.push_back({(NowNs() - t0) / 1e6, status.ok()});
        if (status.ok()) RecordAck(log, name, batch, summary);
      } else {
        const size_t key = reads[next_read++];
        if (hashed) log->ops_hash = MixSeed(log->ops_hash, key);
        ClosedLoopRead(svc, plan, key, tracer, qid, log);
      }
      last_done = NowNs();
    }
  }
}

/// Checks `reads`, all submitted against `snapshot` (epoch `version` of
/// graph `name`), against the verifier and the enumeration oracle, which
/// (OracleSizes) enumerates the snapshot once. Returns "" when every read
/// holds.
std::string CheckSnapshot(const Plan& plan, const std::string& name,
                          uint64_t version, const AttributedGraph& snapshot,
                          const std::vector<const Read*>& reads) {
  const uint64_t fingerprint = GraphFingerprint(snapshot);
  std::map<std::pair<int, int>, size_t> oracle;  // (k, delta) -> size
  for (const Read* r : reads) {
    oracle[{plan.keys[r->key].k, plan.keys[r->key].delta}] = 0;
  }
  OracleSizes(snapshot, &oracle);
  for (const Read* r : reads) {
    const ReadKey& key = plan.keys[r->key];
    const std::vector<VertexId>& clique = r->response.result->clique.vertices;
    const size_t expected = oracle.at({key.k, key.delta});
    char where[160];
    std::snprintf(where, sizeof(where), "%s k=%d delta=%d %s version %" PRIu64,
                  name.c_str(), key.k, key.delta, PresetName(key.preset),
                  version);
    if (fingerprint != r->fingerprint) {
      return std::string("cannot rebuild the snapshot of ") + where;
    }
    if (!clique.empty()) {
      Status status = VerifyFairClique(snapshot, clique,
                                       FairnessParams{key.k, key.delta});
      if (!status.ok()) {
        return std::string("answer fails the verifier on ") + where + ": " +
               status.ToString();
      }
    }
    if (clique.size() != expected) {
      return "answer size " + std::to_string(clique.size()) + " != oracle " +
             std::to_string(expected) + " on " + where;
    }
    if (r->staged_size >= 0 &&
        static_cast<size_t>(r->staged_size) != expected) {
      return std::string("traced staged answer differs on ") + where;
    }
  }
  return "";
}

/// Checks the successful reads of graph `name` on the snapshot each was
/// submitted against. The snapshots are rebuilt by replaying the
/// acknowledged batches on a DynamicGraph, so the run need not hold them
/// all; a rebuilt fingerprint that differs from the one the read ran on
/// fails the check. Snapshots are checked kCheckBatch at a time on nproc
/// threads. Returns "" when every read holds.
std::string CheckGraph(const RunLog& log, const Plan& plan,
                       const std::string& name) {
  constexpr size_t kCheckBatch = 16;
  std::map<uint64_t, std::vector<const Read*>> by_version;
  for (const Read& r : log.reads) {
    if (!ReadFailed(r) && plan.keys[r.key].graph == name) {
      by_version[r.version].push_back(&r);
    }
  }
  std::vector<const AckedWrite*> writes;
  for (const AckedWrite& w : log.acked_writes) {
    if (w.graph == name) writes.push_back(&w);
  }
  struct Job {
    uint64_t version;
    std::shared_ptr<const AttributedGraph> snapshot;
    const std::vector<const Read*>* reads;
    std::string error;
  };
  std::vector<Job> batch;
  auto check_batch = [&]() -> std::string {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < Nproc(); ++t) {
      pool.emplace_back([&] {
        for (size_t i = next++; i < batch.size(); i = next++) {
          Job& job = batch[i];
          job.error =
              CheckSnapshot(plan, name, job.version, *job.snapshot, *job.reads);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (const Job& job : batch) {
      if (!job.error.empty()) return job.error;
    }
    batch.clear();
    return "";
  };
  const RegisteredGraph& entry = *log.initial.at(name);
  DynamicGraph replay(*entry.graph, entry.version);
  size_t next_write = 0;
  for (const auto& [version, reads] : by_version) {
    while (replay.version() < version && next_write < writes.size()) {
      const AckedWrite& w = *writes[next_write++];
      Status status = replay.Apply(
          std::span<const UpdateOp>(w.batch.data(), w.batch.size()));
      if (!status.ok() || replay.version() != w.version) {
        return "replaying the writes to " + name + " failed";
      }
    }
    if (replay.version() != version) {
      return "cannot rebuild version " + std::to_string(version) + " of " +
             name;
    }
    batch.push_back({version, replay.snapshot(), &reads, ""});
    if (batch.size() == kCheckBatch) {
      std::string error = check_batch();
      if (!error.empty()) return error;
    }
  }
  return check_batch();
}

/// CheckGraph for every graph, the graphs side by side so that the cores
/// stay busy between one graph's batches.
bool CheckAnswers(const RunLog& log, const Plan& plan, std::string* error) {
  std::vector<std::string> errors(log.initial.size());
  std::vector<std::thread> pool;
  size_t i = 0;
  for (const auto& entry : log.initial) {
    pool.emplace_back([&, name = entry.first, slot = i++] {
      errors[slot] = CheckGraph(log, plan, name);
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) {
      *error = e;
      return false;
    }
  }
  return true;
}

/// Reopens the data dir with a fresh StorageManager and checks that every
/// graph recovers at the (version, fingerprint) of its last acknowledged
/// write, or of its registration when it was never written.
bool CheckDurability(const std::string& data_dir,
                     const std::map<std::string, std::pair<uint64_t, uint64_t>>&
                         expected,
                     std::string* error) {
  std::unique_ptr<storage::StorageManager> fresh;
  Status status = storage::StorageManager::Open(
      data_dir, storage::StorageManager::Options{}, &fresh);
  std::vector<storage::RecoveredGraph> recovered;
  if (status.ok()) status = fresh->RecoverAll(&recovered);
  if (!status.ok()) {
    *error = "recovery failed: " + status.ToString();
    return false;
  }
  std::map<std::string, std::pair<uint64_t, uint64_t>> got;
  for (const storage::RecoveredGraph& g : recovered) {
    got[g.name] = {g.version, GraphFingerprint(*g.graph)};
  }
  for (const auto& [name, want] : expected) {
    auto it = got.find(name);
    if (it == got.end() || it->second != want) {
      *error = "graph " + name + " did not recover at version " +
               std::to_string(want.first) + " with its acknowledged content";
      return false;
    }
  }
  return true;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double MedianOf(std::vector<double> v) { return NearestRank(std::move(v), 0.5); }

void AddPerLayer(Report& report, const RunLog& log,
                 const std::vector<Span>& spans, const Counters& before,
                 const Counters& after, const SetupTimes& setup,
                 uint64_t disk_bytes, uint64_t total_edges) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> self_ms;   // summed self time by span name
  std::map<std::string, size_t> occurrences;
  std::map<uint64_t, double> submit_get_ms, stage_sum_ms;
  std::set<uint64_t> staged_queries;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double duration_ms = (spans[i].end_ns - spans[i].start_ns) / 1e6;
    self_ms[name] += self[i] / 1e6;
    ++occurrences[name];
    if (name == "service.submit_get") submit_get_ms[spans[i].query] = duration_ms;
    if (name == "staged") staged_queries.insert(spans[i].query);
    if (name.rfind("core.", 0) == 0) stage_sum_ms[spans[i].query] += duration_ms;
  }
  const CoreCounts& core = log.core;
  const double staged = static_cast<double>(core.staged_reads);
  const double prepared = static_cast<double>(core.prepared_reads);
  auto per_read = [&](const char* span) { return Ratio(self_ms[span], staged); };
  auto per_call = [&](const char* span) {
    return Ratio(self_ms[span], static_cast<double>(occurrences[span]));
  };

  const double prepare_ms = Ratio(self_ms["core.prepare"], prepared);
  double stages_ms = 0.0;
  for (double ms : core.stage_ms) stages_ms += Ratio(ms, prepared);
  report.Add("core.prepare_ms", prepare_ms, "ms");
  report.Add("core.order_ms", per_read("core.order"), "ms");
  report.Add("core.decompose_ms", prepared > 0 ? prepare_ms - stages_ms : 0.0,
             "ms");
  const char* stage_metric[3] = {"en_colorful_core", "colorful_sup",
                                 "en_colorful_sup"};
  for (int s = 0; s < 3; ++s) {
    report.Add(std::string("reduction.") + stage_metric[s] + "_ms",
               Ratio(core.stage_ms[s], prepared), "ms");
  }
  for (int s = 0; s < 3; ++s) {
    report.Add(std::string("reduction.") + stage_metric[s] + ".keep_ratio",
               Ratio(core.edges_out[s], core.edges_in[s]), "ratio");
  }
  const double nodes = static_cast<double>(core.nodes);
  report.Add("core.branch_ms", per_read("core.branch"), "ms");
  report.Add("core.branch_nodes", Ratio(nodes, staged), "count");
  report.Add("core.branch_ns_per_node",
             Ratio(self_ms["core.branch"] * 1e6, nodes), "ns");
  report.Add("core.seed_ms", per_read("core.seed"), "ms");
  report.Add("core.aggregate_us", per_read("core.aggregate") * 1e3, "us");
  report.Add("bounds.bound_prunes_per_node",
             Ratio(static_cast<double>(core.bound_prunes), nodes), "ratio");
  report.Add("bounds.size_prunes_per_node",
             Ratio(static_cast<double>(core.size_prunes), nodes), "ratio");
  report.Add("bounds.attr_prunes_per_node",
             Ratio(static_cast<double>(core.attr_prunes), nodes), "ratio");

  std::vector<double> overhead;
  for (uint64_t q : staged_queries) {
    auto it = submit_get_ms.find(q);
    if (it != submit_get_ms.end()) overhead.push_back(it->second - stage_sum_ms[q]);
  }
  report.Add("service.exec_overhead_ms", MedianOf(overhead), "ms");

  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  const double plan_hits =
      static_cast<double>(after.plans.hits - before.plans.hits);
  const double plan_misses =
      static_cast<double>(after.plans.misses - before.plans.misses);
  report.Add("service.result_hit_ratio", Ratio(hits, hits + misses), "ratio");
  report.Add("service.plan_hit_ratio",
             Ratio(plan_hits, plan_hits + plan_misses), "ratio");
  report.Add("service.result_evictions",
             static_cast<double>(after.cache.evictions - before.cache.evictions),
             "count");
  report.Add("service.plan_evictions",
             static_cast<double>(after.plans.evictions - before.plans.evictions),
             "count");

  std::vector<double> hit, plan_hit, cold, incremental;
  for (const Read& r : log.reads) {
    if (ReadFailed(r) || !r.timed) continue;
    if (r.response.cache_hit) hit.push_back(r.latency_ms);
    else if (r.response.incremental) incremental.push_back(r.latency_ms);
    else if (r.response.prepared_hit) plan_hit.push_back(r.latency_ms);
    else cold.push_back(r.latency_ms);
  }
  report.Add("service.hit_p50_ms", MedianOf(hit), "ms");
  report.Add("service.plan_hit_p50_ms", MedianOf(plan_hit), "ms");
  report.Add("service.cold_p50_ms", MedianOf(cold), "ms");
  report.Add("service.incremental_p50_ms", MedianOf(incremental), "ms");
  report.Add("service.incremental_requeries",
             static_cast<double>(after.exec.incremental_requeries -
                                 before.exec.incremental_requeries),
             "count");
  report.Add("service.warm_starts",
             static_cast<double>(after.exec.warm_starts -
                                 before.exec.warm_starts),
             "count");
  report.Add("service.serialize_us", per_call("service.serialize") * 1e3, "us");
  report.Add("service.peak_queue_depth",
             static_cast<double>(after.exec.peak_queue_depth), "count");
  report.Add("service.rejected",
             static_cast<double>(after.exec.rejected - before.exec.rejected),
             "count");

  report.Add("dynamic.apply_ms", per_call("dynamic.apply"), "ms");
  report.Add("storage.append_ms", per_call("storage.append"), "ms");
  report.Add("service.replace_ms", per_call("service.replace"), "ms");
  report.Add("storage.records_per_fsync",
             Ratio(static_cast<double>(after.storage.wal_records_appended -
                                       before.storage.wal_records_appended),
                   static_cast<double>(after.storage.wal_group_commits -
                                       before.storage.wal_group_commits)),
             "ratio");
  report.Add("storage.compactions",
             static_cast<double>(after.storage.compactions -
                                 before.storage.compactions),
             "count");
  report.Add("storage.snapshots_written",
             static_cast<double>(after.storage.snapshots_written -
                                 before.storage.snapshots_written),
             "count");
  report.Add("storage.bytes_per_edge",
             Ratio(static_cast<double>(disk_bytes),
                   static_cast<double>(total_edges)),
             "B");

  report.Add("datasets.generate_s", setup.generate_s, "s");
  report.Add("service.register_s", setup.register_s, "s");
  report.Add("storage.persist_s", setup.persist_s, "s");

  std::vector<double> traced_ms, untraced_ms;
  for (const Read& r : log.reads) {
    if (ReadFailed(r) || !r.timed) continue;
    (r.traced ? traced_ms : untraced_ms).push_back(r.latency_ms);
  }
  report.Add("loadgen.late_p99_ms", NearestRank(log.late_ms, 0.99), "ms");
  report.Add("trace.overhead_pct",
             100.0 * (Ratio(MedianOf(traced_ms), MedianOf(untraced_ms)) - 1.0),
             "%");
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "cold-reduce" || name == "branch-sweep" ||
         name == "serve-mixed";
}

int RunWorkload(const RunArgs& args) {
  const Plan plan = MakePlan(args.workload);
  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  fs::create_directories(args.work_dir, ec);
  const std::string data_dir = args.work_dir + "/data";

  // Set-up, repeated; the last one is measured.
  std::unique_ptr<Service> svc;
  std::vector<SetupTimes> setups;
  double setup_spent_s = 0.0;
  for (int r = 0; r < kSetupMaxRepeats &&
                  (r < kSetupMinRepeats || setup_spent_s < kSetupMinSeconds);
       ++r) {
    svc.reset();
    SetupTimes times;
    const int64_t t0 = NowNs();
    svc = std::make_unique<Service>(plan.workers);
    Status status = SetUp(*svc, plan, data_dir, &times);
    times.total_s = (NowNs() - t0) / 1e9;
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setups.push_back(times);
    setup_spent_s += times.total_s;
  }
  auto median_of = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return MedianOf(v);
  };
  SetupTimes setup;
  setup.total_s = median_of(&SetupTimes::total_s);
  setup.generate_s = median_of(&SetupTimes::generate_s);
  setup.register_s = median_of(&SetupTimes::register_s);
  setup.persist_s = median_of(&SetupTimes::persist_s);

  RunLog log;
  uint64_t total_edges = 0;
  for (const GraphSpec& spec : plan.graphs) {
    auto entry = svc->registry.Get(spec.name);
    log.initial[spec.name] = entry;
    log.acked[spec.name] = {entry->version, entry->fingerprint};
    total_edges += entry->graph->num_edges();
  }
  std::string fingerprints;
  for (const auto& [name, state] : log.acked) {
    fingerprints += (fingerprints.empty() ? "" : ", ") + ("\"" + name +
                    "\": \"" + FingerprintHex(state.second) + "\"");
  }

  Tracer tracer(args.trace);
  Counters before;
  if (plan.mixed) {
    RunMixed(*svc, plan, args, tracer, &log, &before);
  } else {
    RunPasses(*svc, plan, args, tracer, &log, &before);
  }
  svc->executor.Drain();
  const Counters after = Snapshot(*svc);
  const double peak_rss_mb = PeakRssMb();

  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"build_version\": \"%s\", \"build_type\": \"%s\", "
      "\"simd\": \"%s\", \"nproc\": %d, \"workers\": %d, \"ops_hash\": "
      "\"%016" PRIx64 "\", \"fingerprints\": {%s}}\n",
      args.workload.c_str(), args.seed, args.trace ? 1 : 0, BuildVersion(),
      BuildType(), simd::ActiveName(), Nproc(), plan.workers, log.ops_hash,
      fingerprints.c_str());

  // Durability: close the storage the run wrote through, size the directory,
  // recover it with a fresh StorageManager.
  svc->registry.AttachStorage(nullptr);
  svc->storage.reset();
  const uint64_t disk_bytes = DirBytes(data_dir);
  std::string error;
  const int64_t check_start = NowNs();
  bool correct = CheckDurability(data_dir, log.acked, &error);
  if (correct) correct = CheckAnswers(log, plan, &error);
  std::fprintf(stderr, "answer and durability checks took %.1f s\n",
               (NowNs() - check_start) / 1e9);
  fs::remove_all(data_dir, ec);

  uint64_t failed = 0;
  for (const Read& r : log.reads) failed += ReadFailed(r) ? 1 : 0;
  for (const Write& w : log.writes) failed += w.ok ? 0 : 1;
  const uint64_t attempted = log.reads.size() + log.writes.size();
  if (correct && log.reads.empty()) {
    correct = false;
    error = "no read completed";
  }

  std::vector<double> write_ms;
  for (const Write& w : log.writes) {
    if (w.ok) write_ms.push_back(w.latency_ms);
  }
  Report report;
  if (!args.trace) {
    std::vector<double> read_ms;
    for (const Read& r : log.reads) {
      if (!ReadFailed(r) && r.timed) read_ms.push_back(r.latency_ms);
    }
    report.Add("setup_s", setup.total_s, "s");
    report.Add("peak_rss_mb", peak_rss_mb, "MiB");
    report.Add("read_p50_ms", NearestRank(read_ms, 0.50), "ms");
    report.Add("read_p95_ms", NearestRank(read_ms, 0.95), "ms");
    report.Add("read_p99_ms", NearestRank(read_ms, 0.99), "ms");
    report.Add("write_p50_ms", NearestRank(write_ms, 0.50), "ms");
    report.Add("ok_frac",
               Ratio(static_cast<double>(attempted - failed),
                     static_cast<double>(attempted)),
               "ratio");
    report.Add("disk_mb", disk_bytes / (1024.0 * 1024.0), "MiB");
    std::printf("reads %zu, writes %zu, serialized %" PRIu64
                " bytes, client gap p99 %.3f ms\n",
                log.reads.size(), log.writes.size(), log.serialized_bytes,
                NearestRank(log.late_ms, 0.99));
  } else {
    const std::vector<Span>& spans = tracer.spans();
    AddPerLayer(report, log, spans, before, after, setup, disk_bytes,
                total_edges);
    report.Add("failed_frac",
               Ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)),
               "ratio");
    // Per-layer rather than end-to-end: its run-to-run spread reached 0.27
    // of its median on serve-mixed (the fsync tail), over any bound allowed.
    report.Add("write_p95_ms", NearestRank(write_ms, 0.95), "ms");
    const std::string path = args.work_dir + "/spans.jsonl";
    if (!WriteSpans(path, spans)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
    std::printf("spans %zu written to %s\n", spans.size(), path.c_str());
  }
  if (!correct) std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  report.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace perfbench
