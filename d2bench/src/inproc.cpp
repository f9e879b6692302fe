#include "inproc.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "d2tree/core/d2tree.h"
#include "d2tree/core/routing.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/net/wire.h"
#include "d2tree/storage/record_codec.h"
#include "d2tree/storage/sstable.h"

namespace d2bench {

using namespace d2tree;

namespace {

constexpr int kClientTid = 2;
constexpr int kReplayTid = 3;

// Results of timed calls land here, so the optimizer must make the calls.
volatile std::uint64_t g_sink = 0;

double SecondsSince(double start_us) { return (NowUs() - start_us) * 1e-6; }

StoreEngineStats SumEngineStats(const FunctionalCluster& cluster) {
  StoreEngineStats sum;
  for (std::size_t k = 0; k < cluster.mds_count(); ++k) {
    const StoreEngineStats s =
        cluster.server(static_cast<MdsId>(k)).local().EngineStats();
    sum.gets += s.gets;
    sum.wal_group_commits += s.wal_group_commits;
    sum.flushes += s.flushes;
    sum.compactions += s.compactions;
    sum.tables += s.tables;
    sum.bloom_skips += s.bloom_skips;
  }
  return sum;
}

/// kOk and the target's own namespace record.
bool RecordMatches(const NamespaceTree& tree, NodeId target,
                   const InodeRecord& record) {
  return record.id == target && record.name == tree.node(target).name &&
         record.parent == tree.node(target).parent;
}

/// Calls fn(i) for i in [0, n) and returns the mean cost per call in ns,
/// timed over the whole batch so the clock is read twice, not per call.
/// With tracing on, every 64th call is then re-run inside its own span.
template <typename Fn>
double TimeCalls(std::size_t n, const char* span, const char* layer,
                 SpanLog* spans, Fn&& fn) {
  std::uint64_t sink = 0;
  const double t0 = NowUs();
  for (std::size_t i = 0; i < n; ++i) sink += fn(i);
  const double t1 = NowUs();
  if (spans->enabled()) {
    for (std::size_t i = 0; i < n; i += SpanLog::kSampleEvery) {
      const double s = NowUs();
      sink += fn(i);
      spans->Add(span, layer, i, 0, s, NowUs(), kReplayTid);
    }
  }
  g_sink = sink;
  return n == 0 ? 0 : (t1 - t0) * 1e3 / static_cast<double>(n);
}

}  // namespace

ScaleOutRep RunScaleOutRep(const ScaleOutParams& p) {
  ScaleOutRep rep;
  SpanLog& spans = *p.spans;
  std::error_code ec;
  std::filesystem::remove_all(p.data_dir, ec);

  const double t0 = NowUs();
  const Workload workload = GenerateWorkload(p.profile);
  rep.generate_s = SecondsSince(t0);
  StoreSpec spec;
  spec.backend = StoreSpec::Backend::kLsm;
  spec.data_dir = p.data_dir;
  auto cluster = std::make_unique<FunctionalCluster>(workload.tree, p.mds_count,
                                                     D2TreeConfig{}, nullptr,
                                                     spec);
  rep.setup_s = SecondsSince(t0);
  spans.Add("GenerateWorkload+FunctionalCluster", "setup", 0, 0, t0, NowUs(),
            kClientTid);

  // Client paths are resolved by the cluster; build them outside the clock.
  const auto n_ops = static_cast<std::size_t>(p.rate * p.seconds);
  std::vector<std::string> paths(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i)
    paths[i] = workload.tree.PathOf((*p.ops)[i % p.ops->size()].target);

  const std::size_t wal0 = cluster->monitor_wal().size_bytes();
  const StoreEngineStats e0 = SumEngineStats(*cluster);
  double t = NowUs();
  const MdsId newcomer = cluster->AddServer();
  rep.moved_add = cluster->RunAdjustmentRound();
  rep.add_s = SecondsSince(t);
  spans.Add("AddServer+RunAdjustmentRound", "core", 0, 0, t, NowUs(), kClientTid);

  // Open-loop client phase against the grown cluster. Stats enter where a
  // client with the cached local index sends them (ChooseEntry, as on the
  // wire), so stale entries pay the forward.
  const std::size_t alive = cluster->mds_count();
  const LocalIndex& index = cluster->scheme().local_index();
  PhaseResult& r = rep.client;
  r.served.assign(alive, 0);
  r.ll_updates_ok.assign(alive, 0);
  const StoreEngineStats c0 = SumEngineStats(*cluster);
  rep.proc_before = SampleProc(getpid());
  const double interval = 1e6 / p.rate;
  const double start = NowUs() + 100.0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    const Op& op = (*p.ops)[i % p.ops->size()];
    const double due = start + static_cast<double>(i) * interval;
    WaitUntilUs(due);
    const double issued = NowUs();
    r.lag.Add(issued - due);
    ++r.issued;
    ++r.legs;
    FunctionalCluster::ClientResult res;
    if (op.update) {
      res = cluster->Update(paths[i], op.mtime);
    } else {
      Rng rng(op.entry_seed);
      res = cluster->StatVia(
          paths[i], ChooseEntry(DecideRoute(workload.tree, index, op.target),
                                alive, p.stale, rng));
    }
    const double done = NowUs();
    ++r.completed_in_window;
    const bool gl = res.op_class == OpClass::kGlHit;
    if (gl) ++r.gl_ops;
    r.redirects += static_cast<std::uint64_t>(res.jumps);
    r.jumps_max = std::max<std::uint64_t>(r.jumps_max,
                                          static_cast<std::uint64_t>(res.jumps));
    if (spans.Sampled(i))
      spans.Add(op.update ? "update" : "stat", "client", i, 0, due, done,
                kClientTid);
    if (res.status != MdsStatus::kOk) {
      ++r.failed;
      continue;
    }
    if (!RecordMatches(workload.tree, op.target, res.record)) {
      ++r.wrong_record;
      continue;
    }
    const auto served = static_cast<std::size_t>(res.served_by);
    if (served < r.served.size()) ++r.served[served];
    const int kind = !op.update ? kStat : gl ? kUpdateGl : kUpdateLl;
    if (kind == kUpdateLl && served < r.ll_updates_ok.size())
      ++r.ll_updates_ok[served];
    r.latency[kind].Add(done - due);
  }
  r.seconds = p.seconds;
  rep.proc_after = SampleProc(getpid());
  rep.store_wal_commits =
      SumEngineStats(*cluster).wal_group_commits - c0.wal_group_commits;

  t = NowUs();
  if (!cluster->KillServer(newcomer))
    rep.errors.push_back("KillServer refused the newcomer");
  rep.moved_drain = cluster->RunAdjustmentRound();
  rep.drain_s = SecondsSince(t);
  spans.Add("KillServer+RunAdjustmentRound", "core", 0, 0, t, NowUs(),
            kClientTid);
  rep.monitor_wal_bytes = cluster->monitor_wal().size_bytes() - wal0;
  const StoreEngineStats e1 = SumEngineStats(*cluster);
  rep.flushes = e1.flushes - e0.flushes;
  rep.compactions = e1.compactions - e0.compactions;
  rep.tables = e1.tables;

  if (p.audit) {
    t = NowUs();
    const FsckReport fsck = FsckCluster(*cluster);
    rep.audit_s = SecondsSince(t);
    if (!fsck.clean())
      rep.errors.push_back("FsckCluster: " + FormatFsckReport(fsck));
  }
  if (rep.moved_add == 0) rep.errors.push_back("the add round moved nothing");
  cluster.reset();
  std::filesystem::remove_all(p.data_dir, ec);
  return rep;
}

void ReplayLayers(const ReplayParams& p, MetricTable* out,
                  std::vector<std::string>* errors) {
  const NamespaceTree& tree = p.workload->tree;
  SpanLog* spans = p.spans;
  const std::size_t k = std::min(p.sample_ops, p.ops->size());
  const std::vector<Op> ops(p.ops->begin(), p.ops->begin() + static_cast<long>(k));
  std::error_code ec;
  std::filesystem::remove_all(p.scratch_dir, ec);
  std::filesystem::create_directories(p.scratch_dir, ec);

  // --- mds: the servers as the workload runs them.
  StoreSpec spec = p.store;
  if (spec.backend == StoreSpec::Backend::kLsm)
    spec.data_dir = p.scratch_dir + "/cluster";
  double t = NowUs();
  FunctionalCluster cluster(tree, p.routing->mds_count, D2TreeConfig{}, nullptr,
                            spec);
  out->Set("mds.materialize_s", SecondsSince(t), "s");
  spans->Add("FunctionalCluster", "mds", 0, 0, t, NowUs(), kReplayTid);

  // --- core: client routing over the local index.
  out->Set("core.route_ns",
           TimeCalls(k, "DecideRoute", "core", spans,
                     [&](std::size_t i) {
                       const RouteDecision d = DecideRoute(
                           tree, *p.routing->index, ops[i].target);
                       return static_cast<std::uint64_t>(d.owner.value_or(-1) + 1);
                     }),
           "ns");

  // Per op: the serving server(s) — entry, then owner after a redirect —
  // and the ancestor chain the permission walk reads.
  struct StatCall {
    MdsServer* server;
    NodeId target;
    std::vector<NodeId> ancestors;
  };
  std::vector<StatCall> stat_calls;
  std::vector<InodeRecord> records(k);
  std::vector<bool> gl(k);
  double ancestors = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Entry e = RouteOp(*p.routing, ops[i]);
    gl[i] = e.gl;
    std::vector<NodeId> anc = tree.AncestorsOf(ops[i].target);
    ancestors += static_cast<double>(anc.size());
    if (!e.gl && e.server != e.owner)
      stat_calls.push_back({&cluster.server(e.server), ops[i].target, anc});
    const MdsId at = e.gl ? e.server : e.owner;
    // Untimed check pass (also warms the stores): the final call answers.
    const MdsOpResult res = cluster.server(at).Stat(ops[i].target, anc);
    if (res.status != MdsStatus::kOk || !RecordMatches(tree, ops[i].target, res.record))
      errors->push_back("MdsServer::Stat answered " +
                        std::string(MdsStatusName(res.status)) + " for node " +
                        std::to_string(ops[i].target));
    records[i] = res.record;
    stat_calls.push_back({&cluster.server(at), ops[i].target, std::move(anc)});
  }
  out->Set("mds.stat_ns",
           TimeCalls(stat_calls.size(), "MdsServer::Stat", "mds", spans,
                     [&](std::size_t i) {
                       const StatCall& c = stat_calls[i];
                       return static_cast<std::uint64_t>(
                           c.server->Stat(c.target, c.ancestors).status);
                     }),
           "ns");
  out->Set("mds.ancestors_per_stat", k ? ancestors / static_cast<double>(k) : 0,
           "count");

  // --- storage: the point lookups a stat makes (CanRead per ancestor:
  // GL replica first, then the local store; then the target's record).
  struct Lookup {
    const MetadataStore* store;
    NodeId id;
  };
  std::vector<Lookup> contains, gets;
  for (const StatCall& c : stat_calls) {
    // A server that does not hold the target answers kWrongServer before
    // walking the ancestors.
    const bool in_gl = c.server->global_replica().Contains(c.target);
    if (!in_gl && !c.server->local().Contains(c.target)) continue;
    gets.push_back(
        {in_gl ? &c.server->global_replica() : &c.server->local(), c.target});
    for (NodeId a : c.ancestors) {
      contains.push_back({&c.server->global_replica(), a});
      if (!c.server->global_replica().Contains(a))
        contains.push_back({&c.server->local(), a});
    }
  }
  const StoreEngineStats s0 = SumEngineStats(cluster);
  out->Set("storage.contains_ns",
           TimeCalls(contains.size(), "MetadataStore::Contains", "storage",
                     spans,
                     [&](std::size_t i) {
                       return static_cast<std::uint64_t>(
                           contains[i].store->Contains(contains[i].id));
                     }),
           "ns");
  out->Set("storage.get_ns",
           TimeCalls(gets.size(), "MetadataStore::Get", "storage", spans,
                     [&](std::size_t i) {
                       return gets[i].store->Get(gets[i].id).has_value() ? 1u : 0u;
                     }),
           "ns");
  const StoreEngineStats s1 = SumEngineStats(cluster);
  out->Set("storage.bloom_skip_frac",
           s1.gets > s0.gets ? static_cast<double>(s1.bloom_skips - s0.bloom_skips) /
                                   static_cast<double>(s1.gets - s0.gets)
                             : 0,
           "ratio");

  // --- net: the wire codec on this op stream's requests and responses.
  std::vector<WireEnvelope> envs;
  for (std::size_t i = 0; i < k; ++i) {
    const Op& op = ops[i];
    const Message req{.type = op.update ? MsgType::kUpdateRequest
                                        : MsgType::kStatRequest,
                      .target = op.target,
                      .mtime = op.mtime};
    Message resp = req;
    resp.type = op.update ? MsgType::kUpdateResponse : MsgType::kStatResponse;
    resp.record = records[i];
    envs.push_back({FrameKind::kCall, i + 1, ClientAddress(), MdsAddress(0), req});
    envs.push_back({FrameKind::kResponse, i + 1, MdsAddress(0), ClientAddress(), resp});
  }
  std::vector<std::vector<std::uint8_t>> frames(envs.size());
  out->Set("net.encode_ns",
           TimeCalls(envs.size(), "EncodeFrame", "net", spans,
                     [&](std::size_t i) {
                       frames[i] = EncodeFrame(envs[i]);
                       return static_cast<std::uint64_t>(frames[i].size());
                     }),
           "ns");
  double bytes = 0;
  for (const auto& f : frames) bytes += static_cast<double>(f.size());
  out->Set("net.bytes_per_op", k ? bytes / static_cast<double>(k) : 0, "B");
  std::size_t decode_bad = 0;
  out->Set("net.decode_ns",
           TimeCalls(frames.size(), "DecodeFrame", "net", spans,
                     [&](std::size_t i) {
                       WireEnvelope env;
                       std::size_t used = 0;
                       if (DecodeFrame(frames[i].data(), frames[i].size(), &env,
                                       &used) != DecodeStatus::kOk)
                         ++decode_bad;
                       return static_cast<std::uint64_t>(used);
                     }),
           "ns");
  if (decode_bad > 0) errors->push_back("DecodeFrame rejected encoded frames");

  // --- mds + storage write path: local-layer mutations at the owner (every
  // local-layer target of the stream, so read-mostly workloads are covered
  // too) and global-layer replica mutations.
  struct Mutation {
    MdsServer* server;
    NodeId target;
    std::vector<NodeId> ancestors;
    std::uint64_t mtime;
  };
  std::vector<Mutation> ll, gl_muts;
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId target = ops[i].target;
    if (gl[i]) {
      for (std::size_t s = 0; s < p.routing->mds_count; ++s)
        gl_muts.push_back({&cluster.server(static_cast<MdsId>(s)), target, {}, i + 1});
    } else {
      ll.push_back({&cluster.server(p.routing->assignment->OwnerOf(target)), target,
                    tree.AncestorsOf(target), i + 1});
    }
  }
  const StoreEngineStats w0 = SumEngineStats(cluster);
  std::size_t update_bad = 0;
  std::size_t mutations = 0;  // local-store mutations, traced re-runs included
  out->Set("mds.update_local_ns",
           TimeCalls(ll.size(), "MdsServer::UpdateLocal", "mds", spans,
                     [&](std::size_t i) {
                       ++mutations;
                       const Mutation& m = ll[i];
                       const MdsOpResult res =
                           m.server->UpdateLocal(m.target, m.ancestors, m.mtime);
                       if (res.status != MdsStatus::kOk) ++update_bad;
                       return res.record.version;
                     }),
           "ns");
  if (update_bad > 0) errors->push_back("MdsServer::UpdateLocal failed");
  out->Set("mds.gl_mutate_ns",
           TimeCalls(gl_muts.size(), "MetadataStore::Mutate(GL)", "mds", spans,
                     [&](std::size_t i) {
                       return gl_muts[i]
                           .server->global_replica()
                           .Mutate(gl_muts[i].target, gl_muts[i].mtime)
                           .value_or(0);
                     }),
           "ns");
  out->Set("storage.mutate_ns",
           TimeCalls(ll.size(), "MetadataStore::Mutate", "storage", spans,
                     [&](std::size_t i) {
                       ++mutations;
                       return ll[i].server->local().Mutate(ll[i].target, ll[i].mtime)
                           .value_or(0);
                     }),
           "ns");
  // Worst single call: an inline memtable flush or compaction.
  double mutate_max = 0;
  for (const Mutation& m : ll) {
    const double s = NowUs();
    (void)m.server->local().Mutate(m.target, m.mtime + 1);
    ++mutations;
    mutate_max = std::max(mutate_max, NowUs() - s);
  }
  out->Set("storage.mutate_max_ms", mutate_max * 1e-3, "ms");
  const StoreEngineStats w1 = SumEngineStats(cluster);
  out->Set("storage.wal_commits_per_update",
           mutations > 0 ? static_cast<double>(w1.wal_group_commits -
                                               w0.wal_group_commits) /
                               static_cast<double>(mutations)
                         : 0,
           "count");
  out->Set("storage.flushes", static_cast<double>(w1.flushes - w0.flushes), "count");
  out->Set("storage.compactions",
           static_cast<double>(w1.compactions - w0.compactions), "count");
  out->Set("storage.tables", static_cast<double>(w1.tables), "count");

  // --- core planner: the adjustment round that adds one MDS, planned on
  // the same inputs as the cluster's own round below.
  D2TreeScheme scheme;
  const Assignment before =
      scheme.Partition(tree, MdsCluster::Homogeneous(p.routing->mds_count));
  const std::vector<MdsId> owners_before = scheme.subtree_owners();
  t = NowUs();
  const RebalanceResult plan = scheme.Rebalance(
      tree, MdsCluster::Homogeneous(p.routing->mds_count + 1), before);
  out->Set("core.plan_ms", (NowUs() - t) * 1e-3, "ms");
  spans->Add("D2TreeScheme::Rebalance", "core", 0, 0, t, NowUs(), kReplayTid);

  // --- storage bulk path: extract, seal and ingest each subtree the plan
  // moves (the extraction is put back afterwards, outside the clock).
  StoreSpec ingest_spec = p.store;
  if (ingest_spec.backend == StoreSpec::Backend::kLsm)
    ingest_spec.data_dir = p.scratch_dir + "/ingest";
  MetadataStore ingest_store(MakeStoreEngine(ingest_spec, "newcomer"));
  double extract_us = 0, seal_us = 0, ingest_us = 0, record_bytes = 0;
  std::uint64_t written = 0;
  std::size_t moved_records = 0;
  const auto& subtrees = scheme.layers().subtrees;
  const std::vector<MdsId>& owners_after = scheme.subtree_owners();
  for (std::size_t i = 0; i < subtrees.size(); ++i) {
    if (owners_before[i] == owners_after[i] || owners_before[i] < 0) continue;
    std::vector<NodeId> members;
    tree.VisitSubtree(subtrees[i].root, [&](NodeId v) { members.push_back(v); });
    MetadataStore& source = cluster.server(owners_before[i]).local();
    const std::string path = p.scratch_dir + "/move" + std::to_string(i) + ".sst";
    const std::uint64_t w_start = SampleProc(getpid()).wchar;
    double s = NowUs();
    std::vector<InodeRecord> recs = source.ExtractAll(members);
    extract_us += NowUs() - s;
    spans->Add("MetadataStore::ExtractAll", "storage", i, 0, s, NowUs(), kReplayTid);
    s = NowUs();
    const bool sealed = WriteRecordsTable(recs, path);
    seal_us += NowUs() - s;
    spans->Add("WriteRecordsTable", "storage", i, 0, s, NowUs(), kReplayTid);
    const std::uint64_t w_mid = SampleProc(getpid()).wchar;
    source.InsertAll(recs);
    const std::uint64_t w_restored = SampleProc(getpid()).wchar;
    s = NowUs();
    const std::size_t ingested = sealed ? ingest_store.IngestTable(path) : 0;
    ingest_us += NowUs() - s;
    spans->Add("MetadataStore::IngestTable", "storage", i, 0, s, NowUs(), kReplayTid);
    written += (w_mid - w_start) + (SampleProc(getpid()).wchar - w_restored);
    if (!sealed || ingested != recs.size() || recs.size() != members.size())
      errors->push_back("bulk replay of subtree " + std::to_string(i) +
                        " lost records");
    std::vector<std::uint8_t> enc;
    for (const InodeRecord& rec : recs) {
      enc.clear();
      EncodeInodeRecord(rec, enc);
      record_bytes += static_cast<double>(enc.size());
    }
    moved_records += recs.size();
    std::filesystem::remove(path, ec);
  }
  out->Set("storage.extract_ms", extract_us * 1e-3, "ms");
  out->Set("storage.seal_ms", seal_us * 1e-3, "ms");
  out->Set("storage.ingest_ms", ingest_us * 1e-3, "ms");
  out->Set("storage.write_amp",
           record_bytes > 0 ? static_cast<double>(written) / record_bytes : 0,
           "ratio");

  // --- the cluster's own rounds, as in scale-out: add one MDS, drain it.
  const std::size_t wal0 = cluster.monitor_wal().size_bytes();
  t = NowUs();
  const MdsId newcomer = cluster.AddServer();
  const std::size_t moved = cluster.RunAdjustmentRound();
  spans->Add("AddServer+RunAdjustmentRound", "core", 0, 0, t, NowUs(), kReplayTid);
  if (moved != moved_records || moved != plan.moved_nodes)
    errors->push_back("add round moved " + std::to_string(moved) +
                      " records, the replayed plan " +
                      std::to_string(plan.moved_nodes));
  const double drain_start = NowUs();
  if (!cluster.KillServer(newcomer))
    errors->push_back("KillServer refused the newcomer");
  const std::size_t drained = cluster.RunAdjustmentRound();
  spans->Add("KillServer+RunAdjustmentRound", "core", 0, 0, drain_start, NowUs(),
             kReplayTid);
  out->Set("core.rebalance_s", SecondsSince(t), "s");
  out->Set("core.records_moved", static_cast<double>(moved + drained), "count");
  out->Set("durability.monitor_wal_bytes",
           static_cast<double>(cluster.monitor_wal().size_bytes() - wal0) / 2, "B");
}

}  // namespace d2bench
