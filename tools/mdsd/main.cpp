// mdsd — one metadata-service role as a real process.
//
// Each daemon hosts exactly one role (one MDS, or the Monitor) behind a
// SocketTransport listener. All MDS daemons of a cluster are started with
// the same --profile/--scale/--seed/--mds-count flags, so each
// deterministically regenerates the identical namespace and D2-Tree
// partition (the same way every MDS in the paper's system shares the
// global layer and the local index): routing decisions agree across
// processes without any placement exchange at boot. An MDS daemon then
// holds one MdsServer with its shard alone: the local-layer subtrees it
// owns plus its replica of the global layer (Sec. IV-A). The Monitor
// holds no namespace; it only grants global-layer versions.
//
//   mdsd --role mds --id 0 --listen 127.0.0.1:7100
//        --peers mds0=127.0.0.1:7100,mds1=127.0.0.1:7101,monitor=127.0.0.1:7190
//        --mds-count 3 --profile lmbe --scale 0.05 --seed 1
//
// Serving contract (the honest-cost rules the bench relies on):
//   * A kStatRequest / kUpdateRequest for a local-layer subtree owned by
//     another MDS answers kWrongServer with `peer` naming the owner — the
//     client pays the redirect as a real second RPC (the paper's 1-jump).
//   * A global-layer update takes a kGlWriteLock round with the Monitor
//     (the version authority), applies locally, then fans kGlCommit
//     one-ways to the MDS peers; receiving daemons apply the version-fenced
//     mutation without rebroadcasting.
//   * Daemons never run adjustment rounds: each process only observes its
//     own traffic, so re-planning locally would diverge the placements.
//
// With --data-dir <dir> an MDS daemon keeps its local store in the
// embedded LSM engine under <dir>/mds<id>/local instead of RAM: a SIGKILLed
// daemon restarted on the same directory replays its engine WAL and
// resumes from the durable namespace — mutations (mtimes, versions)
// survive where a memory daemon would silently regenerate the pristine
// tree. The GL replica stays in memory.
//
// After Bind succeeds the daemon prints "MDSD LISTENING <port>" on stdout
// (port 0 in --listen auto-assigns); tests parse that line. SIGTERM/SIGINT
// drains the transport, audits the MDS's shard with AuditShard, and
// prints a one-line JSON stats summary; exit 0 iff the audit is clean.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "d2tree/core/d2tree.h"
#include "d2tree/mds/server.h"
#include "d2tree/net/endpoint.h"
#include "d2tree/net/socket_transport.h"
#include "d2tree/trace/profiles.h"

using namespace d2tree;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

struct Flags {
  std::string role = "mds";
  MdsId id = 0;
  std::string listen;  // host:port ("" = 127.0.0.1:0)
  std::string peers;
  std::size_t mds_count = 3;
  std::string profile = "lmbe";
  double scale = 0.05;
  std::uint64_t seed = 1;
  std::string data_dir;  // "" = volatile in-memory store
};

TraceProfile ProfileByName(const std::string& name, double scale) {
  if (name == "dtr") return DtrProfile(scale);
  if (name == "ra") return RaProfile(scale);
  return LmbeProfile(scale);
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--role" && (v = value()))
      f->role = v;
    else if (arg == "--id" && (v = value()))
      f->id = static_cast<MdsId>(std::atoi(v));
    else if (arg == "--listen" && (v = value()))
      f->listen = v;
    else if (arg == "--peers" && (v = value()))
      f->peers = v;
    else if (arg == "--mds-count" && (v = value()))
      f->mds_count = static_cast<std::size_t>(std::atoll(v));
    else if (arg == "--profile" && (v = value()))
      f->profile = v;
    else if (arg == "--scale" && (v = value()))
      f->scale = std::atof(v);
    else if (arg == "--seed" && (v = value()))
      f->seed = static_cast<std::uint64_t>(std::atoll(v));
    else if (arg == "--data-dir" && (v = value()))
      f->data_dir = v;
    else
      return false;
  }
  return (f->role == "mds" || f->role == "monitor") && f->mds_count > 0 &&
         (f->role != "mds" ||
          (f->id >= 0 && static_cast<std::size_t>(f->id) < f->mds_count));
}

/// Binds `handler`, announces the port and serves until SIGTERM/SIGINT,
/// then drains the transport. False when the listener cannot be set up.
bool ServeUntilSignal(SocketTransport& transport, const Address& self,
                      const std::string& listen, Transport::Handler handler) {
  if (!transport.Bind(self, std::move(handler))) {
    std::fprintf(stderr, "mdsd: cannot listen on %s\n",
                 listen.empty() ? "127.0.0.1:0" : listen.c_str());
    return false;
  }
  const std::string endpoint = transport.EndpointOf(self);
  std::string host;
  std::uint16_t port = 0;
  if (!SplitHostPort(endpoint, &host, &port)) {
    std::fprintf(stderr, "mdsd: bad bound endpoint '%s'\n", endpoint.c_str());
    return false;
  }
  std::printf("MDSD LISTENING %u\n", static_cast<unsigned>(port));
  std::fflush(stdout);

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  while (g_stop == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Clean drain: stop accepting and let the workers finish.
  transport.Shutdown(/*drain=*/true);
  return true;
}

/// The one-line JSON exit report. `local` is the MDS's store; the
/// Monitor, which holds none, passes nullptr.
void PrintReport(const Flags& flags, const SocketTransport& transport,
                 std::uint64_t gl_version, const MetadataStore* local,
                 bool consistent) {
  const StoreEngineStats store_stats =
      local != nullptr ? local->EngineStats() : StoreEngineStats{};
  std::printf(
      "{\"role\": \"%s\", \"id\": %d, \"handled\": %llu, "
      "\"dedup_hits\": %llu, \"corrupt_frames\": %llu, "
      "\"busy_rejections\": %llu, \"gl_version\": %llu, "
      "\"store\": \"%s\", \"store_records\": %zu, "
      "\"store_tables\": %llu, \"store_wal_commits\": %llu, "
      "\"consistent\": %s}\n",
      flags.role.c_str(), flags.id,
      static_cast<unsigned long long>(transport.handled_requests()),
      static_cast<unsigned long long>(transport.dedup_hits()),
      static_cast<unsigned long long>(transport.corrupt_frames()),
      static_cast<unsigned long long>(transport.busy_rejections()),
      static_cast<unsigned long long>(gl_version),
      local != nullptr ? local->engine_name() : "none",
      local != nullptr ? local->size() : 0,
      static_cast<unsigned long long>(store_stats.tables),
      static_cast<unsigned long long>(store_stats.wal_group_commits),
      consistent ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: mdsd --role mds|monitor [--id N] [--listen h:p] "
                 "[--peers name=h:p,...] [--mds-count M] "
                 "[--profile dtr|lmbe|ra] [--scale S] [--seed N] "
                 "[--data-dir DIR]\n");
    return 2;
  }
  const Address self = flags.role == "monitor" ? MonitorAddress()
                                               : MdsAddress(flags.id);

  auto transport = std::make_shared<SocketTransport>();
  if (!flags.peers.empty()) {
    const auto specs = ParsePeerList(flags.peers);
    if (!specs.has_value()) {
      std::fprintf(stderr, "mdsd: malformed --peers list\n");
      return 2;
    }
    for (const PeerSpec& spec : *specs) {
      if (!transport->AddPeer(spec.addr, spec.host_port)) {
        std::fprintf(stderr, "mdsd: malformed peer endpoint '%s'\n",
                     spec.host_port.c_str());
        return 2;
      }
    }
  }
  if (!flags.listen.empty() && !transport->AddPeer(self, flags.listen)) {
    std::fprintf(stderr, "mdsd: malformed --listen endpoint\n");
    return 2;
  }

  // The Monitor is the global-layer version authority: each kGlWriteLock
  // grant returns the freshly bumped version in `migration_id`.
  std::atomic<std::uint64_t> gl_version{0};

  if (flags.role == "monitor") {
    const auto handler = [&](const Address& from, const Message& req) {
      (void)from;
      Message resp = req;
      resp.status = MdsStatus::kOk;
      switch (req.type) {
        case MsgType::kGlWriteLock:
          resp.migration_id =
              gl_version.fetch_add(1, std::memory_order_acq_rel) + 1;
          break;
        case MsgType::kHeartbeat:
          break;
        // d2lint: allow-default(monitor rejects all but lock + heartbeat)
        default:
          resp.status = MdsStatus::kNotPermitted;
          break;
      }
      return resp;
    };
    if (!ServeUntilSignal(*transport, self, flags.listen, handler)) return 1;
    PrintReport(flags, *transport, gl_version.load(), nullptr, true);
    return 0;
  }

  // Identical flags → identical namespace and partition in every MDS
  // daemon; this one fills only its own shard. The trace only charged the
  // tree's popularity, which the partition reads, so it is not kept.
  TraceProfile profile = ProfileByName(flags.profile, flags.scale);
  profile.seed = flags.seed;
  const NamespaceTree tree = GenerateWorkload(profile).tree;
  const Assignment assignment = D2TreeScheme{}.Partition(
      tree, MdsCluster::Homogeneous(flags.mds_count));
  StoreSpec store;
  if (!flags.data_dir.empty()) {
    store.backend = StoreSpec::Backend::kLsm;
    store.data_dir = flags.data_dir + "/mds" + std::to_string(flags.id);
  }
  const MdsId me = flags.id;
  MdsServer server(me, store);
  FillLocalShard(tree, assignment, server);
  FillGlReplica(tree, assignment, server.global_replica());

  const auto handler = [&, me](const Address& from, const Message& req) {
    (void)from;
    Message resp = req;
    switch (req.type) {
      case MsgType::kStatRequest:
      case MsgType::kForward: {
        resp.type = MsgType::kStatResponse;
        if (req.target >= tree.size()) {
          resp.status = MdsStatus::kNotFound;
          break;
        }
        const MdsId owner = assignment.OwnerOf(req.target);
        if (owner != kReplicated && owner != me) {
          // The paper's 1-jump, paid honestly: the client re-issues the
          // request to the named owner as a second real RPC.
          resp.status = MdsStatus::kWrongServer;
          resp.peer = owner;
          break;
        }
        const auto ancestors = tree.AncestorsOf(req.target);
        const MdsOpResult r = server.Stat(req.target, ancestors);
        resp.status = r.status;
        resp.record = r.record;
        break;
      }
      case MsgType::kUpdateRequest: {
        resp.type = MsgType::kUpdateResponse;
        if (req.target >= tree.size()) {
          resp.status = MdsStatus::kNotFound;
          break;
        }
        if (assignment.IsReplicated(req.target)) {
          // GL update: version round with the Monitor, local apply,
          // kGlCommit fan-out (Sec. IV-A3 over real sockets).
          Message lock{.type = MsgType::kGlWriteLock, .target = req.target};
          Message grant;
          const Delivery d =
              transport->Call(self, MonitorAddress(), lock, &grant);
          if (!d.delivered || grant.status != MdsStatus::kOk) {
            resp.status = MdsStatus::kUnavailable;
            break;
          }
          const std::uint64_t version = grant.migration_id;
          server.global_replica().Mutate(req.target, req.mtime);
          gl_version.store(version, std::memory_order_release);
          Message commit{.type = MsgType::kGlCommit,
                         .target = req.target,
                         .mtime = req.mtime,
                         .payload_records = 1,
                         .migration_id = version};
          for (std::size_t p = 0; p < flags.mds_count; ++p) {
            if (static_cast<MdsId>(p) == me) continue;
            // Best-effort fan-out: an unreachable replica catches up on
            // the next commit it does see (versions are monotone).
            (void)transport->SendReliable(
                self, MdsAddress(static_cast<MdsId>(p)), commit,
                /*max_tries=*/2);
          }
          resp.status = MdsStatus::kOk;
          resp.record =
              server.global_replica().Get(req.target).value_or(InodeRecord{});
          resp.migration_id = version;
          break;
        }
        const MdsId owner = assignment.OwnerOf(req.target);
        if (owner != me) {
          resp.status = MdsStatus::kWrongServer;
          resp.peer = owner;
          break;
        }
        const auto ancestors = tree.AncestorsOf(req.target);
        const MdsOpResult r =
            server.UpdateLocal(req.target, ancestors, req.mtime);
        resp.status = r.status;
        resp.record = r.record;
        break;
      }
      case MsgType::kGlCommit: {
        // Version-fenced replica apply; never rebroadcast (the
        // coordinator already fans out to every peer).
        const std::uint64_t version = req.migration_id;
        std::uint64_t seen = gl_version.load(std::memory_order_acquire);
        if (version > seen) {
          server.global_replica().Mutate(req.target, req.mtime);
          while (seen < version &&
                 !gl_version.compare_exchange_weak(
                     seen, version, std::memory_order_acq_rel)) {
          }
        }
        resp.status = MdsStatus::kOk;
        break;
      }
      case MsgType::kHeartbeat:
        resp.status = MdsStatus::kOk;
        break;
      // d2lint: allow-default(unimplemented types answer kNotPermitted)
      default:
        resp.status = MdsStatus::kNotPermitted;
        break;
    }
    return resp;
  };
  if (!ServeUntilSignal(*transport, self, flags.listen, handler)) return 1;
  const std::string audit_error = AuditShard(tree, assignment, server);
  PrintReport(flags, *transport, gl_version.load(), &server.local(),
              audit_error.empty());
  if (!audit_error.empty())
    std::fprintf(stderr, "mdsd: audit failed: %s\n", audit_error.c_str());
  return audit_error.empty() ? 0 : 1;
}
