#include "d2tree/mds/cluster.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "d2tree/core/routing.h"
#include "d2tree/storage/sstable.h"

namespace d2tree {
namespace {

/// A parked node's owner in PlacementLocked(): no server has this id, so
/// the shard helpers expect no server to hold the node.
constexpr MdsId kInPendingPool = -2;

}  // namespace

FunctionalCluster::FunctionalCluster(const NamespaceTree& tree,
                                     std::size_t mds_count,
                                     D2TreeConfig config,
                                     std::shared_ptr<Transport> transport,
                                     StoreSpec store)
    : tree_(tree),
      transport_(transport != nullptr
                     ? std::move(transport)
                     : std::make_shared<InProcessTransport>()),
      store_spec_(std::move(store)) {
  assert(mds_count > 0);
  if (store_spec_.persistent()) {
    // Sealed tables in flight live under <data_dir>/ship; per-server
    // engine roots are created by the engines themselves.
    std::error_code ec;
    std::filesystem::create_directories(store_spec_.data_dir + "/ship", ec);
  }
  // Nobody else can reach `this` yet, but the guarded members are
  // initialized under the placement lock so every access carries its
  // capability.
  WriterMutexLock topo(&topo_mu_);
  capacities_ = MdsCluster::Homogeneous(mds_count);
  scheme_ = D2TreeScheme(std::move(config));
  assignment_ = scheme_.Partition(tree_, capacities_);
  servers_.reserve(mds_count);
  mds_wals_.reserve(mds_count);
  gl_master_version_.store(1, std::memory_order_release);
  for (std::size_t k = 0; k < mds_count; ++k) {
    const auto id = static_cast<MdsId>(k);
    servers_.push_back(std::make_unique<MdsServer>(id, ServerStoreSpec(id)));
    // A persistent store that opened existing data resumes from it.
    FillLocalShard(tree_, assignment_, *servers_.back());
    FillGlReplica(tree_, assignment_, servers_.back()->global_replica());
    servers_.back()->set_gl_version(1);
    mds_wals_.push_back(std::make_unique<Wal>());
  }
  // Genesis checkpoint: a crash before the first adjustment round must
  // recover to the initial partition.
  JournalCapacitiesLocked();
  JournalPlacementLocked();
}

StoreSpec FunctionalCluster::ServerStoreSpec(MdsId id) const {
  StoreSpec spec = store_spec_;
  if (spec.persistent())
    spec.data_dir += "/mds" + std::to_string(id);
  return spec;
}

std::string FunctionalCluster::ShipPath(const char* kind,
                                        std::uint64_t id) const {
  return store_spec_.data_dir + "/ship/" + kind + std::to_string(id) + ".sst";
}

std::string FunctionalCluster::SealForShipping(
    const char* kind, std::uint64_t id,
    const std::vector<InodeRecord>& records) const {
  if (!store_spec_.persistent() || records.empty()) return {};
  std::string path = ShipPath(kind, id);
  if (!WriteRecordsTable(records, path)) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return {};  // seal failed (disk trouble): the per-record path still works
  }
  return path;
}

std::size_t FunctionalCluster::mds_count() const {
  ReaderMutexLock topo(&topo_mu_);
  return servers_.size();
}

std::size_t FunctionalCluster::alive_count() const {
  ReaderMutexLock topo(&topo_mu_);
  return AliveCountLocked();
}

bool FunctionalCluster::IsServerAlive(MdsId mds) const {
  ReaderMutexLock topo(&topo_mu_);
  return AliveLocked(mds);
}

MdsId FunctionalCluster::AnyAliveLocked() const {
  for (const auto& server : servers_)
    if (server->alive()) return server->id();
  return -1;
}

std::size_t FunctionalCluster::AliveCountLocked() const {
  std::size_t n = 0;
  for (const auto& server : servers_) n += server->alive();
  return n;
}

MdsCluster FunctionalCluster::CollectHeartbeats() {
  MdsCluster effective = capacities_;
  const Message hb{.type = MsgType::kHeartbeat};
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    if (!servers_[k]->alive() || servers_[k]->heartbeats_suppressed()) {
      effective.capacities[k] = 0.0;  // dead/silenced servers send nothing
      continue;
    }
    // Heartbeats get one tight retransmit (RetryPolicy::Heartbeat) so a
    // single stray drop does not fail a healthy server; the budget stays
    // well inside the heartbeat interval because *absence* is the failure
    // detector — a partition defeats every retry and the server is still
    // planned at capacity 0.
    if (!SendControl(MdsAddress(static_cast<MdsId>(k)), MonitorAddress(), hb,
                     RetryPolicy::Heartbeat(), k)) {
      effective.capacities[k] = 0.0;
      heartbeats_lost_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return effective;
}

bool FunctionalCluster::SendControl(const Address& from, const Address& to,
                                    const Message& msg,
                                    const RetryPolicy& policy,
                                    std::uint64_t nonce) {
  const RetryOutcome out =
      SendWithRetry(*transport_, from, to, msg, policy, nonce);
  control_ns_.fetch_add(
      static_cast<std::uint64_t>(out.delivery.latency_us * 1e3),
      std::memory_order_relaxed);
  retries_total_.fetch_add(static_cast<std::uint64_t>(out.retries()),
                           std::memory_order_relaxed);
  if (out.deadline_exceeded)
    deadline_exceeded_total_.fetch_add(1, std::memory_order_relaxed);
  return out.delivery.delivered;
}

void FunctionalCluster::ArmCrash(CrashSite site, bool torn_tail) {
  armed_torn_.store(torn_tail, std::memory_order_release);
  armed_site_.store(static_cast<int>(site), std::memory_order_release);
}

bool FunctionalCluster::MaybeCrash(CrashSite site) {
  int want = static_cast<int>(site);
  if (armed_site_.load(std::memory_order_acquire) != want) return false;
  if (!armed_site_.compare_exchange_strong(want, -1,
                                           std::memory_order_acq_rel))
    return false;  // another thread consumed the arm
  if (armed_torn_.exchange(false, std::memory_order_acq_rel)) {
    // Tear the freshest record mid-frame, as if the power cut during the
    // append: replay stops at the damaged frame and recovery truncates it.
    const std::size_t size = monitor_wal_.size_bytes();
    if (size > 0) monitor_wal_.TruncateTail(std::min<std::size_t>(size, 5));
    // The same cut hits every persistent local store mid-append: rip a few
    // bytes off each engine WAL so Recover()'s per-store Reopen must
    // detect and truncate the torn group-commit frames too (no-op on the
    // memory backend).
    for (auto& server : servers_) server->local().TearWalTail(5);
  }
  crashed_.store(true, std::memory_order_release);
  crashes_injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FunctionalCluster::JournalPlacementLocked() {
  WalRecord record;
  record.type = WalRecordType::kPlacementSnapshot;
  record.owners = scheme_.subtree_owners();
  record.version = gl_master_version_.load(std::memory_order_acquire);
  monitor_wal_.Append(record);
}

void FunctionalCluster::JournalCapacitiesLocked() {
  WalRecord record;
  record.type = WalRecordType::kCapacitySnapshot;
  record.capacities = capacities_.capacities;
  monitor_wal_.Append(record);
}

Assignment FunctionalCluster::PlacementLocked() const {
  Assignment placement = assignment_;
  for (NodeId id : parked_nodes_) placement.owner[id] = kInPendingPool;
  return placement;
}

void FunctionalCluster::RebuildGlReplicaLocked(MdsId mds) {
  const std::uint64_t master =
      gl_master_version_.load(std::memory_order_acquire);
  MetadataStore& replica = servers_[mds]->global_replica();
  replica.Clear();
  const MdsServer* donor = nullptr;
  for (const auto& server : servers_) {
    if (server->id() != mds && server->alive() &&
        server->gl_version() == master) {
      donor = server.get();
      break;
    }
  }
  Message rebuild{.type = MsgType::kGlCommit};
  if (donor != nullptr) {
    const auto snapshot = donor->global_replica().Snapshot();
    rebuild.payload_records = snapshot.size();
    replica.InsertAll(snapshot);
  } else {
    // No live replica to copy from: re-materialize from the backing store
    // (update history is lost, but the namespace itself is durable).
    rebuild.payload_records = FillGlReplica(tree_, assignment_, replica);
  }
  // The bulk transfer rides the wire (donor replica, else the Monitor's
  // backing store); the rebuild itself is fenced by the placement epoch,
  // so an undeliverable leg only loses the latency, not the data.
  AccountControl(transport_->SendReliable(
      donor != nullptr ? MdsAddress(donor->id()) : MonitorAddress(),
      MdsAddress(mds), rebuild));
  servers_[mds]->set_gl_version(master);
}

FunctionalCluster::ClientResult FunctionalCluster::StatAt(NodeId target,
                                                          MdsId at) {
  ClientResult out;
  if (crashed_.load(std::memory_order_acquire) ||
      parked_nodes_.contains(target)) {
    // The metadata service is down (crash armed and fired), or the
    // target's subtree is parked mid-handoff in the pending pool: nobody
    // may answer until Recover() / the re-issued pull lands.
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    out.status = MdsStatus::kUnavailable;
    out.op_class = OpClass::kFailover;
    out.net_error = DeliveryError::kUndeliverable;
    out.hops = 0;  // nothing was contacted
    return out;
  }
  const auto ancestors = tree_.AncestorsOf(target);
  out.hops = 1;
  out.served_by = at;
  bool failed_over = false;

  const Message req{.type = MsgType::kStatRequest, .target = target};
  Delivery d = transport_->Send(ClientAddress(), MdsAddress(at), req);
  out.sim_latency_us += d.latency_us;
  if (!d.delivered || !AliveLocked(at)) {
    // The contact failed — dead server, or the request leg was lost: the
    // client invalidates its cached route and retries once against the
    // authoritative placement (bounded failover).
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    failed_over = true;
    // A lost leg keeps its own verdict; a delivered leg to a dead server
    // is the in-process analogue of a refused connection.
    out.net_error =
        !d.delivered ? d.error : DeliveryError::kUndeliverable;
    const MdsId owner = assignment_.OwnerOf(target);
    const MdsId retry = owner == kReplicated ? AnyAliveLocked() : owner;
    if (!AliveLocked(retry)) {
      // The authoritative owner is down too: nobody can answer until an
      // adjustment round re-places the orphaned subtree.
      out.status = MdsStatus::kUnavailable;
      out.op_class = OpClass::kFailover;
      return out;
    }
    at = retry;
    out.hops = 2;
    out.served_by = at;
    d = transport_->Send(ClientAddress(), MdsAddress(at), req);
    out.sim_latency_us += d.latency_us;
    if (!d.delivered) {
      // One failover is the bound — a second lost leg means the op fails.
      out.status = MdsStatus::kUnavailable;
      out.op_class = OpClass::kFailover;
      out.net_error = d.error;
      return out;
    }
  }

  MdsOpResult r = servers_[at]->Stat(target, ancestors);
  if (r.status == MdsStatus::kWrongServer) {
    // Forward to the authoritative owner (the receiving server consults
    // its copy of the local index — here: the cluster's).
    ++forwards_;
    const MdsId owner = assignment_.OwnerOf(target);
    const MdsId retry = owner == kReplicated ? at : owner;
    if (retry != at) {
      ++out.hops;
      ++out.jumps;
      out.served_by = retry;
      if (!AliveLocked(retry)) {
        // Owner crashed and its subtree has not been re-placed yet.
        failover_redirects_.fetch_add(1, std::memory_order_relaxed);
        out.status = MdsStatus::kUnavailable;
        out.op_class = OpClass::kFailover;
        out.net_error = DeliveryError::kUndeliverable;
        return out;
      }
      const Message fwd{.type = MsgType::kForward, .target = target};
      const Delivery leg =
          transport_->Send(MdsAddress(at), MdsAddress(retry), fwd);
      out.sim_latency_us += leg.latency_us;
      if (!leg.delivered) {
        // The forward was lost between servers; the client times out and
        // gives up (its next attempt would go straight to the owner).
        failover_redirects_.fetch_add(1, std::memory_order_relaxed);
        out.status = MdsStatus::kUnavailable;
        out.op_class = OpClass::kFailover;
        out.net_error = leg.error == DeliveryError::kUndeliverable
                            ? DeliveryError::kUndeliverable
                            : DeliveryError::kTimeout;
        return out;
      }
      r = servers_[retry]->Stat(target, ancestors);
    }
  }

  const Message resp{
      .type = MsgType::kStatResponse, .target = target, .status = r.status};
  const Delivery back =
      transport_->Send(MdsAddress(out.served_by), ClientAddress(), resp);
  out.sim_latency_us += back.latency_us;
  if (!back.delivered) {
    // Answer computed but the response leg was lost: to the client this is
    // a timeout — it invalidates its cached route like any failover.
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    out.status = MdsStatus::kUnavailable;
    out.op_class = OpClass::kFailover;
    out.net_error = back.error == DeliveryError::kUndeliverable
                        ? DeliveryError::kUndeliverable
                        : DeliveryError::kTimeout;
    return out;
  }
  out.status = r.status;
  out.record = r.record;
  out.op_class = failed_over                        ? OpClass::kFailover
                 : assignment_.IsReplicated(target) ? OpClass::kGlHit
                 : out.jumps == 0                   ? OpClass::kLl0Jump
                                                    : OpClass::kLl1Jump;
  return out;
}

FunctionalCluster::ClientResult FunctionalCluster::Stat(
    const std::string& path) {
  NodeId target;
  std::uint64_t entropy;
  {
    MutexLock lock(&client_mu_);
    target = tree_.Resolve(path);
    if (target == kInvalidNode) return {};
    tree_.AddAccess(target);
    entropy = rng_();
  }
  ReaderMutexLock topo(&topo_mu_);
  const RouteDecision route =
      DecideRoute(tree_, scheme_.local_index(), target);
  // Entry for GL-resident targets: any server (picked under the placement
  // lock, since AddServer may grow the cluster concurrently).
  const MdsId fallback = static_cast<MdsId>(entropy % servers_.size());
  return StatAt(target, route.owner.value_or(fallback));
}

FunctionalCluster::ClientResult FunctionalCluster::StatVia(
    const std::string& path, MdsId via) {
  NodeId target;
  {
    MutexLock lock(&client_mu_);
    target = tree_.Resolve(path);
    if (target == kInvalidNode) return {};
    tree_.AddAccess(target);
  }
  ReaderMutexLock topo(&topo_mu_);
  if (via < 0 || static_cast<std::size_t>(via) >= servers_.size()) {
    // No such server: reject instead of indexing servers_ out of range.
    ClientResult out;
    out.status = MdsStatus::kUnavailable;
    out.served_by = via;
    out.hops = 0;  // nothing was contacted
    out.op_class = OpClass::kFailover;
    out.net_error = DeliveryError::kUndeliverable;
    return out;
  }
  return StatAt(target, via);
}

FunctionalCluster::ClientResult FunctionalCluster::Update(
    const std::string& path, std::uint64_t mtime) {
  ClientResult out;
  NodeId target;
  std::vector<NodeId> ancestors;
  {
    MutexLock lock(&client_mu_);
    target = tree_.Resolve(path);
    if (target == kInvalidNode) return out;
    tree_.AddAccess(target);
    ancestors = tree_.AncestorsOf(target);
  }

  ReaderMutexLock topo(&topo_mu_);
  if (crashed_.load(std::memory_order_acquire) ||
      parked_nodes_.contains(target)) {
    // Service crashed, or the target's subtree is parked mid-handoff.
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    out.status = MdsStatus::kUnavailable;
    out.op_class = OpClass::kFailover;
    out.net_error = DeliveryError::kUndeliverable;
    return out;
  }
  const RouteDecision route = DecideRoute(tree_, scheme_.local_index(), target);
  if (route.gl_resident()) {
    // Global-layer update: lock, bump the master version, write every
    // live replica before acking (Sec. IV-A3); dead replicas catch up via
    // the rebuild at revive. The wait for the lock is the live-cluster
    // contention signal the harness reports.
    const auto t0 = std::chrono::steady_clock::now();
    MutexLock lock(&gl_mu_);
    gl_lock_wait_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count(),
        std::memory_order_relaxed);
    const MdsId coord = AnyAliveLocked();
    if (coord < 0) {
      out.status = MdsStatus::kUnavailable;
      out.net_error = DeliveryError::kUndeliverable;
      return out;
    }
    out.served_by = coord;  // the coordinating replica answers
    const Message req{
        .type = MsgType::kUpdateRequest, .target = target, .mtime = mtime};
    const Delivery d =
        transport_->Send(ClientAddress(), MdsAddress(coord), req);
    out.sim_latency_us += d.latency_us;
    if (!d.delivered) {
      failover_redirects_.fetch_add(1, std::memory_order_relaxed);
      out.status = MdsStatus::kUnavailable;
      out.op_class = OpClass::kFailover;
      out.net_error = d.error;
      return out;
    }
    // Write-lock round with the Monitor's lock service (Sec. IV-A3).
    const Message lock_msg{.type = MsgType::kGlWriteLock, .target = target};
    const Delivery lock_req = transport_->SendReliable(
        MdsAddress(coord), MonitorAddress(), lock_msg);
    const Delivery lock_grant = transport_->SendReliable(
        MonitorAddress(), MdsAddress(coord), lock_msg);
    out.sim_latency_us += lock_req.latency_us + lock_grant.latency_us;
    const std::uint64_t version =
        gl_master_version_.load(std::memory_order_relaxed) + 1;
    // WAL discipline: the version bump is durable *before* any replica
    // applies it, so recovery always rebuilds at (at least) the version a
    // half-broadcast update reached.
    {
      WalRecord bump;
      bump.type = WalRecordType::kGlVersion;
      bump.root = target;
      bump.version = version;
      monitor_wal_.Append(bump);
    }
    gl_master_version_.store(version, std::memory_order_release);
    if (MaybeCrash(CrashSite::kAfterGlBump)) {
      // Bump journaled, broadcast never started: to the client this is an
      // outage; Recover() rebuilds every replica at the journaled version.
      out.status = MdsStatus::kUnavailable;
      out.op_class = OpClass::kFailover;
      return out;
    }
    const Message commit{.type = MsgType::kGlCommit,
                         .target = target,
                         .mtime = mtime,
                         .payload_records = 1};
    double broadcast_us = 0.0;
    for (auto& server : servers_) {
      if (!server->alive()) continue;
      if (server->id() != coord) {
        // Replica legs fan out concurrently; the ack the coordinator waits
        // for is the slowest one. A leg a partition defeats is fenced by
        // the version and caught up by the rebuild sweep.
        const Delivery leg = transport_->SendReliable(
            MdsAddress(coord), MdsAddress(server->id()), commit);
        broadcast_us = std::max(broadcast_us, leg.latency_us);
      }
      server->global_replica().Mutate(target, mtime);
      server->set_gl_version(version);
    }
    out.sim_latency_us += broadcast_us;
    ++gl_updates_;
    out.record = *servers_[coord]->global_replica().Get(target);
    const Message resp{.type = MsgType::kUpdateResponse,
                       .target = target,
                       .status = MdsStatus::kOk};
    const Delivery back =
        transport_->Send(MdsAddress(coord), ClientAddress(), resp);
    out.sim_latency_us += back.latency_us;
    if (!back.delivered) {
      // Committed but unacknowledged: the client sees a timeout.
      failover_redirects_.fetch_add(1, std::memory_order_relaxed);
      out.status = MdsStatus::kUnavailable;
      out.op_class = OpClass::kFailover;
      out.net_error = back.error == DeliveryError::kUndeliverable
                          ? DeliveryError::kUndeliverable
                          : DeliveryError::kTimeout;
      return out;
    }
    out.status = MdsStatus::kOk;
    out.op_class = OpClass::kGlHit;
    return out;
  }

  const MdsId owner = *route.owner;
  out.served_by = owner;
  if (!AliveLocked(owner)) {
    // Writes have a single authority; with the owner down the client can
    // only invalidate its cache and report the outage.
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    out.status = MdsStatus::kUnavailable;
    out.op_class = OpClass::kFailover;
    out.net_error = DeliveryError::kUndeliverable;
    return out;
  }
  const Message req{
      .type = MsgType::kUpdateRequest, .target = target, .mtime = mtime};
  const Delivery d = transport_->Send(ClientAddress(), MdsAddress(owner), req);
  out.sim_latency_us += d.latency_us;
  if (!d.delivered) {
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    out.status = MdsStatus::kUnavailable;
    out.op_class = OpClass::kFailover;
    out.net_error = d.error;
    return out;
  }
  const MdsOpResult r = servers_[owner]->UpdateLocal(target, ancestors, mtime);
  const Message resp{
      .type = MsgType::kUpdateResponse, .target = target, .status = r.status};
  const Delivery back =
      transport_->Send(MdsAddress(owner), ClientAddress(), resp);
  out.sim_latency_us += back.latency_us;
  if (!back.delivered) {
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    out.status = MdsStatus::kUnavailable;
    out.op_class = OpClass::kFailover;
    out.net_error = back.error == DeliveryError::kUndeliverable
                        ? DeliveryError::kUndeliverable
                        : DeliveryError::kTimeout;
    return out;
  }
  out.status = r.status;
  out.record = r.record;
  out.op_class = OpClass::kLl0Jump;
  return out;
}

FunctionalCluster::RenameResult FunctionalCluster::Rename(
    const std::string& path, const std::string& new_name) {
  return RenameImpl(path, new_name, std::nullopt);
}

FunctionalCluster::RenameResult FunctionalCluster::RenameTo(
    const std::string& path, const std::string& new_name, MdsId dest) {
  return RenameImpl(path, new_name, dest);
}

bool FunctionalCluster::ApplyRenameLocked(NodeId id,
                                          const std::string& new_name) {
  if (tree_.node(id).name == new_name) return true;  // already applied
  if (tree_.FindChild(tree_.node(id).parent, new_name) != kInvalidNode)
    return false;  // a later transaction took the name; keep its outcome
  tree_.Rename(id, new_name);
  return true;
}

FunctionalCluster::RenameResult FunctionalCluster::RenameImpl(
    const std::string& path, const std::string& new_name,
    std::optional<MdsId> dest_opt) {
  RenameResult out;
  // A rename is a placement-epoch transition, not a data-plane op: it
  // freezes popularity charging and holds the placement lock exclusively
  // for the whole transaction, exactly like an adjustment round (lock
  // order client_mu_ → topo_mu_ → gl_mu_), so clients never observe a
  // half-renamed namespace.
  MutexLock client(&client_mu_);
  WriterMutexLock topo(&topo_mu_);
  if (crashed_.load(std::memory_order_acquire)) {
    out.status = MdsStatus::kUnavailable;
    return out;
  }
  const NodeId target = tree_.Resolve(path);
  if (target == kInvalidNode) return out;  // kNotFound
  if (target == tree_.root() || new_name.empty() ||
      new_name.find('/') != std::string::npos) {
    out.status = MdsStatus::kNotPermitted;
    return out;
  }
  const NodeId sibling = tree_.FindChild(tree_.node(target).parent, new_name);
  if (sibling == target) {
    out.status = MdsStatus::kOk;  // renaming to the current name: no-op
    return out;
  }
  if (sibling != kInvalidNode) {
    out.status = MdsStatus::kNotPermitted;  // sibling collision
    return out;
  }
  if (parked_nodes_.contains(target)) {
    // Pinned to an in-flight handoff: nobody may touch the subtree until
    // the parked pull lands or aborts.
    out.status = MdsStatus::kUnavailable;
    return out;
  }
  tree_.AddAccess(target);  // a rename charges popularity like any access

  const RenameRoute route =
      DecideRenameRoute(tree_, scheme_.local_index(), target);
  const MdsId src = route.owner.value_or(kReplicated);
  MdsId dst = src;
  if (dest_opt.has_value()) {
    dst = *dest_opt;
    if (route.gl_resident() || !route.subtree_root) {
      // Re-homing is only meaningful at the unit of distribution: a
      // registered local-layer subtree root.
      out.status = MdsStatus::kNotPermitted;
      return out;
    }
    if (dst < 0 || static_cast<std::size_t>(dst) >= servers_.size()) {
      out.status = MdsStatus::kNotPermitted;
      return out;
    }
    if (!AliveLocked(dst)) {
      out.status = MdsStatus::kUnavailable;
      return out;
    }
  }
  const bool cross = dst != src;
  out.cross_server = cross;

  // Coordinator: the source owner when it lives; the destination when a
  // cross-server rename drains a crashed owner (its records are recovered
  // from the backing store below); any replica for a GL-resident target.
  MdsId coord;
  if (route.gl_resident()) {
    coord = AnyAliveLocked();
    if (coord < 0) {
      out.status = MdsStatus::kUnavailable;
      return out;
    }
  } else if (AliveLocked(src)) {
    coord = src;
  } else if (cross) {
    coord = dst;
  } else {
    // In-place rename needs its single write authority.
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    out.status = MdsStatus::kUnavailable;
    return out;
  }

  // Request leg; a lost leg fails the op before anything was journaled.
  const Message req{.type = MsgType::kRenameRequest, .target = target};
  const Delivery d = transport_->Send(ClientAddress(), MdsAddress(coord), req);
  out.sim_latency_us += d.latency_us;
  if (!d.delivered) {
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    out.status = MdsStatus::kUnavailable;
    return out;
  }
  // Coordinator ⇄ Monitor lock round: renames serialize through the same
  // ZooKeeper-style lock service as GL writes (Sec. IV-A3); the Monitor
  // hands out the transaction id from the shared monotone counter.
  const Message lock_msg{.type = MsgType::kGlWriteLock, .target = target};
  const Delivery lock_req =
      transport_->SendReliable(MdsAddress(coord), MonitorAddress(), lock_msg);
  const Delivery lock_grant =
      transport_->SendReliable(MonitorAddress(), MdsAddress(coord), lock_msg);
  out.sim_latency_us += lock_req.latency_us + lock_grant.latency_us;

  // --- INTENT: the transaction exists, nothing changed. Crash in this
  // window → Recover() rolls it back (journaled abort).
  const std::uint64_t rename_id = next_migration_id_++;
  out.rename_id = rename_id;
  WalRecord intent;
  intent.type = WalRecordType::kRenameIntent;
  intent.migration_id = rename_id;
  intent.root = target;
  intent.from = src;
  intent.to = dst;
  intent.name = new_name;
  intent.prev_name = tree_.node(target).name;  // abort restores this
  monitor_wal_.Append(intent);
  if (MaybeCrash(CrashSite::kAfterRenameIntent)) {
    out.status = MdsStatus::kUnavailable;
    return out;
  }

  // --- PREPARE: a cross-server rename extracts the subtree from the
  // source (records a crashed owner lost come back from the backing
  // store, old names and all — the WAL carries the new one); in-place
  // renames park nothing. Once the prepare record is durable the
  // transaction rolls *forward* after a crash.
  std::vector<NodeId> members;
  std::vector<InodeRecord> records;
  if (cross) {
    members.reserve(tree_.SubtreeSize(target));
    tree_.VisitSubtree(target, [&](NodeId v) { members.push_back(v); });
    if (src >= 0 && static_cast<std::size_t>(src) < servers_.size())
      records = servers_[src]->local().ExtractAll(members);
    if (records.size() < members.size()) {
      std::unordered_set<NodeId> extracted;
      extracted.reserve(records.size());
      for (const InodeRecord& r : records) extracted.insert(r.id);
      for (NodeId v : members)
        if (!extracted.contains(v)) records.push_back(MakeRecord(tree_, v));
      recovered_records_.fetch_add(members.size() - extracted.size(),
                                   std::memory_order_relaxed);
    }
  }
  WalRecord prepare = intent;
  prepare.type = WalRecordType::kRenamePrepare;
  prepare.count = records.size();
  monitor_wal_.Append(prepare);
  if (MaybeCrash(CrashSite::kAfterRenamePrepare)) {
    out.status = MdsStatus::kUnavailable;
    return out;
  }

  // --- TRANSFER (cross-server only): the extracted records travel
  // source → destination under the control-plane retry discipline. A
  // rename is a synchronous client-facing op, so an undeliverable leg
  // aborts the transaction (journaled) and restores the source — unlike
  // migrations, nothing parks.
  std::string xfer_table;
  if (cross) {
    // The records land at the destination post-rename, so apply the new
    // name to the in-flight copy up front — the per-record path used to
    // do this between transfer and apply; the sealed table must carry the
    // final bytes because the destination links the file in untouched.
    for (InodeRecord& r : records)
      if (r.id == target) {
        r.name = new_name;
        ++r.version;
      }
    xfer_table = SealForShipping("ren", rename_id, records);
    Message xfer{.type = xfer_table.empty() ? MsgType::kRenamePrepare
                                            : MsgType::kBulkTable,
                 .target = target,
                 .payload_records = records.size(),
                 .migration_id = rename_id,
                 .name = xfer_table};
    if (!SendControl(MdsAddress(src), MdsAddress(dst), xfer, control_policy_,
                     rename_id)) {
      WalRecord abort = intent;
      abort.type = WalRecordType::kRenameAbort;
      monitor_wal_.Append(abort);
      if (!xfer_table.empty()) {
        std::error_code ec;
        std::filesystem::remove(xfer_table, ec);
      }
      if (AliveLocked(src)) {
        // Undo the pre-applied rename before the records go home.
        for (InodeRecord& r : records)
          if (r.id == target) {
            r.name = tree_.node(target).name;
            --r.version;
          }
        servers_[src]->local().InsertAll(records);
      }
      renames_aborted_.fetch_add(1, std::memory_order_relaxed);
      out.status = MdsStatus::kUnavailable;
      return out;
    }
  }

  // --- APPLY: the backing tree takes the new name (idempotent — recovery
  // and journal replay re-apply it), then the records land at their
  // holder. Crash in this window → roll forward.
  ApplyRenameLocked(target, new_name);
  if (cross) {
    // Destination-side dedup on the rename id, exactly like a migration
    // pull: a re-delivered transfer is applied at most once.
    const bool applied_now =
        xfer_table.empty()
            ? servers_[dst]->ApplyPull(rename_id, records)
            : servers_[dst]->ApplyPullTable(rename_id, xfer_table);
    if (applied_now) {
      WalRecord applied;
      applied.type = WalRecordType::kPullApplied;
      applied.migration_id = rename_id;
      applied.count = records.size();
      mds_wals_[dst]->Append(applied);
    } else {
      duplicate_pulls_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!xfer_table.empty()) {
      bulk_tables_shipped_.fetch_add(1, std::memory_order_relaxed);
      bulk_records_shipped_.fetch_add(records.size(),
                                      std::memory_order_relaxed);
      std::error_code ec;
      std::filesystem::remove(xfer_table, ec);
    }
    out.records_moved = records.size();
  } else if (!route.gl_resident()) {
    // In-place local-layer rename: rewrite the record at its owner. (A
    // GL-resident rename rewrites every live replica under the GL lock
    // in the commit step below.)
    auto rec = servers_[src]->local().Get(target);
    if (rec.has_value()) {
      rec->name = new_name;
      ++rec->version;
      servers_[src]->local().Put(*rec);
    }
  }
  if (MaybeCrash(CrashSite::kAfterRenameApply)) {
    out.status = MdsStatus::kUnavailable;
    return out;
  }

  // --- COMMIT: ownership flips at the unit of distribution, the GL
  // master version bumps (journaled before any replica applies it) so
  // every cached client index and lease invalidates, and the commit
  // record makes the transaction terminal. Crash after the commit record
  // → replay is idempotent.
  if (cross) {
    const auto& subtrees = scheme_.layers().subtrees;
    for (std::size_t i = 0; i < subtrees.size(); ++i) {
      if (subtrees[i].root == target) {
        scheme_.SetSubtreeOwner(i, dst);
        break;
      }
    }
    for (NodeId v : members) assignment_.owner[v] = dst;
  }
  std::uint64_t version = 0;
  {
    MutexLock gl(&gl_mu_);
    version = gl_master_version_.load(std::memory_order_relaxed) + 1;
    WalRecord bump;
    bump.type = WalRecordType::kGlVersion;
    bump.root = target;
    bump.version = version;
    monitor_wal_.Append(bump);
    gl_master_version_.store(version, std::memory_order_release);
    const Message commit_msg{.type = MsgType::kRenameCommit,
                             .target = target,
                             .payload_records = route.gl_resident() ? 1u : 0u,
                             .migration_id = rename_id};
    double broadcast_us = 0.0;
    for (auto& server : servers_) {
      if (!server->alive()) continue;
      if (server->id() != coord) {
        const Delivery leg = transport_->SendReliable(
            MdsAddress(coord), MdsAddress(server->id()), commit_msg);
        broadcast_us = std::max(broadcast_us, leg.latency_us);
      }
      if (route.gl_resident()) {
        auto rec = server->global_replica().Get(target);
        if (rec.has_value()) {
          rec->name = new_name;
          ++rec->version;
          server->global_replica().Put(*rec);
        }
      }
      server->set_gl_version(version);
    }
    out.sim_latency_us += broadcast_us;
  }
  WalRecord commit = intent;
  commit.type = WalRecordType::kRenameCommit;
  commit.version = version;
  monitor_wal_.Append(commit);
  renames_committed_.fetch_add(1, std::memory_order_relaxed);
  if (MaybeCrash(CrashSite::kAfterRenameCommit)) {
    // Durable but unacknowledged: the client sees an outage; replaying
    // the journaled commit is a no-op.
    out.status = MdsStatus::kUnavailable;
    return out;
  }

  const Message resp{.type = MsgType::kRenameResponse,
                     .target = target,
                     .status = MdsStatus::kOk,
                     .migration_id = rename_id};
  const Delivery back =
      transport_->Send(MdsAddress(coord), ClientAddress(), resp);
  out.sim_latency_us += back.latency_us;
  if (!back.delivered) {
    // Committed but unacknowledged: the client sees a timeout.
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    out.status = MdsStatus::kUnavailable;
    return out;
  }
  out.status = MdsStatus::kOk;
  return out;
}

std::size_t FunctionalCluster::CheckPathIntegrity(std::string* error) const {
  // Names mutate only under client_mu_ + exclusive topo_mu_ (the rename
  // transaction's hold), so holding client_mu_ alone fences this audit
  // against every writer.
  MutexLock client(&client_mu_);
  std::size_t violations = 0;
  for (NodeId id = 0; id < tree_.size(); ++id) {
    const std::string path = tree_.PathOf(id);
    const NodeId resolved = tree_.Resolve(path);
    if (resolved != id) {
      ++violations;
      if (error != nullptr && violations == 1)
        *error = "path " + path + " resolves to node " +
                 std::to_string(resolved) + ", expected " + std::to_string(id);
    }
  }
  return violations;
}

bool FunctionalCluster::KillServer(MdsId mds) {
  WriterMutexLock topo(&topo_mu_);
  if (!AliveLocked(mds)) return false;
  if (AliveCountLocked() <= 1) return false;  // keep the namespace reachable
  servers_[mds]->set_alive(false);
  // A crash loses the volatile stores *and* the in-memory pull-dedup set;
  // orphaned local records are recovered from the backing store when
  // their subtrees are re-placed, the dedup set from the server's WAL at
  // revive. A persistent local store keeps its durable state — memtable
  // gone, WAL replayed — exactly what a SIGKILL leaves behind.
  servers_[mds]->LoseVolatileState(store_spec_.persistent());
  return true;
}

bool FunctionalCluster::ReviveServer(MdsId mds) {
  WriterMutexLock topo(&topo_mu_);
  if (mds < 0 || static_cast<std::size_t>(mds) >= servers_.size() ||
      servers_[mds]->alive()) {
    return false;
  }
  {
    MutexLock gl(&gl_mu_);
    // Replica first, liveness second: the server never serves a stale or
    // empty global layer.
    RebuildGlReplicaLocked(mds);
  }
  // A persistent store came through the crash holding its durable
  // records; anything an adjustment round re-placed while this server was
  // dead, or that is parked in the pending pool awaiting its re-issued
  // pull, must not resurface here as a second copy. Fast restart: if the
  // crash window closed before any adjustment round, this server is still
  // the assigned owner of its subtrees — once alive again nobody would
  // re-place them, so their records must come back with it,
  // re-materialized from the backing store (records the durable engine
  // preserved stay as they are, mutations and all).
  recovered_records_.fetch_add(
      FillLocalShard(tree_, PlacementLocked(), *servers_[mds]),
      std::memory_order_relaxed);
  // The pull-dedup set is volatile; rebuild it from this server's journal
  // so a pull retransmitted across the crash is still dropped.
  std::vector<std::uint64_t> applied;
  for (const WalRecord& r : mds_wals_[mds]->Replay())
    if (r.type == WalRecordType::kPullApplied) applied.push_back(r.migration_id);
  servers_[mds]->RestoreAppliedPulls(applied);
  servers_[mds]->set_heartbeats_suppressed(false);
  servers_[mds]->set_alive(true);
  return true;
}

MdsId FunctionalCluster::AddServer(double capacity) {
  WriterMutexLock topo(&topo_mu_);
  const MdsId id = static_cast<MdsId>(servers_.size());
  servers_.push_back(std::make_unique<MdsServer>(id, ServerStoreSpec(id)));
  mds_wals_.push_back(std::make_unique<Wal>());
  capacities_.capacities.push_back(capacity);
  // Membership change is a control-plane transition: checkpoint the new
  // capacity vector so recovery plans with the grown cluster.
  JournalCapacitiesLocked();
  MutexLock gl(&gl_mu_);
  RebuildGlReplicaLocked(id);
  return id;
}

bool FunctionalCluster::SetHeartbeatSuppressed(MdsId mds, bool suppressed) {
  WriterMutexLock topo(&topo_mu_);
  if (mds < 0 || static_cast<std::size_t>(mds) >= servers_.size())
    return false;
  servers_[mds]->set_heartbeats_suppressed(suppressed);
  return true;
}

bool FunctionalCluster::SetClientLinkDrop(MdsId mds, double probability) {
  WriterMutexLock topo(&topo_mu_);
  if (mds < 0 || static_cast<std::size_t>(mds) >= servers_.size())
    return false;
  return transport_->SetLinkDropRate(ClientAddress(), MdsAddress(mds),
                                     probability);
}

bool FunctionalCluster::SetMonitorPartition(MdsId mds, bool partitioned) {
  WriterMutexLock topo(&topo_mu_);
  if (mds < 0 || static_cast<std::size_t>(mds) >= servers_.size())
    return false;
  return transport_->SetPartitioned(MonitorAddress(), MdsAddress(mds),
                                    partitioned);
}

std::size_t FunctionalCluster::CompleteParkedLocked() {
  if (parked_.empty()) return 0;
  std::size_t moved = 0;
  std::vector<ParkedMigration> still_parked;
  for (ParkedMigration& mig : parked_) {
    if (!AliveLocked(mig.to)) {
      // The grantee died while the pull was parked: abort the handoff.
      // The records drop back to the durable backing store; the subtree
      // is re-placed through the pending pool like any orphan (its
      // planner owner still points at the dead grantee, i.e. capacity 0).
      WalRecord abort;
      abort.type = WalRecordType::kMigrationAbort;
      abort.migration_id = mig.id;
      abort.root = mig.root;
      abort.from = mig.from;
      abort.to = mig.to;
      monitor_wal_.Append(abort);
      for (NodeId v : mig.members) parked_nodes_.erase(v);
      if (!mig.table.empty()) {
        // The sealed table was never delivered; the records regenerate
        // from the backing store when the subtree is re-placed.
        std::error_code ec;
        std::filesystem::remove(mig.table, ec);
      }
      continue;
    }
    Message pull{.type = mig.table.empty() ? MsgType::kPendingPoolPull
                                           : MsgType::kBulkTable,
                 .target = mig.root,
                 .payload_records = mig.records.size(),
                 .migration_id = mig.id,
                 .name = mig.table};
    if (!SendControl(MonitorAddress(), MdsAddress(mig.to), pull,
                     control_policy_, mig.id)) {
      still_parked.push_back(std::move(mig));  // link still down: next round
      continue;
    }
    // The pull may be a re-delivery of one the grantee already applied
    // (e.g. its ack was the lost leg): dedup on the migration id decides.
    const bool applied_now =
        mig.table.empty()
            ? servers_[mig.to]->ApplyPull(mig.id, mig.records)
            : servers_[mig.to]->ApplyPullTable(mig.id, mig.table);
    if (applied_now) {
      WalRecord applied;
      applied.type = WalRecordType::kPullApplied;
      applied.migration_id = mig.id;
      applied.count = mig.records.size();
      mds_wals_[mig.to]->Append(applied);
    } else {
      duplicate_pulls_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!mig.table.empty()) {
      bulk_tables_shipped_.fetch_add(1, std::memory_order_relaxed);
      bulk_records_shipped_.fetch_add(mig.records.size(),
                                      std::memory_order_relaxed);
      std::error_code ec;
      std::filesystem::remove(mig.table, ec);
    }
    WalRecord commit;
    commit.type = WalRecordType::kMigrationCommit;
    commit.migration_id = mig.id;
    commit.root = mig.root;
    commit.from = mig.from;
    commit.to = mig.to;
    monitor_wal_.Append(commit);
    for (NodeId v : mig.members) parked_nodes_.erase(v);
    moved += mig.records.size();
  }
  parked_ = std::move(still_parked);
  return moved;
}

std::size_t FunctionalCluster::RunAdjustmentRound() {
  // Freeze popularity charging, then enter an exclusive placement epoch:
  // no client routes or touches a store while records are in flight
  // between servers (lock order: client_mu_ → topo_mu_).
  MutexLock client(&client_mu_);
  WriterMutexLock topo(&topo_mu_);
  if (crashed_.load(std::memory_order_acquire)) return 0;

  {
    // Defensive sweep: any live server whose GL replica lags the master
    // (revived/added under unusual interleavings) is rebuilt before it
    // can take subtree traffic.
    MutexLock gl(&gl_mu_);
    const std::uint64_t master =
        gl_master_version_.load(std::memory_order_acquire);
    for (const auto& server : servers_)
      if (server->alive() && server->gl_version() != master)
        RebuildGlReplicaLocked(server->id());
  }

  // Re-issue the pull of any migration a partition parked in an earlier
  // round (dedup on the migration id makes a re-delivery safe).
  std::size_t moved_records = CompleteParkedLocked();

  const MdsCluster effective = CollectHeartbeats();
  if (effective.TotalCapacity() <= 0.0)
    return moved_records;  // nobody can take load
  JournalCapacitiesLocked();

  tree_.RecomputeSubtreePopularity();
  const auto owners_before = scheme_.subtree_owners();
  const RebalanceResult plan =
      scheme_.Rebalance(tree_, effective, assignment_);
  const auto& owners_after = scheme_.subtree_owners();
  const auto& subtrees = scheme_.layers().subtrees;

  // Physically move each migrated subtree's records through the journaled
  // two-phase handoff: INTENT (planned, nothing moved) → PREPARE (records
  // extracted into the pending pool) → pull delivered + applied (the
  // receiver journals it) → COMMIT (ownership durable). A crash between
  // any two steps lands on exactly one side of the protocol: intent-only
  // rolls back, prepared-or-later rolls forward — never a duplicate,
  // never an orphan.
  std::vector<std::size_t> repinned;
  for (std::size_t i = 0; i < subtrees.size(); ++i) {
    const MdsId from = owners_before[i];
    const MdsId to = owners_after[i];
    if (from == to) continue;
    if (parked_nodes_.contains(subtrees[i].root)) {
      // In-flight handoff: the subtree stays pinned to its parked grantee
      // until that pull lands or aborts — re-planning it mid-flight would
      // put the same records in two migrations at once.
      scheme_.SetSubtreeOwner(i, from);
      repinned.push_back(i);
      continue;
    }
    const std::uint64_t mig_id = next_migration_id_++;
    WalRecord intent;
    intent.type = WalRecordType::kMigrationIntent;
    intent.migration_id = mig_id;
    intent.root = subtrees[i].root;
    intent.from = from;
    intent.to = to;
    monitor_wal_.Append(intent);
    if (MaybeCrash(CrashSite::kAfterIntent)) return moved_records;

    std::vector<NodeId> members;
    members.reserve(subtrees[i].node_count);
    tree_.VisitSubtree(subtrees[i].root,
                       [&](NodeId v) { members.push_back(v); });
    std::vector<InodeRecord> records;
    if (from >= 0 && static_cast<std::size_t>(from) < servers_.size())
      records = servers_[from]->local().ExtractAll(members);
    if (records.size() < members.size()) {
      // Crash recovery: whatever the failed owner lost is rebuilt from
      // the backing store before the subtree lands on its new server.
      std::unordered_set<NodeId> extracted;
      extracted.reserve(records.size());
      for (const InodeRecord& r : records) extracted.insert(r.id);
      for (NodeId v : members)
        if (!extracted.contains(v)) records.push_back(MakeRecord(tree_, v));
      recovered_records_.fetch_add(members.size() - extracted.size(),
                                   std::memory_order_relaxed);
    }
    // The records are now parked in the pending pool — durable by
    // construction (the backing store can always regenerate them), so
    // from here the migration rolls *forward* after a crash.
    WalRecord prepare = intent;
    prepare.type = WalRecordType::kMigrationPrepare;
    prepare.count = records.size();
    monitor_wal_.Append(prepare);
    // The migration is a pending-pool round trip (Sec. IV-B): the donor
    // pushes the subtree into the pool, the Monitor grants it to the
    // puller. An unreachable donor (crashed, or Monitor⇄MDS partition)
    // still drains — its lost records were just recovered above.
    Message push{.type = MsgType::kPendingPoolPush,
                 .target = subtrees[i].root,
                 .payload_records = records.size(),
                 .migration_id = mig_id};
    if (AliveLocked(from))
      SendControl(MdsAddress(from), MonitorAddress(), push, control_policy_,
                  mig_id);
    if (MaybeCrash(CrashSite::kAfterPrepare)) return moved_records;

    // With a persistent backend the subtree travels as one sealed SSTable
    // (the kBulkTable leg below) that the destination ingests by file
    // link-in; otherwise the pull carries the records per-record. A seal
    // failure silently degrades to the per-record path.
    const std::string table = SealForShipping("mig", mig_id, records);
    Message pull = push;
    if (table.empty()) {
      pull.type = MsgType::kPendingPoolPull;
    } else {
      pull.type = MsgType::kBulkTable;
      pull.name = table;
    }
    if (!SendControl(MonitorAddress(), MdsAddress(to), pull, control_policy_,
                     mig_id)) {
      // The grant cannot reach the puller (Monitor⇄MDS partition outlasted
      // every retry): park the migration instead of committing blind. The
      // records wait in the pool (sealed table included), the member nodes
      // answer kUnavailable, and the next round re-issues the pull.
      ParkedMigration mig;
      mig.id = mig_id;
      mig.root = subtrees[i].root;
      mig.from = from;
      mig.to = to;
      mig.members = std::move(members);
      mig.records = std::move(records);
      mig.table = table;
      for (NodeId v : mig.members) parked_nodes_.insert(v);
      parked_.push_back(std::move(mig));
      continue;
    }
    const bool applied_now =
        table.empty()
            ? servers_[to]->ApplyPull(mig_id, records)
            : servers_[to]->ApplyPullTable(mig_id, table);
    if (applied_now) {
      WalRecord applied;
      applied.type = WalRecordType::kPullApplied;
      applied.migration_id = mig_id;
      applied.count = records.size();
      mds_wals_[to]->Append(applied);
    } else {
      duplicate_pulls_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!table.empty()) {
      bulk_tables_shipped_.fetch_add(1, std::memory_order_relaxed);
      bulk_records_shipped_.fetch_add(records.size(),
                                      std::memory_order_relaxed);
      std::error_code ec;
      std::filesystem::remove(table, ec);  // the engine link-in holds it
    }
    if (MaybeCrash(CrashSite::kAfterPull)) return moved_records;

    WalRecord commit = intent;
    commit.type = WalRecordType::kMigrationCommit;
    monitor_wal_.Append(commit);
    if (MaybeCrash(CrashSite::kAfterCommitLocal)) return moved_records;
    moved_records += records.size();
  }
  assignment_ = plan.assignment;
  // A repinned subtree's committed owner is its parked grantee, not the
  // owner this round planned: restore it in the fresh assignment too.
  for (std::size_t i : repinned)
    tree_.VisitSubtree(subtrees[i].root, [&](NodeId v) {
      assignment_.owner[v] = owners_before[i];
    });
  // Round checkpoint: the next recovery replays from this placement plus
  // whatever migration records follow it.
  JournalPlacementLocked();
  adjustment_rounds_.fetch_add(1, std::memory_order_relaxed);
  return moved_records;
}

bool FunctionalCluster::CheckConsistency(std::string* error) const {
  // Shared placement lock: no migration in flight. The GL lock quiesces
  // writers so no replica is observed mid-broadcast.
  ReaderMutexLock topo(&topo_mu_);
  MutexLock gl(&gl_mu_);
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (crashed_.load(std::memory_order_acquire))
    return fail("metadata service crashed; Recover() before auditing");
  if (AliveCountLocked() == 0) return fail("no server is alive");
  // Each live server holds exactly its shard: an LL node whose owner is
  // alive is then held once, at its owner, and a node orphaned by a crash
  // or parked mid-handoff by no live server. The dead catch up on revive.
  const Assignment placement = PlacementLocked();
  const std::uint64_t master = gl_master_version_.load();
  for (const auto& server : servers_) {
    if (!server->alive()) continue;
    std::string shard_error = AuditShard(tree_, placement, *server);
    if (!shard_error.empty()) return fail(std::move(shard_error));
    if (server->gl_version() != master)
      return fail("server " + std::to_string(server->id()) +
                  " GL replica at stale version");
  }
  return true;
}

FunctionalCluster::RecoveryReport FunctionalCluster::Recover() {
  // Full quiesce: recovery rebuilds everything the locks guard.
  MutexLock client(&client_mu_);
  WriterMutexLock topo(&topo_mu_);
  MutexLock gl(&gl_mu_);
  RecoveryReport report;
  // Disarm any crash that was planted but never tripped: recovery restarts
  // the service from its journal, which supersedes a still-pending arm.
  armed_site_.store(-1, std::memory_order_release);
  armed_torn_.store(false, std::memory_order_release);

  // 1. Replay the Monitor WAL; a torn tail (crash mid-append) is detected
  //    by the framing CRC, reported, and truncated so future appends start
  //    on a clean frame boundary.
  WalReplayStats stats;
  const std::vector<WalRecord> journal = monitor_wal_.Replay(&stats);
  report.wal_records_replayed = journal.size();
  report.torn_tail_detected = stats.torn_tail;
  report.torn_bytes_discarded = stats.torn_bytes;
  if (stats.torn_tail) monitor_wal_.TruncateTail(stats.torn_bytes);

  // 2. Fold the journal into placement, capacities, the GL version and
  //    the set of in-flight migrations.
  const auto& subtrees = scheme_.layers().subtrees;
  std::unordered_map<NodeId, std::size_t> index_of_root;
  index_of_root.reserve(subtrees.size());
  for (std::size_t i = 0; i < subtrees.size(); ++i)
    index_of_root.emplace(subtrees[i].root, i);
  std::vector<MdsId> owners = scheme_.subtree_owners();  // fallback
  std::vector<double> caps;
  std::uint64_t gl_version = 1;
  enum class MigState { kIntent, kPrepared, kCommitted, kAborted };
  struct Flight {
    MigState state = MigState::kIntent;
    NodeId root = kInvalidNode;
    MdsId from = -1;
    MdsId to = -1;
  };
  std::map<std::uint64_t, Flight> flights;  // ordered: resolve in id order
  // Rename transactions fold the same way; the flight additionally
  // carries the post-rename name the WAL made durable at intent.
  struct RenameFlight {
    MigState state = MigState::kIntent;
    NodeId root = kInvalidNode;
    MdsId from = -1;
    MdsId to = -1;
    std::string name;
    std::string prev_name;
  };
  std::map<std::uint64_t, RenameFlight> rename_flights;
  std::uint64_t max_migration_id = 0;
  for (const WalRecord& r : journal) {
    switch (r.type) {
      case WalRecordType::kPlacementSnapshot:
        if (r.owners.size() == owners.size()) owners = r.owners;
        gl_version = std::max(gl_version, r.version);
        break;
      case WalRecordType::kCapacitySnapshot:
        caps = r.capacities;
        break;
      case WalRecordType::kMigrationIntent:
        flights[r.migration_id] = {MigState::kIntent, r.root, r.from, r.to};
        max_migration_id = std::max(max_migration_id, r.migration_id);
        break;
      case WalRecordType::kMigrationPrepare: {
        auto it = flights.find(r.migration_id);
        if (it != flights.end() && it->second.state == MigState::kIntent)
          it->second.state = MigState::kPrepared;
        break;
      }
      case WalRecordType::kMigrationCommit: {
        auto it = flights.find(r.migration_id);
        if (it != flights.end()) {
          it->second.state = MigState::kCommitted;
          auto idx = index_of_root.find(it->second.root);
          if (idx != index_of_root.end()) owners[idx->second] = it->second.to;
        }
        break;
      }
      case WalRecordType::kMigrationAbort: {
        auto it = flights.find(r.migration_id);
        if (it != flights.end()) it->second.state = MigState::kAborted;
        break;
      }
      case WalRecordType::kGlVersion:
        gl_version = std::max(gl_version, r.version);
        break;
      case WalRecordType::kRenameIntent:
        rename_flights[r.migration_id] = {MigState::kIntent, r.root, r.from,
                                          r.to, r.name, r.prev_name};
        max_migration_id = std::max(max_migration_id, r.migration_id);
        break;
      case WalRecordType::kRenamePrepare: {
        auto it = rename_flights.find(r.migration_id);
        if (it != rename_flights.end() &&
            it->second.state == MigState::kIntent)
          it->second.state = MigState::kPrepared;
        break;
      }
      case WalRecordType::kRenameCommit: {
        auto it = rename_flights.find(r.migration_id);
        if (it != rename_flights.end()) {
          it->second.state = MigState::kCommitted;
          // Re-apply in journal order — a node renamed twice must end at
          // the later name; each application is idempotent.
          ApplyRenameLocked(it->second.root, it->second.name);
          if (it->second.from != it->second.to) {
            auto idx = index_of_root.find(it->second.root);
            if (idx != index_of_root.end())
              owners[idx->second] = it->second.to;
          }
        }
        break;
      }
      case WalRecordType::kRenameAbort: {
        auto it = rename_flights.find(r.migration_id);
        if (it != rename_flights.end())
          it->second.state = MigState::kAborted;
        break;
      }
      case WalRecordType::kPullApplied:
        break;  // MDS-side record type; never in the Monitor's journal
    }
  }

  // 3. Resolve in-flight migrations. Intent-only: nothing had moved, the
  //    subtree stays with its donor — journal the abort. Prepared or
  //    later: the records were durably parked in the pending pool — land
  //    them at the grantee and journal the commit. Both decisions are
  //    idempotent under re-replay (a crash *during* recovery resolves to
  //    the same outcome).
  //    A rolled-forward transfer (migration pull or cross-server rename)
  //    may already be journaled at its destination: the crash hit between
  //    that append and the Monitor's commit. Dedup on the destination's
  //    own WAL decides whether rolling forward is a re-delivery.
  const auto journal_transfer_once = [&](MdsId to, std::uint64_t id) {
    if (to < 0 || static_cast<std::size_t>(to) >= mds_wals_.size()) return;
    for (const WalRecord& r : mds_wals_[to]->Replay()) {
      if (r.type == WalRecordType::kPullApplied && r.migration_id == id) {
        duplicate_pulls_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    WalRecord applied;
    applied.type = WalRecordType::kPullApplied;
    applied.migration_id = id;
    mds_wals_[to]->Append(applied);
  };
  for (auto& [id, flight] : flights) {
    if (flight.state == MigState::kIntent) {
      WalRecord abort;
      abort.type = WalRecordType::kMigrationAbort;
      abort.migration_id = id;
      abort.root = flight.root;
      abort.from = flight.from;
      abort.to = flight.to;
      monitor_wal_.Append(abort);
      ++report.migrations_rolled_back;
    } else if (flight.state == MigState::kPrepared) {
      auto idx = index_of_root.find(flight.root);
      if (idx != index_of_root.end()) owners[idx->second] = flight.to;
      WalRecord commit;
      commit.type = WalRecordType::kMigrationCommit;
      commit.migration_id = id;
      commit.root = flight.root;
      commit.from = flight.from;
      commit.to = flight.to;
      monitor_wal_.Append(commit);
      journal_transfer_once(flight.to, id);
      ++report.migrations_rolled_forward;
    }
  }

  // 3b. Resolve in-flight renames the same way. Intent-only: the
  //     namespace never changed — journal the abort. Prepared or later:
  //     the WAL carries the new name and destination, so apply the rename
  //     to the backing tree, flip ownership, bump the GL version (cached
  //     client indexes must invalidate) and journal the commit; the store
  //     rebuild below rematerializes every record at its post-rename
  //     truth. Both decisions are idempotent under re-replay.
  for (auto& [id, flight] : rename_flights) {
    if (flight.state == MigState::kIntent) {
      // A torn PREPARE can demote a transaction whose apply step already
      // ran: the journal's authority says rolled back, so the namespace
      // must match — restore the pre-rename name the INTENT made durable.
      if (!flight.prev_name.empty())
        ApplyRenameLocked(flight.root, flight.prev_name);
      WalRecord abort;
      abort.type = WalRecordType::kRenameAbort;
      abort.migration_id = id;
      abort.root = flight.root;
      abort.from = flight.from;
      abort.to = flight.to;
      abort.name = flight.name;
      abort.prev_name = flight.prev_name;
      monitor_wal_.Append(abort);
      renames_aborted_.fetch_add(1, std::memory_order_relaxed);
      ++report.renames_rolled_back;
    } else if (flight.state == MigState::kPrepared) {
      ApplyRenameLocked(flight.root, flight.name);
      if (flight.from != flight.to) {
        auto idx = index_of_root.find(flight.root);
        if (idx != index_of_root.end()) owners[idx->second] = flight.to;
        journal_transfer_once(flight.to, id);
      }
      ++gl_version;
      WalRecord bump;
      bump.type = WalRecordType::kGlVersion;
      bump.root = flight.root;
      bump.version = gl_version;
      monitor_wal_.Append(bump);
      WalRecord commit;
      commit.type = WalRecordType::kRenameCommit;
      commit.migration_id = id;
      commit.root = flight.root;
      commit.from = flight.from;
      commit.to = flight.to;
      commit.name = flight.name;
      commit.prev_name = flight.prev_name;
      commit.version = gl_version;
      monitor_wal_.Append(commit);
      renames_committed_.fetch_add(1, std::memory_order_relaxed);
      ++report.renames_rolled_forward;
    }
  }

  // 4. Rebuild the volatile world at the recovered placement. Every store
  //    was lost in the crash; the namespace itself is durable, so local
  //    records re-materialize from the backing store and GL replicas
  //    rebuild at the recovered master version.
  next_migration_id_ = std::max(next_migration_id_, max_migration_id + 1);
  parked_.clear();
  parked_nodes_.clear();
  const bool persistent = store_spec_.persistent();
  for (auto& server : servers_) {
    // A persistent local store restarts from its durable state: the engine
    // WAL is replayed with torn-tail truncation (the crash may have cut a
    // group-commit frame mid-append — MaybeCrash injects exactly that)
    // and the sealed tables come back as written.
    const StoreRecoveryInfo info = server->LoseVolatileState(persistent);
    if (info.wal_torn_tail) ++report.store_wals_torn;
    report.store_wal_records_replayed += info.wal_records_replayed;
    server->set_gl_version(0);
  }
  if (persistent) {
    // Sealed tables of handoffs in flight at the crash are orphans now —
    // the records rematerialize from the backing store below.
    std::error_code ec;
    std::filesystem::remove_all(store_spec_.data_dir + "/ship", ec);
    std::filesystem::create_directories(store_spec_.data_dir + "/ship", ec);
  }
  gl_master_version_.store(gl_version, std::memory_order_release);
  if (caps.size() == capacities_.capacities.size())
    capacities_.capacities = caps;
  for (std::size_t i = 0; i < subtrees.size() && i < owners.size(); ++i)
    scheme_.SetSubtreeOwner(i, owners[i]);
  assignment_.owner.assign(tree_.size(), kReplicated);
  assignment_.mds_count = servers_.size();
  for (std::size_t i = 0; i < subtrees.size() && i < owners.size(); ++i) {
    const MdsId owner = owners[i];
    tree_.VisitSubtree(subtrees[i].root,
                       [&](NodeId v) { assignment_.owner[v] = owner; });
  }
  for (const auto& server : servers_)
    if (server->alive()) RebuildGlReplicaLocked(server->id());
  // Durable records the recovered placement no longer puts on a server
  // are dropped (the migration that moved them away committed; their new
  // owner rematerializes them); records that survived keep their
  // mutations.
  std::size_t rematerialized = 0;
  for (auto& server : servers_)
    if (server->alive())
      rematerialized += FillLocalShard(tree_, assignment_, *server);
  report.records_rematerialized = rematerialized;
  recovered_records_.fetch_add(rematerialized, std::memory_order_relaxed);
  // Pull-dedup sets are rebuilt from each server's own journal, so a pull
  // retransmitted across the crash is still dropped.
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    std::vector<std::uint64_t> applied;
    for (const WalRecord& r : mds_wals_[k]->Replay())
      if (r.type == WalRecordType::kPullApplied)
        applied.push_back(r.migration_id);
    servers_[k]->RestoreAppliedPulls(applied);
  }
  // Fresh checkpoint: the next crash replays from here instead of from
  // genesis.
  JournalPlacementLocked();
  report.gl_version = gl_version;
  crashed_.store(false, std::memory_order_release);
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  return report;
}

}  // namespace d2tree
