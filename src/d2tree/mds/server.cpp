#include "d2tree/mds/server.h"

namespace d2tree {
namespace {

bool AgreesWithNamespace(const InodeRecord& record, const NamespaceTree& tree) {
  const MetaNode& n = tree.node(record.id);
  return record.name == n.name && record.parent == n.parent &&
         record.type == n.type;
}

}  // namespace

bool MdsServer::CheckAncestors(std::span<const NodeId> ancestors) const {
  for (NodeId a : ancestors) {
    if (!CanRead(a)) return false;
  }
  return true;
}

MdsOpResult MdsServer::Stat(NodeId target,
                            std::span<const NodeId> ancestors) const {
  MdsOpResult result;
  if (!alive()) {
    result.status = MdsStatus::kUnavailable;
    return result;
  }
  ++ops_;
  auto record = global_.Get(target);
  if (!record.has_value()) record = local_.Get(target);
  if (!record.has_value()) {
    result.status = MdsStatus::kWrongServer;
    return result;
  }
  // POSIX traversal: every ancestor must be visible here. With an intact
  // subtree plus the replicated crown this always holds for correctly
  // routed requests; a violation means the request was misrouted.
  if (!CheckAncestors(ancestors)) {
    result.status = MdsStatus::kWrongServer;
    return result;
  }
  result.status = MdsStatus::kOk;
  result.record = *record;
  return result;
}

bool MdsServer::ApplyPull(std::uint64_t migration_id,
                          const std::vector<InodeRecord>& records) {
  MutexLock lock(&pulls_mu_);
  if (!applied_pulls_.insert(migration_id).second) return false;  // dup
  local_.InsertAll(records);
  return true;
}

bool MdsServer::ApplyPullTable(std::uint64_t migration_id,
                               const std::string& path,
                               std::size_t* records_ingested) {
  MutexLock lock(&pulls_mu_);
  if (!applied_pulls_.insert(migration_id).second) return false;  // dup
  const std::size_t n = local_.IngestTable(path);
  if (records_ingested != nullptr) *records_ingested = n;
  return true;
}

bool MdsServer::HasAppliedPull(std::uint64_t migration_id) const {
  MutexLock lock(&pulls_mu_);
  return applied_pulls_.contains(migration_id);
}

void MdsServer::RestoreAppliedPulls(const std::vector<std::uint64_t>& ids) {
  MutexLock lock(&pulls_mu_);
  applied_pulls_.insert(ids.begin(), ids.end());
}

StoreRecoveryInfo MdsServer::LoseVolatileState(bool reopen_durable_local) {
  StoreRecoveryInfo info;
  if (reopen_durable_local) {
    info = local_.Reopen();
  } else {
    local_.Clear();
  }
  global_.Clear();
  MutexLock lock(&pulls_mu_);
  applied_pulls_.clear();
  return info;
}

MdsOpResult MdsServer::UpdateLocal(NodeId target,
                                   std::span<const NodeId> ancestors,
                                   std::uint64_t mtime) {
  MdsOpResult result;
  if (!alive()) {
    result.status = MdsStatus::kUnavailable;
    return result;
  }
  ++ops_;
  if (!local_.Contains(target)) {
    result.status = MdsStatus::kWrongServer;
    return result;
  }
  if (!CheckAncestors(ancestors)) {
    result.status = MdsStatus::kWrongServer;
    return result;
  }
  local_.Mutate(target, mtime);
  result.status = MdsStatus::kOk;
  result.record = *local_.Get(target);
  return result;
}

InodeRecord MakeRecord(const NamespaceTree& tree, NodeId id) {
  const MetaNode& n = tree.node(id);
  InodeRecord r;
  r.id = id;
  r.parent = n.parent;
  r.name = n.name;
  r.type = n.type;
  r.attrs.mode = n.is_directory() ? 0755 : 0644;
  r.attrs.size = n.is_directory() ? 4096 : 1024;
  r.version = 1;
  return r;
}

std::size_t FillLocalShard(const NamespaceTree& tree,
                           const Assignment& placement, MdsServer& server) {
  MetadataStore& local = server.local();
  for (NodeId held : local.HeldIds())
    if (held >= tree.size() || placement.OwnerOf(held) != server.id())
      local.Remove(held);
  std::size_t written = 0;
  for (NodeId id = 0; id < tree.size(); ++id) {
    if (placement.OwnerOf(id) != server.id()) continue;
    const auto held = local.Get(id);
    if (held.has_value() && AgreesWithNamespace(*held, tree)) continue;
    local.Put(MakeRecord(tree, id));
    ++written;
  }
  return written;
}

std::size_t FillGlReplica(const NamespaceTree& tree,
                          const Assignment& placement, MetadataStore& replica) {
  std::size_t written = 0;
  for (NodeId id = 0; id < tree.size(); ++id) {
    if (!placement.IsReplicated(id)) continue;
    replica.Put(MakeRecord(tree, id));
    ++written;
  }
  return written;
}

std::string AuditShard(const NamespaceTree& tree, const Assignment& placement,
                       const MdsServer& server) {
  const std::string me = "mds" + std::to_string(server.id()) + ": ";
  const auto fail = [&](NodeId id, const char* what) {
    return me + tree.PathOf(id) + " " + what;
  };
  // Both snapshots ascend by id, so one pass over the namespace walks them.
  const std::vector<InodeRecord> local = server.local().Snapshot();
  const std::vector<InodeRecord> replica = server.global_replica().Snapshot();
  std::size_t li = 0, ri = 0;
  for (NodeId id = 0; id < tree.size(); ++id) {
    const bool in_local = li < local.size() && local[li].id == id;
    const bool in_replica = ri < replica.size() && replica[ri].id == id;
    const bool owned = placement.OwnerOf(id) == server.id();
    const bool gl = placement.IsReplicated(id);
    if (owned && !in_local)
      return fail(id, "is owned here but missing from the local store");
    if (!owned && in_local) return fail(id, "is held locally but not owned here");
    if (gl && !in_replica)
      return fail(id, "is in the global layer but missing from the replica");
    if (!gl && in_replica)
      return fail(id, "is in the GL replica but not in the global layer");
    const InodeRecord* held =
        in_local ? &local[li++] : in_replica ? &replica[ri++] : nullptr;
    if (held != nullptr && !AgreesWithNamespace(*held, tree))
      return fail(id, "is held with a record the namespace disagrees with");
  }
  if (li < local.size() || ri < replica.size())
    return me + "holds node id " +
           std::to_string(li < local.size() ? local[li].id : replica[ri].id) +
           ", which is not in the namespace";
  return {};
}

}  // namespace d2tree
