#include "d2tree/storage/lsm_engine.h"

#include <algorithm>
#include <cerrno>
#include <filesystem>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "d2tree/storage/record_codec.h"

namespace d2tree {
namespace {

namespace fs = std::filesystem;

constexpr std::uint8_t kWalPut = 1;
constexpr std::uint8_t kWalRemove = 2;
constexpr const char* kManifestFile = "MANIFEST";
constexpr const char* kWalFile = "wal.log";

/// Size tier of a table: tables in the same tier are compaction peers.
std::size_t SizeTier(std::uint64_t entries, std::size_t fanout) {
  std::size_t tier = 0;
  std::uint64_t bound = 1024;  // tier 0: up to 1k entries
  while (entries > bound) {
    bound *= fanout;
    ++tier;
  }
  return tier;
}

/// Links `src` to `dst`; falls back to a copy across filesystems.
bool LinkOrCopy(const std::string& src, const std::string& dst) {
#ifndef _WIN32
  if (::link(src.c_str(), dst.c_str()) == 0) return true;
#endif
  std::error_code ec;
  fs::copy_file(src, dst, fs::copy_options::overwrite_existing, ec);
  return !ec;
}

}  // namespace

LsmEngine::LsmEngine(std::string dir, LsmOptions options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  MutexLock lock(&mu_);
  // recovery_ records the open's full footprint; a failed open leaves an
  // empty engine and the constructor has no error channel beyond it.
  (void)OpenLocked(&recovery_);
}

std::string LsmEngine::TablePath(const std::string& file) const {
  return dir_ + "/" + file;
}

bool LsmEngine::OpenLocked(StoreRecoveryInfo* info) {
  mem_.clear();
  mem_bytes_ = 0;
  tables_.clear();
  next_seq_ = 1;
  live_count_ = 0;
  *info = {};

  // Manifest: ordered (oldest → newest) list of sealed tables.
  std::vector<std::pair<std::uint64_t, std::string>> listed;
  {
    std::ifstream in(TablePath(kManifestFile), std::ios::binary);
    if (in) {
      std::vector<std::uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());
      frame::ScanFrames(
          bytes.data(), bytes.size(),
          [&listed](const std::uint8_t* payload, std::size_t len) {
            frame::Reader r(payload, len);
            std::uint64_t seq = 0;
            std::uint32_t name_len = 0;
            if (!r.U64(&seq) || !r.U32(&name_len)) return false;
            const std::uint8_t* name = r.Bytes(name_len);
            if (name == nullptr || !r.exhausted()) return false;
            listed.emplace_back(
                seq, std::string(reinterpret_cast<const char*>(name),
                                 name_len));
            return true;
          });
      info->opened_existing = true;
    } else {
      // First open of this directory: stamp an (empty) manifest right
      // away so every real store dir carries one — d2fsck --store treats
      // a missing MANIFEST as "not a store directory".
      RewriteManifestLocked();
    }
  }
  for (auto& [seq, file] : listed) {
    Table t;
    t.seq = seq;
    t.file = file;
    if (!t.reader.Open(TablePath(file))) continue;  // audit reports this
    t.entries = t.reader.entry_count();
    next_seq_ = std::max(next_seq_, seq + 1);
    tables_.push_back(std::move(t));
  }
  info->tables_opened = tables_.size();

  // WAL replay rebuilds the memtable; a torn tail is truncated in place.
  // The scan decodes into a local map (the lambda runs under the WAL's own
  // leaf lock); the result is applied to the guarded memtable afterwards.
  std::map<NodeId, std::optional<InodeRecord>> replayed;
  std::size_t replayed_bytes = 0;
  frame::ScanStats wal_scan;
  const bool wal_ok = wal_.Open(
      TablePath(kWalFile), options_.sync_on_commit,
      [&replayed, &replayed_bytes](const std::uint8_t* payload,
                                   std::size_t len) {
        frame::Reader r(payload, len);
        std::uint8_t op = 0;
        if (!r.U8(&op)) return false;
        if (op == kWalPut) {
          auto rec = DecodeInodeRecord(payload + 1, len - 1);
          if (!rec.has_value()) return false;
          replayed_bytes += len;
          const NodeId id = rec->id;
          replayed[id] = std::move(*rec);
          return true;
        }
        if (op == kWalRemove) {
          NodeId id = 0;
          if (!r.U32(&id) || !r.exhausted()) return false;
          replayed_bytes += len;
          replayed[id] = std::nullopt;
          return true;
        }
        return false;
      },
      &wal_scan);
  mem_ = std::move(replayed);
  mem_bytes_ = replayed_bytes;
  info->wal_records_replayed = wal_scan.frames;
  info->wal_torn_tail = wal_scan.torn_tail;
  info->wal_torn_bytes = wal_scan.torn_bytes;
  if (wal_scan.frames > 0 || wal_scan.torn_tail) info->opened_existing = true;

  live_count_ = MergedLocked().size();
  return wal_ok;
}

void LsmEngine::JournalPutLocked(const InodeRecord& record) {
  std::vector<std::uint8_t> payload;
  payload.push_back(kWalPut);
  EncodeInodeRecord(record, payload);
  mem_bytes_ += payload.size();
  wal_.Append(payload);
}

void LsmEngine::JournalRemoveLocked(NodeId id) {
  std::vector<std::uint8_t> payload;
  payload.push_back(kWalRemove);
  frame::PutU32(payload, id);
  mem_bytes_ += payload.size();
  wal_.Append(payload);
}

std::optional<SSTableEntry> LsmEngine::LookupLocked(NodeId id) const {
  const auto it = mem_.find(id);
  if (it != mem_.end()) {
    if (!it->second.has_value()) return SSTableEntry{id, true, {}};
    return SSTableEntry{id, false, *it->second};
  }
  SSTableEntry entry;
  for (auto t = tables_.rbegin(); t != tables_.rend(); ++t) {
    if (t->reader.BloomRejects(id)) {
      ++stats_.bloom_skips;
      continue;
    }
    switch (t->reader.Get(id, &entry)) {
      case SSTableGet::kAbsent:
        continue;
      case SSTableGet::kFound:
        return entry;
      case SSTableGet::kBlockFailed:
        // The damaged block may hold a tombstone for the id, so an older
        // table's copy cannot be trusted: the record reads as absent.
        // AuditStorage reports the damage.
        return std::nullopt;
    }
  }
  return std::nullopt;
}

std::map<NodeId, InodeRecord> LsmEngine::MergedLocked() const {
  std::map<NodeId, std::optional<InodeRecord>> acc;
  for (auto& t : tables_) {
    // Best-effort merged view: a CRC-failed block skips its entries here;
    // AuditStorage is the path that reports the damage.
    (void)t.reader.Scan([&acc](const SSTableEntry& e) {
      if (e.tombstone) {
        acc[e.id] = std::nullopt;
      } else {
        acc[e.id] = e.record;
      }
    });
  }
  for (const auto& [id, rec] : mem_) acc[id] = rec;
  std::map<NodeId, InodeRecord> live;
  for (auto& [id, rec] : acc)
    if (rec.has_value()) live.emplace(id, std::move(*rec));
  return live;
}

void LsmEngine::Put(const InodeRecord& record) {
  MutexLock lock(&mu_);
  const auto prior = LookupLocked(record.id);
  if (!prior.has_value() || prior->tombstone) ++live_count_;
  JournalPutLocked(record);
  wal_.Commit();
  mem_[record.id] = record;
  ++stats_.puts;
  MaybeFlushLocked();
}

std::optional<InodeRecord> LsmEngine::Get(NodeId id) const {
  MutexLock lock(&mu_);
  ++stats_.gets;
  auto entry = LookupLocked(id);
  if (!entry.has_value() || entry->tombstone) return std::nullopt;
  return std::move(entry->record);
}

bool LsmEngine::Contains(NodeId id) const {
  MutexLock lock(&mu_);
  ++stats_.gets;
  const auto entry = LookupLocked(id);
  return entry.has_value() && !entry->tombstone;
}

std::optional<InodeRecord> LsmEngine::Remove(NodeId id) {
  MutexLock lock(&mu_);
  const auto prior = LookupLocked(id);
  if (!prior.has_value() || prior->tombstone) return std::nullopt;
  JournalRemoveLocked(id);
  wal_.Commit();
  mem_[id] = std::nullopt;
  --live_count_;
  ++stats_.removes;
  MaybeFlushLocked();
  return prior->record;
}

std::size_t LsmEngine::Size() const {
  MutexLock lock(&mu_);
  return live_count_;
}

void LsmEngine::Clear() {
  MutexLock lock(&mu_);
  mem_.clear();
  mem_bytes_ = 0;
  for (const Table& t : tables_) {
    std::error_code ec;
    fs::remove(TablePath(t.file), ec);
  }
  tables_.clear();
  live_count_ = 0;
  RewriteManifestLocked();
  wal_.Reset();
}

void LsmEngine::Scan(
    const std::function<void(const InodeRecord&)>& fn) const {
  MutexLock lock(&mu_);
  for (const auto& [id, rec] : MergedLocked()) fn(rec);
}

void LsmEngine::InsertAll(const std::vector<InodeRecord>& records) {
  MutexLock lock(&mu_);
  for (const InodeRecord& r : records) {
    const auto prior = LookupLocked(r.id);
    if (!prior.has_value() || prior->tombstone) ++live_count_;
    JournalPutLocked(r);
    mem_[r.id] = r;
    ++stats_.puts;
  }
  wal_.Commit();  // one group commit for the whole batch
  MaybeFlushLocked();
}

std::vector<InodeRecord> LsmEngine::ExtractAll(
    const std::vector<NodeId>& ids) {
  MutexLock lock(&mu_);
  std::vector<InodeRecord> out;
  out.reserve(ids.size());
  for (NodeId id : ids) {
    const auto prior = LookupLocked(id);
    if (!prior.has_value() || prior->tombstone) continue;
    JournalRemoveLocked(id);
    mem_[id] = std::nullopt;
    --live_count_;
    ++stats_.removes;
    out.push_back(prior->record);
  }
  wal_.Commit();  // one group commit for the whole batch
  MaybeFlushLocked();
  return out;
}

std::size_t LsmEngine::IngestTableFile(const std::string& path) {
  MutexLock lock(&mu_);
  // Seal the memtable first: nothing volatile may shadow the ingested
  // table (e.g. a tombstone left by an earlier extraction of these keys).
  // If the seal fails the shadowing guarantee is gone — refuse the ingest.
  if (!mem_.empty() && !FlushLocked()) return 0;

  Table t;
  t.seq = next_seq_++;
  t.file = std::to_string(t.seq) + ".sst";
  if (!LinkOrCopy(path, TablePath(t.file))) return 0;
  if (!t.reader.Open(TablePath(t.file))) {
    std::error_code ec;
    fs::remove(TablePath(t.file), ec);
    return 0;
  }
  t.entries = t.reader.entry_count();
  const std::size_t ingested = t.entries;
  tables_.push_back(std::move(t));
  live_count_ += ingested;  // caller guarantees key-disjointness
  RewriteManifestLocked();
  ++stats_.table_ingests;
  MaybeCompactLocked();
  return ingested;
}

void LsmEngine::Flush() {
  MutexLock lock(&mu_);
  // On a failed seal the memtable stays put and the next flush retries.
  if (!mem_.empty() && FlushLocked()) MaybeCompactLocked();
}

void LsmEngine::MaybeFlushLocked() {
  if (mem_bytes_ < options_.memtable_limit_bytes) return;
  if (FlushLocked()) MaybeCompactLocked();
}

bool LsmEngine::FlushLocked() {
  if (mem_.empty()) return false;
  Table t;
  t.seq = next_seq_++;
  t.file = std::to_string(t.seq) + ".sst";
  SSTableBuilder builder(TablePath(t.file), options_.table);
  for (const auto& [id, rec] : mem_) {
    // A failed Add poisons the builder; Finish() below reports it.
    if (rec.has_value()) {
      (void)builder.AddRecord(*rec);
    } else {
      (void)builder.AddTombstone(id);
    }
  }
  if (!builder.Finish()) return false;
  if (!t.reader.Open(TablePath(t.file))) return false;
  t.entries = t.reader.entry_count();
  tables_.push_back(std::move(t));
  RewriteManifestLocked();
  mem_.clear();
  mem_bytes_ = 0;
  wal_.Reset();  // everything journaled is now sealed
  ++stats_.flushes;
  return true;
}

void LsmEngine::MaybeCompactLocked() {
  // Size-tiered: merge the first contiguous run (oldest → newest) of
  // `tier_fanout` tables sharing a size tier. Contiguity preserves the
  // newest-wins shadowing order; loop until no run qualifies.
  bool merged = true;
  while (merged && tables_.size() >= options_.tier_fanout) {
    merged = false;
    for (std::size_t start = 0; start + options_.tier_fanout <= tables_.size();
         ++start) {
      const std::size_t tier =
          SizeTier(tables_[start].entries, options_.tier_fanout);
      std::size_t end = start + 1;
      while (end < tables_.size() &&
             SizeTier(tables_[end].entries, options_.tier_fanout) == tier) {
        ++end;
      }
      if (end - start < options_.tier_fanout) {
        start = end - 1;
        continue;
      }
      // Merge [start, end): apply oldest → newest, newest wins. Tombstones
      // survive unless nothing older than the run exists.
      const bool drop_tombstones = start == 0;
      std::map<NodeId, std::optional<InodeRecord>> acc;
      bool read_ok = true;
      for (std::size_t i = start; i < end; ++i) {
        read_ok &= tables_[i].reader.Scan([&acc](const SSTableEntry& e) {
          if (e.tombstone) {
            acc[e.id] = std::nullopt;
          } else {
            acc[e.id] = e.record;
          }
        });
      }
      // A CRC-failed block means the merged output would silently drop
      // entries — leave the run un-compacted for AuditStorage to report.
      if (!read_ok) return;
      Table t;
      t.seq = next_seq_++;
      t.file = std::to_string(t.seq) + ".sst";
      SSTableBuilder builder(TablePath(t.file), options_.table);
      for (const auto& [id, rec] : acc) {
        // A failed Add poisons the builder; Finish() below reports it.
        if (rec.has_value()) {
          (void)builder.AddRecord(*rec);
        } else if (!drop_tombstones) {
          (void)builder.AddTombstone(id);
        }
      }
      std::vector<std::string> old_files;
      for (std::size_t i = start; i < end; ++i)
        old_files.push_back(tables_[i].file);
      if (builder.entries_added() == 0 || builder.Finish()) {
        if (builder.entries_added() == 0) {
          // All-tombstone run compacted away entirely; drop the stray file
          // the builder's constructor created.
          std::error_code ec;
          fs::remove(TablePath(t.file), ec);
        } else {
          if (!t.reader.Open(TablePath(t.file))) break;
          t.entries = t.reader.entry_count();
        }
        tables_.erase(tables_.begin() + static_cast<std::ptrdiff_t>(start),
                      tables_.begin() + static_cast<std::ptrdiff_t>(end));
        if (builder.entries_added() > 0) {
          tables_.insert(tables_.begin() + static_cast<std::ptrdiff_t>(start),
                         std::move(t));
        }
        RewriteManifestLocked();
        for (const std::string& f : old_files) {
          std::error_code ec;
          fs::remove(TablePath(f), ec);
        }
        ++stats_.compactions;
        merged = true;
      }
      break;  // re-scan from the front after any structural change
    }
  }
}

void LsmEngine::RewriteManifestLocked() {
  std::vector<std::uint8_t> bytes;
  for (const Table& t : tables_) {
    std::vector<std::uint8_t> payload;
    frame::PutU64(payload, t.seq);
    frame::PutU32(payload, static_cast<std::uint32_t>(t.file.size()));
    payload.insert(payload.end(), t.file.begin(), t.file.end());
    frame::AppendFrame(bytes, payload);
  }
  const std::string tmp = TablePath(std::string(kManifestFile) + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return;
  }
  std::error_code ec;
  fs::rename(tmp, TablePath(kManifestFile), ec);
}

StoreRecoveryInfo LsmEngine::Reopen() {
  MutexLock lock(&mu_);
  StoreRecoveryInfo info;
  // `info` carries the reopen footprint either way; a failed open shows
  // up there (and in the audit), not as a separate error path.
  (void)OpenLocked(&info);
  recovery_ = info;
  return info;
}

void LsmEngine::TearWalTail(std::size_t bytes) {
  wal_.TearTail(bytes);
}

std::vector<std::string> LsmEngine::AuditStorage() const {
  MutexLock lock(&mu_);
  std::vector<std::string> issues;
  for (const Table& t : tables_) {
    const SSTableAudit audit = AuditSSTable(TablePath(t.file));
    for (const std::string& issue : audit.issues) issues.push_back(issue);
    if (audit.clean() && audit.entries != t.entries)
      issues.push_back(TablePath(t.file) +
                       ": live handle disagrees with file entry count");
  }
  const std::size_t merged = MergedLocked().size();
  if (merged != live_count_)
    issues.push_back(dir_ + ": live-record count " +
                     std::to_string(live_count_) +
                     " disagrees with merged view " + std::to_string(merged));
  return issues;
}

StoreEngineStats LsmEngine::Stats() const {
  MutexLock lock(&mu_);
  StoreEngineStats out = stats_;
  out.tables = tables_.size();
  out.wal_group_commits = wal_.group_commits();
  out.wal_bytes = wal_.committed_bytes();
  return out;
}

StoreRecoveryInfo LsmEngine::last_recovery() const {
  MutexLock lock(&mu_);
  return recovery_;
}

}  // namespace d2tree
