// LSM store-engine suite (LABELS "store"): the embedded engine's own
// contract — WAL replay, torn-tail truncation, memtable seals, size-tiered
// compaction, tombstone shadowing, whole-table ingest, and how the
// in-memory table reader treats damaged or crafted tables — plus the
// offline auditors (AuditSSTable, FsckStoreDir) against both clean and
// corrupted files, and the cluster-level integration: a FunctionalCluster
// on the LSM backend ships subtree handoffs as sealed tables, survives
// crash sites with torn engine WALs, and resumes a durable namespace
// across a full cluster teardown/reconstruct on the same directory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "d2tree/durability/crash_point.h"
#include "d2tree/durability/crc32.h"
#include "d2tree/durability/frame.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/storage/lsm_engine.h"
#include "d2tree/storage/sstable.h"
#include "d2tree/storage/store_engine.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             ("d2t_store_" + std::string(tag) + "_" +
              std::to_string(::getpid()) + "_XXXXXX"))
                .string();
    if (::mkdtemp(path_.data()) == nullptr) path_.clear();
  }
  ~ScratchDir() {
    if (!path_.empty()) {
      std::error_code ec;
      fs::remove_all(path_, ec);
    }
  }
  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

InodeRecord Rec(NodeId id, const std::string& name, std::uint64_t mtime = 0,
                NodeId parent = 0) {
  InodeRecord r;
  r.id = id;
  r.parent = parent;
  r.name = name;
  r.type = NodeType::kFile;
  r.attrs.mtime = mtime;
  return r;
}

std::vector<std::uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// Flips one bit of the byte at `offset` of the file, in place.
void FlipByte(const std::string& path, std::uint64_t offset) {
  std::vector<std::uint8_t> bytes = ReadBytes(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0x40;
  WriteBytes(path, bytes);
}

void StoreU32(std::vector<std::uint8_t>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void StoreU64(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// Footer field offsets within the 52-byte footer (sstable.h layout).
constexpr std::size_t kFootIndexOff = 0;
constexpr std::size_t kFootIndexLen = 8;
constexpr std::size_t kFootIndexCrc = 12;
constexpr std::size_t kFootBloomOff = 16;
constexpr std::size_t kFootBloomLen = 24;
constexpr std::size_t kFootBloomCrc = 28;

/// The block index of a table file's bytes, decoded per sstable.h.
std::vector<SSTableIndexEntry> IndexOf(const std::vector<std::uint8_t>& b) {
  const std::size_t footer = b.size() - kSSTableFooterBytes;
  const std::uint64_t at = frame::LoadU64(&b[footer + kFootIndexOff]);
  std::vector<SSTableIndexEntry> index(frame::LoadU32(&b[at]));
  for (std::size_t i = 0; i < index.size(); ++i) {
    const std::uint8_t* e = &b[at + 4 + 24 * i];
    index[i] = {frame::LoadU32(e), frame::LoadU32(e + 4), frame::LoadU64(e + 8),
                frame::LoadU32(e + 16), frame::LoadU32(e + 20)};
  }
  return index;
}

/// Path of the newest sealed table (highest sequence number) in `dir`.
std::string NewestTable(const std::string& dir) {
  std::string newest;
  std::uint64_t best = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".sst") continue;
    const std::uint64_t seq = std::stoull(entry.path().stem().string());
    if (newest.empty() || seq > best) {
      best = seq;
      newest = entry.path().string();
    }
  }
  return newest;
}

TEST(LsmEngine, PutGetRemoveScanRoundTrip) {
  ScratchDir dir("basic");
  ASSERT_FALSE(dir.path().empty());
  LsmEngine engine(dir.path());

  for (NodeId id : {7u, 3u, 11u, 5u}) engine.Put(Rec(id, "n" + std::to_string(id)));
  EXPECT_EQ(engine.Size(), 4u);
  EXPECT_TRUE(engine.Contains(11));
  ASSERT_TRUE(engine.Get(3).has_value());
  EXPECT_EQ(engine.Get(3)->name, "n3");

  const auto removed = engine.Remove(7);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->name, "n7");
  EXPECT_FALSE(engine.Contains(7));
  EXPECT_EQ(engine.Size(), 3u);

  // Scan visits live records in ascending id order.
  std::vector<NodeId> seen;
  engine.Scan([&](const InodeRecord& r) { seen.push_back(r.id); });
  EXPECT_EQ(seen, (std::vector<NodeId>{3, 5, 11}));
  EXPECT_TRUE(engine.AuditStorage().empty());
}

TEST(LsmEngine, ReopenReplaysWalAndTornTailTruncates) {
  ScratchDir dir("reopen");
  ASSERT_FALSE(dir.path().empty());
  LsmEngine engine(dir.path());
  EXPECT_FALSE(engine.last_recovery().opened_existing);

  for (NodeId id = 1; id <= 50; ++id) engine.Put(Rec(id, "f" + std::to_string(id), id));
  engine.Remove(25);

  // Restart: WAL replay rebuilds the exact live set.
  StoreRecoveryInfo info = engine.Reopen();
  EXPECT_TRUE(info.opened_existing);
  EXPECT_EQ(info.wal_records_replayed, 51u);  // 50 puts + 1 remove
  EXPECT_FALSE(info.wal_torn_tail);
  EXPECT_EQ(engine.Size(), 49u);
  EXPECT_FALSE(engine.Contains(25));
  ASSERT_TRUE(engine.Get(50).has_value());
  EXPECT_EQ(engine.Get(50)->attrs.mtime, 50u);

  // A mid-append kill tears the WAL tail; the next open truncates it and
  // loses at most the torn record — never anything committed before it.
  engine.Put(Rec(99, "doomed"));
  engine.TearWalTail(5);
  info = engine.Reopen();
  EXPECT_TRUE(info.wal_torn_tail);
  EXPECT_GT(info.wal_torn_bytes, 0u);
  EXPECT_FALSE(engine.Contains(99));
  EXPECT_EQ(engine.Size(), 49u);
  EXPECT_TRUE(engine.AuditStorage().empty());
}

TEST(LsmEngine, FlushSealsTableAndCompactionMerges) {
  ScratchDir dir("compact");
  ASSERT_FALSE(dir.path().empty());
  LsmOptions options;
  options.memtable_limit_bytes = 2048;  // force frequent seals
  options.tier_fanout = 2;
  LsmEngine engine(dir.path(), options);

  for (NodeId id = 1; id <= 400; ++id)
    engine.Put(Rec(id, "node_with_a_longish_name_" + std::to_string(id), id));
  engine.Flush();

  const StoreEngineStats stats = engine.Stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.tables, 0u);

  // Everything survives the seal/merge churn, and the on-disk state
  // passes the deep audit plus a cold reopen.
  EXPECT_EQ(engine.Size(), 400u);
  EXPECT_TRUE(engine.AuditStorage().empty());
  const StoreRecoveryInfo info = engine.Reopen();
  EXPECT_GT(info.tables_opened, 0u);
  EXPECT_EQ(engine.Size(), 400u);
  ASSERT_TRUE(engine.Get(333).has_value());
  EXPECT_EQ(engine.Get(333)->attrs.mtime, 333u);
}

TEST(LsmEngine, TombstonesShadowSealedTables) {
  ScratchDir dir("tomb");
  ASSERT_FALSE(dir.path().empty());
  LsmEngine engine(dir.path());

  for (NodeId id = 1; id <= 10; ++id) engine.Put(Rec(id, "a"));
  engine.Flush();  // records now live in a sealed table
  engine.Remove(4);
  engine.Remove(8);
  EXPECT_EQ(engine.Size(), 8u);
  EXPECT_FALSE(engine.Get(4).has_value());

  // The tombstones themselves survive a restart (they are journaled) and
  // keep shadowing the sealed table.
  const StoreRecoveryInfo reopened = engine.Reopen();
  EXPECT_TRUE(reopened.opened_existing);
  EXPECT_EQ(reopened.wal_records_replayed, 2u);  // the two tombstones
  EXPECT_FALSE(reopened.wal_torn_tail);
  EXPECT_EQ(engine.Size(), 8u);
  EXPECT_FALSE(engine.Contains(8));
  EXPECT_TRUE(engine.Contains(9));
}

TEST(LsmEngine, IngestTableFileLinksInWholeSubtree) {
  ScratchDir dir("ingest");
  ASSERT_FALSE(dir.path().empty());

  // A migration source seals the extracted subtree into one table...
  std::vector<InodeRecord> shipped;
  for (NodeId id = 100; id < 164; ++id)
    shipped.push_back(Rec(id, "m" + std::to_string(id), id));
  const std::string table = dir.Sub("subtree.sst");
  ASSERT_TRUE(WriteRecordsTable(shipped, table));

  // ...and the destination links it in: one call, no per-record inserts.
  LsmEngine engine(dir.Sub("dest"));
  engine.Put(Rec(7, "resident"));
  EXPECT_EQ(engine.IngestTableFile(table), shipped.size());
  EXPECT_EQ(engine.Stats().table_ingests, 1u);
  EXPECT_EQ(engine.Size(), shipped.size() + 1);
  ASSERT_TRUE(engine.Get(150).has_value());
  EXPECT_EQ(engine.Get(150)->name, "m150");
  EXPECT_TRUE(engine.Get(7).has_value());

  // The ingested table is engine state now: a restart keeps it — the
  // manifest lists both the flushed-memtable table and the linked one.
  const StoreRecoveryInfo reopened = engine.Reopen();
  EXPECT_TRUE(reopened.opened_existing);
  EXPECT_EQ(reopened.tables_opened, 2u);
  EXPECT_EQ(engine.Size(), shipped.size() + 1);
  EXPECT_TRUE(engine.AuditStorage().empty());
}

TEST(SSTable, AuditCatchesCorruptionAndFsckStoreDirCatchesStrays) {
  ScratchDir dir("audit");
  ASSERT_FALSE(dir.path().empty());
  LsmEngine engine(dir.path());
  for (NodeId id = 1; id <= 200; ++id)
    engine.Put(Rec(id, "padpadpadpad" + std::to_string(id)));
  engine.Flush();
  ASSERT_GT(engine.Stats().tables, 0u);

  // Clean store directory: offline fsck agrees with the engine's audit.
  FsckReport clean = FsckStoreDir(dir.path());
  EXPECT_TRUE(clean.clean()) << FormatFsckReport(clean);
  EXPECT_GT(clean.store_tables, 0u);
  EXPECT_EQ(clean.store_entries, 200u);

  // Find the sealed table and flip one data byte: the per-block CRCs in
  // the index must catch it in both auditors.
  std::string table;
  for (const auto& entry : fs::directory_iterator(dir.path()))
    if (entry.path().extension() == ".sst") table = entry.path().string();
  ASSERT_FALSE(table.empty());
  FlipByte(table, 10);
  const SSTableAudit audit = AuditSSTable(table);
  EXPECT_FALSE(audit.clean());
  EXPECT_FALSE(FsckStoreDir(dir.path()).clean());
  EXPECT_FALSE(engine.AuditStorage().empty());

  // A .sst the MANIFEST does not list is a stray (crash between seal and
  // manifest rewrite); fsck flags it even when everything else is clean.
  ScratchDir stray_dir("stray");
  LsmEngine stray_engine(stray_dir.path());
  stray_engine.Put(Rec(1, "x"));
  std::ofstream(stray_dir.Sub("999.sst")) << "not a table";
  const FsckReport stray = FsckStoreDir(stray_dir.path());
  ASSERT_FALSE(stray.clean());
  EXPECT_EQ(stray.issues[0].check, "store.stray-table");
}

// --- the in-memory table reader ----------------------------------------

/// A multi-block table of `n` records (ids 1..n) at `path`.
std::vector<SSTableIndexEntry> WriteBlockyTable(const std::string& path,
                                                NodeId n) {
  std::vector<InodeRecord> records;
  for (NodeId id = 1; id <= n; ++id)
    records.push_back(Rec(id, "blocky_" + std::to_string(id), id));
  SSTableOptions options;
  options.block_bytes = 512;
  EXPECT_TRUE(WriteRecordsTable(records, path, options));
  return IndexOf(ReadBytes(path));
}

TEST(SSTableReader, DamagedBlockStaysUnreadableWhileOtherBlocksServe) {
  ScratchDir dir("damaged");
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.Sub("t.sst");
  const std::vector<SSTableIndexEntry> index = WriteBlockyTable(path, 120);
  ASSERT_GE(index.size(), 3u);
  const SSTableIndexEntry bad = index[1];
  FlipByte(path, bad.offset + bad.length / 2);

  SSTableReader reader;
  ASSERT_TRUE(reader.Open(path));  // data blocks are checked on first use
  for (int pass = 0; pass < 2; ++pass) {  // the second pass reuses verdicts
    for (NodeId id = 1; id <= 120; ++id) {
      SSTableEntry entry;
      const SSTableGet got = reader.Get(id, &entry);
      if (id >= bad.first_id && id <= bad.last_id) {
        EXPECT_EQ(got, SSTableGet::kBlockFailed) << id;
      } else {
        ASSERT_EQ(got, SSTableGet::kFound) << id;
        EXPECT_EQ(entry.record.name, "blocky_" + std::to_string(id));
        EXPECT_EQ(entry.record.attrs.mtime, id);
      }
    }
  }
  SSTableEntry entry;
  EXPECT_EQ(reader.Get(121, &entry), SSTableGet::kAbsent);
  EXPECT_FALSE(reader.Scan([](const SSTableEntry&) {}));
  EXPECT_FALSE(AuditSSTable(path).clean());
}

TEST(LsmEngine, CompactionLeavesARunWithADamagedBlockInPlace) {
  ScratchDir dir("nocompact");
  ASSERT_FALSE(dir.path().empty());
  LsmOptions options;
  options.table.block_bytes = 512;
  options.tier_fanout = 2;
  LsmEngine engine(dir.path(), options);
  for (NodeId id = 1; id <= 120; ++id)
    engine.Put(Rec(id, "blocky_" + std::to_string(id), id));
  engine.Flush();
  const std::string first = NewestTable(dir.path());
  const std::vector<SSTableIndexEntry> index = IndexOf(ReadBytes(first));
  ASSERT_GE(index.size(), 3u);
  const std::uint64_t flip_at = index[1].offset + index[1].length / 2;
  FlipByte(first, flip_at);
  engine.Reopen();  // the damaged bytes are what the reader now holds

  // A second same-tier table makes the pair a compaction run; the merge
  // must refuse rather than write a table missing the damaged block.
  for (NodeId id = 200; id < 220; ++id) engine.Put(Rec(id, "late"));
  engine.Flush();
  EXPECT_EQ(engine.Stats().compactions, 0u);
  EXPECT_EQ(engine.Stats().tables, 2u);
  EXPECT_TRUE(fs::exists(first));
  EXPECT_FALSE(engine.AuditStorage().empty());
  EXPECT_FALSE(engine.Get(index[1].first_id).has_value());
  EXPECT_TRUE(engine.Get(index[0].first_id).has_value());
  EXPECT_TRUE(engine.Get(210).has_value());

  // Nothing was dropped: with the byte restored every record is back.
  FlipByte(first, flip_at);
  engine.Reopen();
  EXPECT_EQ(engine.Size(), 140u);
  for (NodeId id = 1; id <= 120; ++id) {
    const auto rec = engine.Get(id);
    ASSERT_TRUE(rec.has_value()) << id;
    EXPECT_EQ(rec->attrs.mtime, id);
  }
  EXPECT_TRUE(engine.AuditStorage().empty());
}

TEST(LsmEngine, DamagedTombstoneBlockFailsClosed) {
  ScratchDir dir("tombdamage");
  ASSERT_FALSE(dir.path().empty());
  LsmEngine engine(dir.path());
  engine.Put(Rec(5, "deleted"));
  engine.Flush();
  ASSERT_TRUE(engine.Remove(5).has_value());
  engine.Flush();  // the tombstone now lives in the newest table

  FlipByte(NewestTable(dir.path()), 0);  // inside its only data block
  engine.Reopen();
  // The older table's copy must not resurface past the damaged tombstone.
  EXPECT_FALSE(engine.Get(5).has_value());
  EXPECT_FALSE(engine.Contains(5));
  EXPECT_FALSE(engine.AuditStorage().empty());
}

TEST(SSTableReader, IndexEntryOutsideDataRegionFailsOpenAndAudit) {
  ScratchDir dir("badindex");
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.Sub("t.sst");
  WriteBlockyTable(path, 120);
  const std::vector<std::uint8_t> clean = ReadBytes(path);
  const std::size_t footer = clean.size() - kSSTableFooterBytes;
  const std::uint64_t index_off =
      frame::LoadU64(&clean[footer + kFootIndexOff]);
  const std::uint32_t index_len =
      frame::LoadU32(&clean[footer + kFootIndexLen]);

  // Block 1 moved to the index region; to just past the file; and to an
  // offset whose end wraps around 2^64.
  const std::pair<std::uint64_t, std::uint32_t> crafted[] = {
      {index_off, 8}, {clean.size(), 8}, {~std::uint64_t{0} - 7, 16}};
  for (const auto& [offset, length] : crafted) {
    std::vector<std::uint8_t> bytes = clean;
    const std::size_t entry = index_off + 4 + 24;  // index entry 1
    StoreU64(bytes, entry + 8, offset);
    StoreU32(bytes, entry + 16, length);
    StoreU32(bytes, footer + kFootIndexCrc,
             Crc32(&bytes[index_off], index_len));  // CRC-valid index
    WriteBytes(path, bytes);

    SSTableReader reader;
    EXPECT_FALSE(reader.Open(path)) << offset;
    const SSTableAudit audit = AuditSSTable(path);
    ASSERT_FALSE(audit.clean()) << offset;
    EXPECT_NE(audit.issues[0].find("outside the data region"),
              std::string::npos)
        << audit.issues[0];
  }
}

TEST(SSTableReader, CraftedBloomHeaderIsRejected) {
  ScratchDir dir("bloomcraft");
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.Sub("t.sst");
  ASSERT_TRUE(WriteRecordsTable({Rec(1, "x")}, path));
  const std::vector<std::uint8_t> clean = ReadBytes(path);
  const std::size_t footer = clean.size() - kSSTableFooterBytes;
  const std::uint64_t bloom_off =
      frame::LoadU64(&clean[footer + kFootBloomOff]);

  struct Bloom {
    std::uint32_t nbits;
    std::uint32_t nhashes;
    std::size_t nbytes;
  };
  const Bloom crafted[] = {
      // 2^32 - 1 bits and no bit array: a 32-bit byte count wraps to 0,
      // so the empty array would pass and every probe would read past it.
      {0xFFFFFFFFu, 6, 0},
      // 2^32 - 1 hashes over all-ones bits: each probe would loop for
      // seconds and still report the id present.
      {64, 0xFFFFFFFFu, 8},
  };
  for (const Bloom& bloom : crafted) {
    // Replace the bloom region; everything else stays CRC-valid.
    std::vector<std::uint8_t> bytes(
        clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(bloom_off));
    frame::PutU32(bytes, bloom.nbits);
    frame::PutU32(bytes, bloom.nhashes);
    bytes.insert(bytes.end(), bloom.nbytes, 0xFF);
    bytes.insert(bytes.end(),
                 clean.begin() + static_cast<std::ptrdiff_t>(footer),
                 clean.end());
    const std::size_t new_footer = bytes.size() - kSSTableFooterBytes;
    const auto bloom_len = static_cast<std::uint32_t>(8 + bloom.nbytes);
    StoreU32(bytes, new_footer + kFootBloomLen, bloom_len);
    StoreU32(bytes, new_footer + kFootBloomCrc,
             Crc32(&bytes[bloom_off], bloom_len));
    WriteBytes(path, bytes);

    SSTableReader reader;
    EXPECT_FALSE(reader.Open(path)) << bloom.nhashes;
    const SSTableAudit audit = AuditSSTable(path);
    ASSERT_FALSE(audit.clean()) << bloom.nhashes;
    EXPECT_NE(audit.issues[0].find("bloom"), std::string::npos)
        << audit.issues[0];
  }
}

TEST(LsmEngine, DiskDamageAfterOpenKeepsServingAndAuditReportsIt) {
  ScratchDir dir("afteropen");
  ASSERT_FALSE(dir.path().empty());
  LsmEngine engine(dir.path());
  for (NodeId id = 1; id <= 200; ++id)
    engine.Put(Rec(id, "padpadpadpad" + std::to_string(id), id));
  engine.Flush();
  const auto verified = engine.Get(5);  // CRC-checks id 5's block
  ASSERT_TRUE(verified.has_value());

  const std::string table = NewestTable(dir.path());
  const std::vector<SSTableIndexEntry> index = IndexOf(ReadBytes(table));
  ASSERT_FALSE(index.empty());
  ASSERT_LE(index[0].first_id, 5u);
  ASSERT_GE(index[0].last_id, 5u);
  FlipByte(table, index[0].offset + index[0].length / 2);

  // The engine serves the bytes it verified; the audit re-reads the file.
  EXPECT_EQ(engine.Get(5), verified);
  const std::vector<std::string> issues = engine.AuditStorage();
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find(table), std::string::npos) << issues[0];
}

// --- cluster integration -------------------------------------------------

StoreSpec LsmSpec(const std::string& dir) {
  StoreSpec spec;
  spec.backend = StoreSpec::Backend::kLsm;
  spec.data_dir = dir;
  return spec;
}

TEST(PersistentCluster, MigrationsShipSealedTables) {
  ScratchDir dir("bulk");
  ASSERT_FALSE(dir.path().empty());
  const Workload w = GenerateWorkload(DtrProfile(0.05));
  FunctionalCluster cluster(w.tree, 4, {}, nullptr, LsmSpec(dir.path()));

  // Skew popularity, then force migrations by killing a server: its
  // subtrees re-home through the pending pool.
  const auto& ops = w.trace.records();
  for (std::size_t i = 0; i < ops.size() && i < 4000; ++i)
    cluster.Stat(w.tree.PathOf(ops[i].node));
  cluster.KillServer(3);
  cluster.RunAdjustmentRound();

  EXPECT_GT(cluster.bulk_tables_shipped(), 0u)
      << "persistent backend must ship handoffs as sealed tables";
  EXPECT_GT(cluster.bulk_records_shipped(), 0u);

  std::string err;
  EXPECT_TRUE(cluster.CheckConsistency(&err)) << err;
  const FsckReport report = FsckCluster(cluster);
  EXPECT_TRUE(report.clean()) << FormatFsckReport(report);

  // Cross-server rename rides the same bulk path.
  const std::uint64_t before = cluster.bulk_tables_shipped();
  const auto owners = cluster.scheme().subtree_owners();
  const auto& subtrees = cluster.scheme().layers().subtrees;
  for (std::size_t i = 0; i < subtrees.size() && i < owners.size(); ++i) {
    if (!cluster.IsServerAlive(owners[i])) continue;
    const MdsId dest = owners[i] == 0 ? 1 : 0;
    if (!cluster.IsServerAlive(dest)) continue;
    const auto result =
        cluster.RenameTo(w.tree.PathOf(subtrees[i].root), "bulk_renamed", dest);
    if (result.status == MdsStatus::kOk && result.cross_server &&
        result.records_moved > 0)
      break;
  }
  EXPECT_GT(cluster.bulk_tables_shipped(), before);
  EXPECT_TRUE(cluster.CheckConsistency(&err)) << err;
}

TEST(PersistentCluster, CrashRecoveryCoversTornStoreWals) {
  ScratchDir dir("crash");
  ASSERT_FALSE(dir.path().empty());
  const Workload w = GenerateWorkload(DtrProfile(0.05));
  FunctionalCluster cluster(w.tree, 4, {}, nullptr, LsmSpec(dir.path()));
  const auto& ops = w.trace.records();
  for (std::size_t i = 0; i < ops.size() && i < 2000; ++i)
    cluster.Stat(w.tree.PathOf(ops[i].node));

  // The torn arm tears the Monitor journal AND every engine WAL: recovery
  // must replay the stores through their own torn-tail truncation.
  cluster.ArmCrash(CrashSite::kAfterPrepare, /*torn_tail=*/true);
  cluster.KillServer(3);
  cluster.RunAdjustmentRound();
  ASSERT_TRUE(cluster.crashed());

  const auto report = cluster.Recover();
  EXPECT_GT(report.store_wals_torn, 0u);
  EXPECT_GT(report.store_wal_records_replayed, 0u);

  std::string err;
  EXPECT_TRUE(cluster.CheckConsistency(&err)) << err;
  const FsckReport fsck = FsckCluster(cluster);
  EXPECT_TRUE(fsck.clean()) << FormatFsckReport(fsck);
}

TEST(PersistentCluster, RestartOnSameDirectoryResumesDurableNamespace) {
  ScratchDir dir("resume");
  ASSERT_FALSE(dir.path().empty());
  const Workload w = GenerateWorkload(DtrProfile(0.03));

  // Find a local-layer node to mutate.
  NodeId target = kInvalidNode;
  std::string target_path;
  std::uint64_t want_version = 0;
  {
    FunctionalCluster cluster(w.tree, 3, {}, nullptr, LsmSpec(dir.path()));
    const Assignment& assignment = cluster.assignment();
    for (NodeId n = 0; n < w.tree.size(); ++n)
      if (assignment.OwnerOf(n) != kReplicated) {
        target = n;
        break;
      }
    ASSERT_NE(target, kInvalidNode);
    target_path = w.tree.PathOf(target);
    const auto updated = cluster.Update(target_path, /*mtime=*/777777);
    ASSERT_EQ(updated.status, MdsStatus::kOk);
    want_version = updated.record.version;
    EXPECT_GT(want_version, 0u);
  }  // teardown = process exit; the LSM WAL holds the mutation

  // A new cluster on the same directory resumes the durable records
  // instead of regenerating the pristine tree: the mutation survived.
  FunctionalCluster revived(w.tree, 3, {}, nullptr, LsmSpec(dir.path()));
  const auto seen = revived.Stat(target_path);
  ASSERT_EQ(seen.status, MdsStatus::kOk);
  EXPECT_EQ(seen.record.attrs.mtime, 777777u);
  EXPECT_EQ(seen.record.version, want_version);

  std::string err;
  EXPECT_TRUE(revived.CheckConsistency(&err)) << err;
  const FsckReport report = FsckCluster(revived);
  EXPECT_TRUE(report.clean()) << FormatFsckReport(report);
}

}  // namespace
}  // namespace d2tree
