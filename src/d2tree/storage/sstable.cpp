#include "d2tree/storage/sstable.h"

#include <algorithm>
#include <cstring>

#include "d2tree/durability/crc32.h"
#include "d2tree/durability/frame.h"
#include "d2tree/storage/record_codec.h"

namespace d2tree {
namespace {

constexpr std::uint8_t kEntryRecord = 1;
constexpr std::uint8_t kEntryTombstone = 2;
constexpr std::size_t kIndexEntryBytes = 24;  // 2*u32 ids + u64 off + 2*u32
constexpr std::uint32_t kBloomHashes = 6;
/// Largest bloom hash count a table may claim: every probe loops that many
/// times, so a crafted count near 2^32 would stall each lookup for seconds.
constexpr std::uint32_t kMaxBloomHashes = 64;

/// splitmix64 finalizer: the bloom filter's base hash over a node id.
std::uint64_t MixId(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool BloomTest(const std::uint8_t* bits, std::uint32_t nbits,
               std::uint32_t nhashes, NodeId id) {
  if (nbits == 0 || nhashes == 0) return true;  // filter disabled
  const std::uint64_t h = MixId(id);
  std::uint64_t h1 = h & 0xffffffffULL;
  const std::uint64_t h2 = (h >> 32) | 1;  // odd stride
  for (std::uint32_t i = 0; i < nhashes; ++i) {
    const std::uint64_t bit = h1 % nbits;
    if ((bits[bit / 8] & (1u << (bit % 8))) == 0) return false;
    h1 += h2;
  }
  return true;
}

void BloomSet(std::vector<std::uint8_t>& bits, std::uint32_t nbits,
              std::uint32_t nhashes, NodeId id) {
  const std::uint64_t h = MixId(id);
  std::uint64_t h1 = h & 0xffffffffULL;
  const std::uint64_t h2 = (h >> 32) | 1;
  for (std::uint32_t i = 0; i < nhashes; ++i) {
    const std::uint64_t bit = h1 % nbits;
    bits[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    h1 += h2;
  }
}

/// Reads the whole file with one sized read.
bool ReadFile(const std::string& path, std::vector<std::uint8_t>* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  out->resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out->data()), size);
  return static_cast<bool>(in);
}

/// `[off, off + len)` lies inside `[0, limit)`, without overflow.
bool Inside(std::uint64_t off, std::uint64_t len, std::uint64_t limit) {
  return off <= limit && len <= limit - off;
}

/// Everything Open/Audit share, parsed from a table file's bytes: the
/// footer, the block index (every block inside the data region, which
/// ends where the index starts) and the bloom filter, whose bits stay in
/// the file image at `bloom_at`. The index and bloom are CRC-checked; the
/// data blocks are not.
struct TableMeta {
  std::uint64_t index_off = 0;
  std::uint64_t entry_count = 0;
  NodeId min_id = kInvalidNode;
  NodeId max_id = kInvalidNode;
  std::vector<SSTableIndexEntry> index;
  std::uint32_t bloom_nbits = 0;
  std::uint32_t bloom_nhashes = 0;
  std::size_t bloom_at = 0;
};

/// Parses and validates `size` bytes of table file; false with a reason
/// on the first violated invariant.
bool ParseTable(const std::uint8_t* file, std::size_t size, TableMeta* meta,
                std::string* error) {
  if (size < kSSTableFooterBytes) {
    *error = "file shorter than footer";
    return false;
  }
  const std::size_t body = size - kSSTableFooterBytes;
  frame::Reader r(file + body, kSSTableFooterBytes);
  std::uint32_t index_len = 0;
  std::uint32_t index_crc = 0;
  std::uint64_t bloom_off = 0;
  std::uint32_t bloom_len = 0;
  std::uint32_t bloom_crc = 0;
  std::uint32_t magic = 0;
  if (!r.U64(&meta->index_off) || !r.U32(&index_len) || !r.U32(&index_crc) ||
      !r.U64(&bloom_off) || !r.U32(&bloom_len) || !r.U32(&bloom_crc) ||
      !r.U64(&meta->entry_count) || !r.U32(&meta->min_id) ||
      !r.U32(&meta->max_id) || !r.U32(&magic)) {
    *error = "footer decode failed";
    return false;
  }
  if (magic != kSSTableMagic) {
    *error = "bad footer magic";
    return false;
  }
  if (!Inside(meta->index_off, index_len, body) ||
      !Inside(bloom_off, bloom_len, body)) {
    *error = "index/bloom region out of bounds";
    return false;
  }
  const std::uint8_t* index = file + meta->index_off;
  const std::uint8_t* bloom = file + bloom_off;
  if (Crc32(index, index_len) != index_crc) {
    *error = "index CRC mismatch";
    return false;
  }
  if (Crc32(bloom, bloom_len) != bloom_crc) {
    *error = "bloom CRC mismatch";
    return false;
  }

  frame::Reader b(bloom, bloom_len);
  if (!b.U32(&meta->bloom_nbits) || !b.U32(&meta->bloom_nhashes)) {
    *error = "bloom header decode failed";
    return false;
  }
  if (meta->bloom_nhashes > kMaxBloomHashes) {
    *error = "bloom hash count out of range";
    return false;
  }
  // 64-bit: a 32-bit (nbits + 7) wraps to 0 bytes for nbits near 2^32
  // while BloomTest still indexes up to nbits / 8.
  const std::uint64_t nbytes =
      (static_cast<std::uint64_t>(meta->bloom_nbits) + 7) / 8;
  if (b.remaining() != nbytes) {
    *error = "bloom bit count disagrees with bloom length";
    return false;
  }
  meta->bloom_at = static_cast<std::size_t>(bloom_off) + 8;

  frame::Reader x(index, index_len);
  std::uint32_t nblocks = 0;
  if (!x.U32(&nblocks) || x.remaining() != nblocks * kIndexEntryBytes) {
    *error = "index size disagrees with block count";
    return false;
  }
  meta->index.resize(nblocks);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    SSTableIndexEntry& e = meta->index[i];
    // The size check above guarantees these reads succeed.
    x.U32(&e.first_id);
    x.U32(&e.last_id);
    x.U64(&e.offset);
    x.U32(&e.length);
    x.U32(&e.crc);
    if (!Inside(e.offset, e.length, meta->index_off)) {
      *error = "index entry " + std::to_string(i) +
               " lies outside the data region";
      return false;
    }
  }
  return true;
}

/// One entry's header and its still-encoded value, as a block stores it.
struct RawEntry {
  NodeId id = kInvalidNode;
  std::uint8_t kind = 0;
  const std::uint8_t* value = nullptr;
  std::uint32_t vlen = 0;
};

/// Reads the next entry header and steps over its value; false when the
/// bytes do not frame an entry.
bool NextEntry(frame::Reader& r, RawEntry* e) {
  if (!r.U32(&e->id) || !r.U8(&e->kind) || !r.U32(&e->vlen)) return false;
  e->value = r.Bytes(e->vlen);
  return e->value != nullptr;
}

/// Decodes one entry; false on an unknown kind or a value that does not
/// decode to a record with the entry's id.
bool DecodeEntry(const RawEntry& raw, SSTableEntry* out) {
  out->id = raw.id;
  out->tombstone = raw.kind == kEntryTombstone;
  if (out->tombstone) {
    out->record = {};
    return raw.vlen == 0;
  }
  if (raw.kind != kEntryRecord) return false;
  auto rec = DecodeInodeRecord(raw.value, raw.vlen);
  if (!rec.has_value() || rec->id != raw.id) return false;
  out->record = std::move(*rec);
  return true;
}

/// Decodes every entry of one data block in order; false on malformed
/// bytes.
bool ParseBlock(const std::uint8_t* data, std::size_t len,
                const std::function<void(const SSTableEntry&)>& fn) {
  frame::Reader r(data, len);
  RawEntry raw;
  SSTableEntry entry;
  while (!r.exhausted()) {
    if (!NextEntry(r, &raw) || !DecodeEntry(raw, &entry)) return false;
    fn(entry);
  }
  return true;
}

/// Walks one data block's entry headers up to `id` and decodes only the
/// entry that matches.
SSTableGet FindInBlock(const std::uint8_t* data, std::size_t len, NodeId id,
                       SSTableEntry* out) {
  frame::Reader r(data, len);
  RawEntry raw;
  while (!r.exhausted()) {
    if (!NextEntry(r, &raw)) return SSTableGet::kBlockFailed;
    if (raw.id < id) continue;
    if (raw.id > id) return SSTableGet::kAbsent;
    return DecodeEntry(raw, out) ? SSTableGet::kFound
                                 : SSTableGet::kBlockFailed;
  }
  return SSTableGet::kAbsent;
}

}  // namespace

// --- builder --------------------------------------------------------------

SSTableBuilder::SSTableBuilder(std::string path, SSTableOptions options)
    : path_(std::move(path)),
      options_(options),
      out_(path_, std::ios::binary | std::ios::trunc) {
  if (!out_) failed_ = true;
}

bool SSTableBuilder::Add(const SSTableEntry& entry) {
  if (failed_ || finished_) return false;
  if (count_ > 0 && entry.id <= last_id_) {
    failed_ = true;  // ids must strictly increase across the file
    return false;
  }
  if (block_.empty()) block_first_ = entry.id;
  frame::PutU32(block_, entry.id);
  block_.push_back(entry.tombstone ? kEntryTombstone : kEntryRecord);
  if (entry.tombstone) {
    frame::PutU32(block_, 0);
  } else {
    std::vector<std::uint8_t> value;
    EncodeInodeRecord(entry.record, value);
    frame::PutU32(block_, static_cast<std::uint32_t>(value.size()));
    block_.insert(block_.end(), value.begin(), value.end());
  }
  last_id_ = entry.id;
  if (count_ == 0) min_id_ = entry.id;
  max_id_ = entry.id;
  ++count_;
  keys_.push_back(entry.id);
  if (block_.size() >= options_.block_bytes) CloseBlock();
  return !failed_;
}

void SSTableBuilder::CloseBlock() {
  if (block_.empty()) return;
  index_.push_back({block_first_, last_id_, offset_,
                    static_cast<std::uint32_t>(block_.size()),
                    Crc32(block_.data(), block_.size())});
  out_.write(reinterpret_cast<const char*>(block_.data()),
             static_cast<std::streamsize>(block_.size()));
  if (!out_) failed_ = true;
  offset_ += block_.size();
  block_.clear();
}

bool SSTableBuilder::Finish() {
  if (failed_ || finished_ || count_ == 0) return false;
  CloseBlock();
  finished_ = true;

  std::vector<std::uint8_t> index;
  frame::PutU32(index, static_cast<std::uint32_t>(index_.size()));
  for (const SSTableIndexEntry& e : index_) {
    frame::PutU32(index, e.first_id);
    frame::PutU32(index, e.last_id);
    frame::PutU64(index, e.offset);
    frame::PutU32(index, e.length);
    frame::PutU32(index, e.crc);
  }

  std::vector<std::uint8_t> bloom;
  std::uint32_t nbits = 0;
  std::uint32_t nhashes = 0;
  if (options_.bloom_bits_per_key > 0) {
    nbits = static_cast<std::uint32_t>(
        std::max<std::size_t>(64, options_.bloom_bits_per_key * count_));
    nhashes = kBloomHashes;
  }
  frame::PutU32(bloom, nbits);
  frame::PutU32(bloom, nhashes);
  if (nbits > 0) {
    std::vector<std::uint8_t> bits((nbits + 7) / 8, 0);
    for (NodeId id : keys_) BloomSet(bits, nbits, nhashes, id);
    bloom.insert(bloom.end(), bits.begin(), bits.end());
  }

  const std::uint64_t index_off = offset_;
  const std::uint64_t bloom_off = index_off + index.size();
  out_.write(reinterpret_cast<const char*>(index.data()),
             static_cast<std::streamsize>(index.size()));
  out_.write(reinterpret_cast<const char*>(bloom.data()),
             static_cast<std::streamsize>(bloom.size()));

  std::vector<std::uint8_t> footer;
  footer.reserve(kSSTableFooterBytes);
  frame::PutU64(footer, index_off);
  frame::PutU32(footer, static_cast<std::uint32_t>(index.size()));
  frame::PutU32(footer, Crc32(index.data(), index.size()));
  frame::PutU64(footer, bloom_off);
  frame::PutU32(footer, static_cast<std::uint32_t>(bloom.size()));
  frame::PutU32(footer, Crc32(bloom.data(), bloom.size()));
  frame::PutU64(footer, count_);
  frame::PutU32(footer, min_id_);
  frame::PutU32(footer, max_id_);
  frame::PutU32(footer, kSSTableMagic);
  out_.write(reinterpret_cast<const char*>(footer.data()),
             static_cast<std::streamsize>(footer.size()));
  out_.flush();
  if (!out_) failed_ = true;
  out_.close();
  return !failed_;
}

// --- reader ---------------------------------------------------------------

bool SSTableReader::Open(const std::string& path) {
  path_ = path;
  if (!ReadFile(path, &file_)) return false;
  TableMeta meta;
  std::string error;
  if (!ParseTable(file_.data(), file_.size(), &meta, &error)) return false;
  index_ = std::move(meta.index);
  verdicts_.assign(index_.size(), Verdict::kUnchecked);
  bloom_at_ = meta.bloom_at;
  bloom_nbits_ = meta.bloom_nbits;
  bloom_nhashes_ = meta.bloom_nhashes;
  entry_count_ = meta.entry_count;
  min_id_ = meta.min_id;
  max_id_ = meta.max_id;
  return true;
}

bool SSTableReader::BloomRejects(NodeId id) const {
  return !BloomTest(file_.data() + bloom_at_, bloom_nbits_, bloom_nhashes_,
                    id);
}

bool SSTableReader::Intact(std::size_t b) {
  if (verdicts_[b] == Verdict::kUnchecked) {
    const SSTableIndexEntry& e = index_[b];
    verdicts_[b] = Crc32(file_.data() + e.offset, e.length) == e.crc
                       ? Verdict::kIntact
                       : Verdict::kDamaged;
  }
  return verdicts_[b] == Verdict::kIntact;
}

SSTableGet SSTableReader::Get(NodeId id, SSTableEntry* out) {
  if (index_.empty() || id < min_id_ || id > max_id_)
    return SSTableGet::kAbsent;
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const SSTableIndexEntry& e, NodeId key) { return e.last_id < key; });
  if (it == index_.end() || id < it->first_id) return SSTableGet::kAbsent;
  if (!Intact(static_cast<std::size_t>(it - index_.begin())))
    return SSTableGet::kBlockFailed;
  return FindInBlock(file_.data() + it->offset, it->length, id, out);
}

bool SSTableReader::Scan(
    const std::function<void(const SSTableEntry&)>& fn) {
  for (std::size_t b = 0; b < index_.size(); ++b) {
    const SSTableIndexEntry& e = index_[b];
    if (!Intact(b) || !ParseBlock(file_.data() + e.offset, e.length, fn))
      return false;
  }
  return true;
}

// --- audit ----------------------------------------------------------------

SSTableAudit AuditSSTable(const std::string& path) {
  SSTableAudit audit;
  // The audit reads the file afresh rather than trusting an open reader's
  // in-memory copy: it must see damage done on disk after that open.
  std::vector<std::uint8_t> file;
  if (!ReadFile(path, &file)) {
    audit.issues.push_back("cannot read " + path);
    return audit;
  }
  TableMeta meta;
  std::string error;
  if (!ParseTable(file.data(), file.size(), &meta, &error)) {
    audit.issues.push_back(path + ": " + error);
    return audit;
  }
  audit.blocks = meta.index.size();
  const std::uint8_t* bloom = file.data() + meta.bloom_at;

  bool first = true;
  NodeId prev = 0;
  NodeId seen_min = kInvalidNode;
  NodeId seen_max = kInvalidNode;
  for (std::size_t b = 0; b < meta.index.size(); ++b) {
    const SSTableIndexEntry& e = meta.index[b];
    const std::string where = path + " block " + std::to_string(b);
    const std::uint8_t* data = file.data() + e.offset;
    if (Crc32(data, e.length) != e.crc) {
      audit.issues.push_back(where + ": CRC mismatch");
      continue;
    }
    bool block_first = true;
    NodeId block_last = 0;
    const bool ok = ParseBlock(data, e.length, [&](const SSTableEntry& x) {
      ++audit.entries;
      if (x.tombstone) ++audit.tombstones;
      if (block_first && x.id != e.first_id)
        audit.issues.push_back(where + ": first id disagrees with index");
      if (!first && x.id <= prev)
        audit.issues.push_back(where + ": ids not strictly increasing");
      if (!BloomTest(bloom, meta.bloom_nbits, meta.bloom_nhashes, x.id))
        audit.issues.push_back(where + ": bloom misses stored id " +
                               std::to_string(x.id));
      if (first) seen_min = x.id;
      seen_max = x.id;
      first = false;
      block_first = false;
      prev = x.id;
      block_last = x.id;
    });
    if (!ok) {
      audit.issues.push_back(where + ": undecodable entry");
      continue;
    }
    if (!block_first && block_last != e.last_id)
      audit.issues.push_back(where + ": last id disagrees with index");
  }
  if (audit.entries != meta.entry_count)
    audit.issues.push_back(path + ": entry count disagrees with footer");
  if (!first && (seen_min != meta.min_id || seen_max != meta.max_id))
    audit.issues.push_back(path + ": min/max ids disagree with footer");
  return audit;
}

bool WriteRecordsTable(std::vector<InodeRecord> records,
                       const std::string& path, SSTableOptions options) {
  std::sort(records.begin(), records.end(),
            [](const InodeRecord& a, const InodeRecord& b) {
              return a.id < b.id;
            });
  SSTableBuilder builder(path, options);
  for (const InodeRecord& r : records)
    if (!builder.AddRecord(r)) return false;
  return builder.Finish();
}

}  // namespace d2tree
