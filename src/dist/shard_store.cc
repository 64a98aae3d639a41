#include "dist/shard_store.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/string_util.h"
#include "dist/transport.h"
#include "graph/binary_io.h"

namespace spinner::dist {

namespace {

constexpr char kBaseMagic[4] = {'S', 'P', 'S', 'B'};
constexpr char kLogMagic[4] = {'S', 'P', 'S', 'D'};
constexpr uint32_t kStoreVersion = 1;

bool FileExists(const std::string& path) {
  struct stat st{};
  return stat(path.c_str(), &st) == 0;
}

template <typename T>
void PutRaw(std::ofstream* out, const T& value) {
  out->write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool GetRaw(std::span<const uint8_t> bytes, size_t* pos, T* value) {
  if (bytes.size() - *pos < sizeof(T)) return false;
  std::memcpy(value, bytes.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

uint64_t ShardSliceFingerprint(std::span<const uint8_t> slice_bytes) {
  return ChecksumWords(slice_bytes);
}

uint64_t ShardSliceFingerprint(const ShardedGraphStore::Shard& shard) {
  // Folds the encoding field by field, straight from the shard's arrays;
  // WordChecksum carries partial words across the field boundaries, so
  // this equals the fingerprint of the AppendShardSlice bytes.
  WordChecksum fold;
  graph_io::ForEachShardSliceField(
      shard, [&fold](std::span<const uint8_t> field) { fold.Update(field); });
  return fold.digest();
}

PersistentShardStore::PersistentShardStore(std::string root, Options options)
    : root_(std::move(root)), options_(options) {
  if (options_.compact_after_records < 1) options_.compact_after_records = 1;
}

std::string PersistentShardStore::BasePath(int32_t shard_id) const {
  return StrFormat("%s/shard_%d.base", root_.c_str(), shard_id);
}

std::string PersistentShardStore::LogPath(int32_t shard_id) const {
  return StrFormat("%s/shard_%d.dlog", root_.c_str(), shard_id);
}

Result<std::optional<std::vector<uint8_t>>> PersistentShardStore::
    CurrentBytes(int32_t shard_id, int64_t* records_out) {
  *records_out = 0;
  const std::string base_path = BasePath(shard_id);
  if (!FileExists(base_path)) return std::optional<std::vector<uint8_t>>();
  auto base_file = graph_io::ReadFileBytes(base_path);
  if (!base_file.ok()) return std::optional<std::vector<uint8_t>>();

  // Base: magic | version | slice bytes | fnv(slice bytes).
  size_t pos = 0;
  char magic[4];
  uint32_t version = 0;
  if (base_file->size() < sizeof(magic) + sizeof(version) + sizeof(uint64_t))
    return std::optional<std::vector<uint8_t>>();
  std::memcpy(magic, base_file->data(), sizeof(magic));
  pos += sizeof(magic);
  if (std::memcmp(magic, kBaseMagic, sizeof(magic)) != 0 ||
      !GetRaw(*base_file, &pos, &version) || version != kStoreVersion) {
    return std::optional<std::vector<uint8_t>>();
  }
  const size_t slice_size =
      base_file->size() - pos - sizeof(uint64_t);
  std::span<const uint8_t> slice(base_file->data() + pos, slice_size);
  uint64_t stored_fnv = 0;
  size_t fnv_pos = pos + slice_size;
  if (!GetRaw(*base_file, &fnv_pos, &stored_fnv) ||
      stored_fnv != ChecksumBytes(slice)) {
    // A torn or rewritten base is unusable — and so is any log bound to
    // it. Report absent; the coordinator re-downloads.
    return std::optional<std::vector<uint8_t>>();
  }
  std::vector<uint8_t> current(slice.begin(), slice.end());
  const uint64_t base_fnv = stored_fnv;

  // Log: magic | version | base_fnv | (size | slice | fnv)*. Valid
  // records replace the slice wholesale, last one wins; the first invalid
  // record truncates the replay (crash-tail tolerance).
  const std::string log_path = LogPath(shard_id);
  if (!FileExists(log_path)) return std::optional(std::move(current));
  auto log_file = graph_io::ReadFileBytes(log_path);
  if (!log_file.ok()) return std::optional(std::move(current));
  pos = 0;
  uint64_t bound_fnv = 0;
  if (log_file->size() < sizeof(magic) + sizeof(version) ||
      std::memcmp(log_file->data(), kLogMagic, sizeof(magic)) != 0) {
    ++corrupt_tails_ignored_;
    return std::optional(std::move(current));
  }
  pos = sizeof(magic);
  if (!GetRaw(*log_file, &pos, &version) || version != kStoreVersion ||
      !GetRaw(*log_file, &pos, &bound_fnv)) {
    ++corrupt_tails_ignored_;
    return std::optional(std::move(current));
  }
  if (bound_fnv != base_fnv) {
    // Log written against a different base (e.g. the base was replaced
    // out from under it): ignore it entirely.
    ++corrupt_tails_ignored_;
    return std::optional(std::move(current));
  }
  while (pos < log_file->size()) {
    uint64_t size = 0;
    if (!GetRaw(*log_file, &pos, &size) ||
        size > log_file->size() - pos ||
        sizeof(uint64_t) > log_file->size() - pos - size) {
      ++corrupt_tails_ignored_;
      break;
    }
    std::span<const uint8_t> record(log_file->data() + pos,
                                    static_cast<size_t>(size));
    pos += static_cast<size_t>(size);
    uint64_t record_fnv = 0;
    if (!GetRaw(*log_file, &pos, &record_fnv) ||
        record_fnv != ChecksumBytes(record)) {
      ++corrupt_tails_ignored_;
      break;
    }
    current.assign(record.begin(), record.end());
    ++*records_out;
  }
  return std::optional(std::move(current));
}

Result<std::optional<PersistentShardStore::LoadedSlice>>
PersistentShardStore::Load(int32_t shard_id) {
  int64_t records = 0;
  SPINNER_ASSIGN_OR_RETURN(auto bytes, CurrentBytes(shard_id, &records));
  if (!bytes.has_value()) {
    return std::optional<LoadedSlice>();
  }
  size_t consumed = 0;
  auto shard = graph_io::DecodeShardSlice(*bytes, &consumed);
  if (!shard.ok() || consumed != bytes->size()) {
    // The stored bytes checksummed but do not decode (foreign content or
    // partial write that happened to checksum): treat as absent.
    return std::optional<LoadedSlice>();
  }
  LoadedSlice loaded;
  loaded.shard = std::move(*shard);
  loaded.fingerprint = ShardSliceFingerprint(*bytes);
  return std::optional(std::move(loaded));
}

Status PersistentShardStore::WriteBase(int32_t shard_id,
                                       std::span<const uint8_t> slice_bytes) {
  const std::string path = BasePath(shard_id);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open for writing: " + tmp);
    out.write(kBaseMagic, sizeof(kBaseMagic));
    PutRaw(&out, kStoreVersion);
    out.write(reinterpret_cast<const char*>(slice_bytes.data()),
              static_cast<std::streamsize>(slice_bytes.size()));
    PutRaw(&out, ChecksumBytes(slice_bytes));
    out.flush();
    if (!out) return Status::IOError("write error on: " + tmp);
  }
  // Atomic replace, then rebind the log: an interrupted sequence leaves
  // either the old base with its old log or the new base with a log bound
  // to the old fingerprint (which Load ignores) — never a torn base.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename into place: " + path);
  }
  std::ofstream log(LogPath(shard_id), std::ios::binary | std::ios::trunc);
  if (!log) {
    return Status::IOError("cannot open for writing: " + LogPath(shard_id));
  }
  log.write(kLogMagic, sizeof(kLogMagic));
  PutRaw(&log, kStoreVersion);
  PutRaw(&log, ChecksumBytes(slice_bytes));
  log.flush();
  if (!log) return Status::IOError("write error on: " + LogPath(shard_id));
  ++bases_written_;
  return Status::OK();
}

Status PersistentShardStore::Put(int32_t shard_id,
                                 std::span<const uint8_t> slice_bytes) {
  if (!root_created_) {
    // Best-effort single-level mkdir; a failure surfaces as the open
    // error below with the path in the message.
    (void)mkdir(root_.c_str(), 0777);
    root_created_ = true;
  }
  int64_t records = 0;
  const int64_t corrupt_before = corrupt_tails_ignored_;
  SPINNER_ASSIGN_OR_RETURN(auto current, CurrentBytes(shard_id, &records));
  const bool log_damaged = corrupt_tails_ignored_ > corrupt_before;
  if (current.has_value() && !log_damaged &&
      std::ranges::equal(*current, slice_bytes)) {
    return Status::OK();  // already hosting exactly these bytes
  }
  // A damaged log forces a fresh base: appending after garbage would put
  // the new record where replay never reaches (it stops at the first
  // invalid record), leaving the store permanently stale.
  if (!current.has_value() || log_damaged ||
      records + 1 >= options_.compact_after_records) {
    if (current.has_value()) ++compactions_;
    return WriteBase(shard_id, slice_bytes);
  }
  std::ofstream log(LogPath(shard_id),
                    std::ios::binary | std::ios::app);
  if (!log) {
    return Status::IOError("cannot open for append: " + LogPath(shard_id));
  }
  PutRaw(&log, static_cast<uint64_t>(slice_bytes.size()));
  log.write(reinterpret_cast<const char*>(slice_bytes.data()),
            static_cast<std::streamsize>(slice_bytes.size()));
  PutRaw(&log, ChecksumBytes(slice_bytes));
  log.flush();
  if (!log) return Status::IOError("write error on: " + LogPath(shard_id));
  ++records_appended_;
  return Status::OK();
}

}  // namespace spinner::dist
