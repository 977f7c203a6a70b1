// Append-only log-structured storage backend (docs/STATE.md "Log backend").
//
// Every put/erase appends one CRC-framed record to a single log file:
//
//   u8  op        0 = put, 1 = erase
//   u8  key_len   address width (20)
//   u32 val_len   big-endian value length (0 for erase)
//   key bytes
//   value bytes
//   u32 crc       big-endian CRC-32 over everything above
//
// The in-memory index maps address → (file offset, length) of the newest
// value, so get() is one positioned read and memory stays O(accounts), not
// O(state bytes). Reopening replays the log and truncates the first torn or
// corrupt frame and everything after it — a crash mid-append loses at most
// the unfinished suffix, never committed history (crash-safe prefix
// property; fuzzed in fuzz/fuzz_state_backend.cpp). compact() rewrites only
// live records through an atomic rename, reclaiming superseded versions.
#pragma once

#include <cstdint>
#include <map>

#include "state/backend.hpp"

namespace srbb::state {

class LogBackend final : public StorageBackend {
 public:
  struct Options {
    /// fsync the log on flush() (durability against power loss, not just
    /// process crash). Off by default: benchmarks measure the stack, not the
    /// disk.
    bool fsync_on_flush = false;
  };

  /// Opens (creating if absent) and recovers the log at `path`.
  explicit LogBackend(std::string path);
  LogBackend(std::string path, Options options);
  ~LogBackend() override;

  LogBackend(const LogBackend&) = delete;
  LogBackend& operator=(const LogBackend&) = delete;

  std::optional<Bytes> get(const Address& key) const override;
  void put(const Address& key, BytesView value) override;
  void erase(const Address& key) override;
  std::vector<Address> keys() const override;
  void flush() override;
  std::string name() const override { return "log"; }

  /// Rewrite the log with only the newest record per live key (atomic
  /// replace via rename). Reclaims space from superseded versions.
  void compact();

  struct Stats {
    std::uint64_t records_appended = 0;
    std::uint64_t records_recovered = 0;  // live records found at open
    std::uint64_t torn_bytes_dropped = 0; // corrupt/torn suffix truncated
    std::uint64_t compactions = 0;
  };
  const Stats& stats() const { return stats_; }
  /// Current log file size in bytes (live + superseded records).
  std::uint64_t file_bytes() const { return append_offset_; }

 private:
  struct Entry {
    std::uint64_t offset = 0;  // of the value bytes within the file
    std::uint32_t length = 0;
  };

  void recover();
  void append_record(std::uint8_t op, const Address& key, BytesView value);

  std::string path_;
  Options options_;
  int fd_ = -1;
  std::uint64_t append_offset_ = 0;
  // Sorted index: keys() is deterministic by construction.
  std::map<Address, Entry> offsets_;
  Stats stats_;
};

}  // namespace srbb::state
