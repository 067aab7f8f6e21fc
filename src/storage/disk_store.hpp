// Per-disk chunk stores (ADR's storage manager / disk farm).
//
// A ChunkStore addresses the whole farm by global disk index and provides
// the paper's storage contract: a chunk lives on exactly one disk, is read
// and written only through that disk, and is always moved as a whole.
// Two backends: an in-memory store (simulations, tests) and a file-backed
// store (one data file per disk plus an offset table, for runs whose
// payloads should survive the process).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/chunk.hpp"

namespace adr {

class ChunkStore {
 public:
  virtual ~ChunkStore() = default;

  /// Stores `chunk` on the disk recorded in its metadata (meta().disk).
  virtual void put(Chunk chunk) = 0;

  /// Reads a chunk; returns nullopt if absent.
  virtual std::optional<Chunk> get(int disk, ChunkId id) const = 0;

  /// True if the chunk exists on the given disk.
  virtual bool contains(int disk, ChunkId id) const = 0;

  /// Removes a chunk; returns true if it existed.
  virtual bool erase(int disk, ChunkId id) = 0;

  /// Number of chunks resident on `disk`.
  virtual std::size_t chunk_count(int disk) const = 0;

  /// Total payload bytes resident on `disk`.
  virtual std::uint64_t bytes_on_disk(int disk) const = 0;

  virtual int num_disks() const = 0;

 protected:
  /// Throws std::out_of_range unless `disk` addresses this farm.  Every
  /// entry point checks, in every build: a bad index is a caller error
  /// that must never reach a vector subscript.
  void check_disk(int disk) const;
};

/// In-memory backend.  Thread-safe: the thread executor reads concurrently
/// from many node threads.  Each disk has its own lock, and a get only
/// copies the chunk's handle: the payload buffer is shared, not copied.
class MemoryChunkStore : public ChunkStore {
 public:
  explicit MemoryChunkStore(int num_disks);

  void put(Chunk chunk) override;
  std::optional<Chunk> get(int disk, ChunkId id) const override;
  bool contains(int disk, ChunkId id) const override;
  bool erase(int disk, ChunkId id) override;
  std::size_t chunk_count(int disk) const override;
  std::uint64_t bytes_on_disk(int disk) const override;
  int num_disks() const override { return static_cast<int>(disks_.size()); }

 private:
  struct Disk {
    mutable std::mutex mutex;
    std::unordered_map<ChunkId, Chunk, ChunkIdHash> chunks;
    std::uint64_t bytes = 0;
  };
  Disk& disk_at(int disk);
  const Disk& disk_at(int disk) const;

  std::vector<Disk> disks_;
};

/// File-backed backend: `<dir>/disk<k>.dat` holds payloads back to back;
/// an offset table locates them.  Metadata-only chunks (no payload) are
/// tracked in the table with zero stored bytes.  Every put/erase is also
/// appended to `<dir>/manifest.txt`, so a store can be reopened in a
/// later process with `open_existing = true` (the manifest is replayed
/// to rebuild the offset tables).  Every manifest record ends in a
/// newline; replay drops a last line without one (an append a crash cut
/// short) and truncates the file back to the last complete record.
///
/// Each disk has its own lock and keeps its data file open for the
/// store's lifetime: one fd that put() writes through and one read-only
/// fd that get() reads with pread.  A get holds the disk lock only to
/// look up (offset, size); the read itself runs outside every lock.
/// That is safe because data files are append-only and an entry is
/// published only after its bytes are written.  A get reads into a
/// recycled buffer (storage/payload_pool.hpp) that returns to the pool
/// when the last Chunk sharing it is dropped.
class FileChunkStore : public ChunkStore {
 public:
  FileChunkStore(std::filesystem::path dir, int num_disks,
                 bool open_existing = false);
  ~FileChunkStore() override;

  void put(Chunk chunk) override;
  std::optional<Chunk> get(int disk, ChunkId id) const override;
  bool contains(int disk, ChunkId id) const override;
  bool erase(int disk, ChunkId id) override;
  std::size_t chunk_count(int disk) const override;
  std::uint64_t bytes_on_disk(int disk) const override;
  int num_disks() const override { return static_cast<int>(disks_.size()); }

  const std::filesystem::path& directory() const { return dir_; }

 private:
  struct Entry {
    ChunkMeta meta;
    std::uint64_t offset = 0;
    std::uint64_t stored_bytes = 0;
  };
  /// An owned file descriptor, closed on destruction.
  struct OwnedFd {
    int fd = -1;
    OwnedFd() = default;
    OwnedFd(const OwnedFd&) = delete;
    OwnedFd& operator=(const OwnedFd&) = delete;
    ~OwnedFd();
  };
  struct Disk {
    mutable std::mutex mutex;
    std::filesystem::path path;
    OwnedFd write_fd;
    OwnedFd read_fd;
    std::unordered_map<ChunkId, Entry, ChunkIdHash> entries;
    std::uint64_t file_size = 0;
    std::uint64_t live_bytes = 0;
  };
  Disk& disk_at(int disk);
  const Disk& disk_at(int disk) const;

  /// Appends one line to the manifest.  Callers hold the line's disk
  /// lock, so each disk's lines land in the order its state changed.
  void append_manifest(const std::string& line);
  void replay_manifest();

  std::filesystem::path dir_;
  std::filesystem::path manifest_path_;
  std::mutex manifest_mutex_;
  OwnedFd manifest_fd_;
  std::vector<Disk> disks_;
};

}  // namespace adr
