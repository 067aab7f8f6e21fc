#include "storage/disk_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/fault.hpp"
#include "obs/metrics.hpp"
#include "storage/payload_pool.hpp"

namespace adr {

namespace {

// Process-wide backing-store read traffic (catalog:
// docs/observability.md).  Both concrete stores tick these on every
// successful fetch, so the series counts *cold* reads — the chunk cache
// serves hits without reaching here — and the per-query cost ledger's
// cold bytes reconcile against it.
struct StorageMetrics {
  obs::Counter& chunk_reads;
  obs::Counter& bytes_read;
};

StorageMetrics& storage_metrics() {
  static StorageMetrics m{obs::metrics().counter("storage.chunk_reads"),
                          obs::metrics().counter("storage.bytes_read")};
  return m;
}

std::runtime_error io_error(const char* what, const std::filesystem::path& path) {
  return std::runtime_error(std::string("FileChunkStore: ") + what + " " + path.string() +
                            ": " + std::strerror(errno));
}

int open_file(const std::filesystem::path& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd < 0) throw io_error("cannot open", path);
  return fd;
}

/// Reads exactly `n` bytes at `offset`, retrying on EINTR and on partial
/// reads.  End of file before `n` bytes is an error: a caller never sees
/// a partial payload.
void pread_exact(int fd, std::byte* dst, std::size_t n, std::uint64_t offset,
                 const std::filesystem::path& path) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, dst, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw io_error("read failed from", path);
    }
    if (got == 0) throw std::runtime_error("FileChunkStore: short read from " + path.string());
    dst += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
}

/// Writes all `n` bytes, at `offset` or (offset < 0) at the fd's current
/// position, retrying on EINTR and on partial writes.
void write_all(int fd, const void* src, std::size_t n, std::int64_t offset,
               const std::filesystem::path& path) {
  const char* p = static_cast<const char*>(src);
  while (n > 0) {
    const ssize_t put = offset < 0 ? ::write(fd, p, n) : ::pwrite(fd, p, n, offset);
    if (put < 0) {
      if (errno == EINTR) continue;
      throw io_error("write failed to", path);
    }
    p += put;
    n -= static_cast<std::size_t>(put);
    if (offset >= 0) offset += put;
  }
}

}  // namespace

void ChunkStore::check_disk(int disk) const {
  if (disk < 0 || disk >= num_disks()) {
    throw std::out_of_range("ChunkStore: disk " + std::to_string(disk) +
                            " is outside a farm of " + std::to_string(num_disks()));
  }
}

MemoryChunkStore::MemoryChunkStore(int num_disks)
    : disks_(static_cast<size_t>(std::max(num_disks, 0))) {
  if (num_disks < 1) throw std::invalid_argument("MemoryChunkStore: needs at least one disk");
}

MemoryChunkStore::Disk& MemoryChunkStore::disk_at(int disk) {
  check_disk(disk);
  return disks_[static_cast<size_t>(disk)];
}

const MemoryChunkStore::Disk& MemoryChunkStore::disk_at(int disk) const {
  check_disk(disk);
  return disks_[static_cast<size_t>(disk)];
}

void MemoryChunkStore::put(Chunk chunk) {
  Disk& d = disk_at(chunk.meta().disk);
  const std::uint64_t bytes = chunk.meta().bytes;
  std::lock_guard<std::mutex> lock(d.mutex);
  auto [it, inserted] = d.chunks.try_emplace(chunk.meta().id);
  if (!inserted) d.bytes -= it->second.meta().bytes;
  it->second = std::move(chunk);
  d.bytes += bytes;
}

std::optional<Chunk> MemoryChunkStore::get(int disk, ChunkId id) const {
  const Disk& d = disk_at(disk);
  // Checked before the disk lock: a latency fault sleeps without
  // blocking other readers of the disk; an error fault throws StatusError.
  fault::faults().check("storage.fetch");
  std::optional<Chunk> chunk;
  {
    std::lock_guard<std::mutex> lock(d.mutex);
    auto it = d.chunks.find(id);
    if (it == d.chunks.end()) return std::nullopt;
    chunk = it->second;  // shares the payload buffer
  }
  storage_metrics().chunk_reads.add();
  storage_metrics().bytes_read.add(std::as_const(*chunk).payload().size());
  return chunk;
}

bool MemoryChunkStore::contains(int disk, ChunkId id) const {
  const Disk& d = disk_at(disk);
  std::lock_guard<std::mutex> lock(d.mutex);
  return d.chunks.contains(id);
}

bool MemoryChunkStore::erase(int disk, ChunkId id) {
  Disk& d = disk_at(disk);
  std::lock_guard<std::mutex> lock(d.mutex);
  auto it = d.chunks.find(id);
  if (it == d.chunks.end()) return false;
  d.bytes -= it->second.meta().bytes;
  d.chunks.erase(it);
  return true;
}

std::size_t MemoryChunkStore::chunk_count(int disk) const {
  const Disk& d = disk_at(disk);
  std::lock_guard<std::mutex> lock(d.mutex);
  return d.chunks.size();
}

std::uint64_t MemoryChunkStore::bytes_on_disk(int disk) const {
  const Disk& d = disk_at(disk);
  std::lock_guard<std::mutex> lock(d.mutex);
  return d.bytes;
}

FileChunkStore::OwnedFd::~OwnedFd() {
  if (fd >= 0) ::close(fd);
}

FileChunkStore::FileChunkStore(std::filesystem::path dir, int num_disks,
                               bool open_existing)
    : dir_(std::move(dir)),
      manifest_path_(dir_ / "manifest.txt"),
      disks_(static_cast<size_t>(std::max(num_disks, 0))) {
  if (num_disks < 1) throw std::invalid_argument("FileChunkStore: needs at least one disk");
  std::filesystem::create_directories(dir_);
  // A fresh store truncates any stale files from a previous run.
  const int truncate = open_existing ? 0 : O_TRUNC;
  for (int k = 0; k < num_disks; ++k) {
    Disk& d = disks_[static_cast<size_t>(k)];
    d.path = dir_ / ("disk" + std::to_string(k) + ".dat");
    d.write_fd.fd = open_file(d.path, O_WRONLY | O_CREAT | truncate);
    d.read_fd.fd = open_file(d.path, O_RDONLY);
  }
  if (open_existing) replay_manifest();
  manifest_fd_.fd = open_file(manifest_path_, O_WRONLY | O_CREAT | O_APPEND | truncate);
}

FileChunkStore::Disk& FileChunkStore::disk_at(int disk) {
  check_disk(disk);
  return disks_[static_cast<size_t>(disk)];
}

const FileChunkStore::Disk& FileChunkStore::disk_at(int disk) const {
  check_disk(disk);
  return disks_[static_cast<size_t>(disk)];
}

void FileChunkStore::append_manifest(const std::string& line) {
  const std::string record = line + '\n';
  std::lock_guard<std::mutex> lock(manifest_mutex_);
  write_all(manifest_fd_.fd, record.data(), record.size(), /*offset=*/-1, manifest_path_);
}

void FileChunkStore::replay_manifest() {
  std::string text;
  {
    std::ifstream f(manifest_path_, std::ios::binary);
    if (!f) return;  // empty store
    text.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  // Every record ends in '\n'.  A last line without one is an append cut
  // short by a crash: drop it, and cut the file back to the last complete
  // record, or the next append would be glued onto the torn bytes.
  const std::size_t last_newline = text.rfind('\n');
  const std::size_t complete = last_newline == std::string::npos ? 0 : last_newline + 1;
  if (complete < text.size()) {
    if (::truncate(manifest_path_.c_str(), static_cast<off_t>(complete)) != 0) {
      throw io_error("cannot truncate", manifest_path_);
    }
    text.resize(complete);
  }
  std::istringstream records(text);
  std::string line;
  while (std::getline(records, line)) {
    std::istringstream ls(line);
    std::string op;
    ls >> op;
    if (op == "put") {
      int disk = 0, dims = 0;
      Entry e;
      if (!(ls >> disk >> e.meta.id.dataset >> e.meta.id.index >> e.offset >>
            e.stored_bytes >> e.meta.bytes >> dims)) {
        throw std::runtime_error("FileChunkStore: bad manifest put line");
      }
      if (dims < 0 || dims > kMaxDims) {
        throw std::runtime_error("FileChunkStore: bad manifest dims");
      }
      if (dims > 0) {
        Point lo(dims), hi(dims);
        for (int i = 0; i < dims; ++i) ls >> lo[i];
        for (int i = 0; i < dims; ++i) ls >> hi[i];
        if (!ls) throw std::runtime_error("FileChunkStore: bad manifest mbr");
        e.meta.mbr = Rect(lo, hi);
      }
      e.meta.disk = disk;
      if (disk < 0 || disk >= num_disks()) {
        throw std::runtime_error("FileChunkStore: manifest disk out of range");
      }
      Disk& d = disks_[static_cast<size_t>(disk)];
      auto it = d.entries.find(e.meta.id);
      if (it != d.entries.end()) d.live_bytes -= it->second.meta.bytes;
      d.entries[e.meta.id] = e;
      d.live_bytes += e.meta.bytes;
      d.file_size = std::max(d.file_size, e.offset + e.stored_bytes);
    } else if (op == "erase") {
      int disk = 0;
      ChunkId id;
      if (!(ls >> disk >> id.dataset >> id.index)) {
        throw std::runtime_error("FileChunkStore: bad manifest erase line");
      }
      if (disk < 0 || disk >= num_disks()) {
        throw std::runtime_error("FileChunkStore: manifest disk out of range");
      }
      Disk& d = disks_[static_cast<size_t>(disk)];
      auto it = d.entries.find(id);
      if (it != d.entries.end()) {
        d.live_bytes -= it->second.meta.bytes;
        d.entries.erase(it);
      }
    } else if (!op.empty()) {
      throw std::runtime_error("FileChunkStore: unknown manifest op '" + op + "'");
    }
  }
}

FileChunkStore::~FileChunkStore() = default;

void FileChunkStore::put(Chunk chunk) {
  const int disk = chunk.meta().disk;
  Disk& d = disk_at(disk);
  const std::vector<std::byte>& payload = std::as_const(chunk).payload();
  std::lock_guard<std::mutex> lock(d.mutex);
  Entry e;
  e.meta = chunk.meta();
  e.offset = d.file_size;
  e.stored_bytes = payload.size();
  if (e.stored_bytes > 0) {
    // The bytes land before the entry is published: a reader that finds
    // the entry can pread them without the lock.
    write_all(d.write_fd.fd, payload.data(), payload.size(),
              static_cast<std::int64_t>(e.offset), d.path);
    d.file_size += e.stored_bytes;
  }
  auto it = d.entries.find(e.meta.id);
  if (it != d.entries.end()) d.live_bytes -= it->second.meta.bytes;
  d.entries[e.meta.id] = e;
  d.live_bytes += e.meta.bytes;

  std::ostringstream line;
  line << std::setprecision(17) << "put " << disk << ' ' << e.meta.id.dataset << ' '
       << e.meta.id.index << ' ' << e.offset << ' ' << e.stored_bytes << ' '
       << e.meta.bytes << ' ' << e.meta.mbr.dims();
  for (int i = 0; i < e.meta.mbr.dims(); ++i) line << ' ' << e.meta.mbr.lo()[i];
  for (int i = 0; i < e.meta.mbr.dims(); ++i) line << ' ' << e.meta.mbr.hi()[i];
  append_manifest(line.str());
}

std::optional<Chunk> FileChunkStore::get(int disk, ChunkId id) const {
  const Disk& d = disk_at(disk);
  // Checked before the disk lock: a latency fault sleeps without
  // blocking other readers of the disk; an error fault throws StatusError.
  fault::faults().check("storage.fetch");
  Entry e;
  {
    std::lock_guard<std::mutex> lock(d.mutex);
    auto it = d.entries.find(id);
    if (it == d.entries.end()) return std::nullopt;
    e = it->second;
  }
  if (e.stored_bytes == 0) {
    storage_metrics().chunk_reads.add();
    return Chunk(std::move(e.meta));
  }
  // A recycled buffer, published only once pread_exact has filled every
  // byte: a failed read parks it again unseen.
  PooledPayload payload = acquire_payload(e.stored_bytes);
  pread_exact(d.read_fd.fd, payload->data(), payload->size(), e.offset, d.path);
  storage_metrics().chunk_reads.add();
  storage_metrics().bytes_read.add(e.stored_bytes);
  return Chunk(std::move(e.meta),
               std::shared_ptr<const Chunk::Buffer>(std::move(payload)));
}

bool FileChunkStore::contains(int disk, ChunkId id) const {
  const Disk& d = disk_at(disk);
  std::lock_guard<std::mutex> lock(d.mutex);
  return d.entries.contains(id);
}

bool FileChunkStore::erase(int disk, ChunkId id) {
  Disk& d = disk_at(disk);
  std::lock_guard<std::mutex> lock(d.mutex);
  auto it = d.entries.find(id);
  if (it == d.entries.end()) return false;
  d.live_bytes -= it->second.meta.bytes;
  d.entries.erase(it);  // dead bytes remain in the file (no compaction)
  append_manifest("erase " + std::to_string(disk) + ' ' +
                  std::to_string(id.dataset) + ' ' + std::to_string(id.index));
  return true;
}

std::size_t FileChunkStore::chunk_count(int disk) const {
  const Disk& d = disk_at(disk);
  std::lock_guard<std::mutex> lock(d.mutex);
  return d.entries.size();
}

std::uint64_t FileChunkStore::bytes_on_disk(int disk) const {
  const Disk& d = disk_at(disk);
  std::lock_guard<std::mutex> lock(d.mutex);
  return d.live_bytes;
}

}  // namespace adr
