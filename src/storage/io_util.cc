#include "storage/io_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/timer.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"

namespace fairclique {
namespace storage {

namespace {

Status WriteAll(int fd, const std::string& bytes, const std::string& path) {
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write failed: " + path + ": " +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  // Constructed in one expression: assigning path.substr() into a live
  // string trips GCC 12's -Wrestrict false positive at -O3.
  const std::string dir =
      slash == std::string::npos ? std::string(".")
      : slash == 0               ? std::string("/")
                                 : std::string(path, 0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open for writing: " + tmp + ": " +
                           std::strerror(errno));
  }
  Status status = WriteAll(fd, bytes, tmp);
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IOError("fsync failed: " + tmp + ": " +
                             std::strerror(errno));
  }
  ::close(fd);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status rename_status = Status::IOError("rename failed: " + tmp + " -> " +
                                           path + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return rename_status;
  }
  SyncParentDir(path);
  return Status::OK();
}

Status OpenAppendFd(const std::string& path, int* fd, bool* created) {
  // Open-then-create so we know whether a directory entry was just born:
  // fsync on the file alone does not persist a *new* entry, and losing the
  // whole file to a power cut would silently drop an acknowledged record.
  if (created != nullptr) *created = false;
  *fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (*fd < 0 && errno == ENOENT) {
    *fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (created != nullptr) *created = *fd >= 0;
  }
  if (*fd < 0) {
    return Status::IOError("cannot open for append: " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status AppendAndSyncFd(int fd, const std::string& path,
                       const std::string& bytes) {
  FAIRCLIQUE_RETURN_NOT_OK(WriteAll(fd, bytes, path));
  WallTimer fsync_timer;
  if (::fsync(fd) != 0) {
    return Status::IOError("fsync failed: " + path + ": " +
                           std::strerror(errno));
  }
  // Every durable-append path (group commits and single-record fallbacks)
  // funnels through this fsync, so one histogram (and one journal
  // breadcrumb) covers them all.
  const int64_t fsync_micros = fsync_timer.ElapsedMicros();
  obs::WalFsyncHistogram()->Record(fsync_micros);
  obs::EventJournal::Default().Record(obs::EventType::kWalFsync,
                                      static_cast<uint64_t>(fsync_micros),
                                      bytes.size());
  return Status::OK();
}

Status DurableAppend(const std::string& path, const std::string& bytes) {
  bool created = false;
  int fd = -1;
  FAIRCLIQUE_RETURN_NOT_OK(OpenAppendFd(path, &fd, &created));
  Status status = AppendAndSyncFd(fd, path, bytes);
  ::close(fd);
  if (status.ok() && created) SyncParentDir(path);
  // Both durable-append producers are WAL writers: the per-record fallback
  // here and the group-commit leader (which counts its own batches).
  if (status.ok()) obs::WalBytesWrittenCounter()->Increment(bytes.size());
  return status;
}

Status ReadFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IOError("cannot open: " + path + ": " +
                           std::strerror(errno));
  }
  out->clear();
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Status::IOError("read failed: " + path + ": " +
                                      std::strerror(errno));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

void RemoveFileIfExists(const std::string& path) { ::unlink(path.c_str()); }

}  // namespace storage
}  // namespace fairclique
