#include "util/fileio.h"

#include <atomic>
#include <cstdio>
#include <sstream>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "util/bytes.h"
#include "util/crc32.h"

namespace hosr::util {

namespace {

int ProcessId() {
#ifdef _WIN32
  return _getpid();
#else
  return static_cast<int>(getpid());
#endif
}

// Numbers every write in the process, so two writers of one path never
// share a temp file and each rename publishes a whole one.
std::atomic<uint64_t> next_write{0};

}  // namespace

AtomicWriteFile::AtomicWriteFile(std::string path, std::ios::openmode mode)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp." + std::to_string(ProcessId()) + "." +
                std::to_string(next_write.fetch_add(1))) {
  out_.open(tmp_path_, mode | std::ios::trunc);
  if (!out_) {
    status_ = Status::IoError("cannot open for writing: " + tmp_path_);
    done_ = true;
  }
}

AtomicWriteFile::~AtomicWriteFile() { Abort(); }

Status AtomicWriteFile::Commit() {
  if (done_) return status_;
  done_ = true;
  out_.flush();
  if (!out_) {
    status_ = Status::IoError("write failed: " + tmp_path_);
  }
  out_.close();
  if (!status_.ok()) {
    std::remove(tmp_path_.c_str());
    return status_;
  }
  // rename(2) replaces the target atomically on POSIX filesystems.
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    status_ = Status::IoError("cannot rename " + tmp_path_ + " -> " + path_);
  }
  return status_;
}

void AtomicWriteFile::Abort() {
  if (done_) return;
  done_ = true;
  out_.close();
  std::remove(tmp_path_.c_str());
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  AtomicWriteFile file(path);
  HOSR_RETURN_IF_ERROR(file.status());
  file.stream().write(contents.data(),
                      static_cast<std::streamsize>(contents.size()));
  return file.Commit();
}

Status WriteFileAtomicWithCrc(const std::string& path,
                              std::string_view body) {
  std::string footer;
  ByteWriter(&footer).Put(Crc32(body));
  AtomicWriteFile file(path);
  HOSR_RETURN_IF_ERROR(file.status());
  file.stream().write(body.data(), static_cast<std::streamsize>(body.size()));
  file.stream().write(footer.data(), 4);
  return file.Commit();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  return std::move(buffer).str();
}

StatusOr<std::string> ReadFileVerifyCrc(const std::string& path) {
  // One read at the file's size: no buffer doubling and no extra copy. A
  // size that reads as 0 (not a regular file) takes the streaming read.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return Status::IoError("cannot open for reading: " + path);
    const std::streamoff size = in.tellg();
    if (size > 0) {
      bytes.resize(static_cast<size_t>(size));
      in.seekg(0);
      in.read(bytes.data(), size);
      if (in.gcount() != size) return Status::IoError("read failed: " + path);
    } else {
      HOSR_ASSIGN_OR_RETURN(bytes, ReadFileToString(path));
    }
  }
  if (bytes.size() < 4) {
    return Status::DataLoss("file too short for CRC footer: " + path);
  }
  uint32_t stored = 0;
  ByteReader(std::string_view(bytes).substr(bytes.size() - 4)).Get(&stored);
  bytes.resize(bytes.size() - 4);
  const uint32_t actual = Crc32(bytes);
  if (stored != actual) {
    return Status::DataLoss("CRC mismatch in " + path +
                            " (file corrupt or torn)");
  }
  return bytes;
}

}  // namespace hosr::util
