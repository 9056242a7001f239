#ifndef HOSR_UTIL_FILEIO_H_
#define HOSR_UTIL_FILEIO_H_

#include <fstream>
#include <string>
#include <string_view>

#include "util/statusor.h"

namespace hosr::util {

// Crash-safe file writer: streams into `<path>.tmp.<pid>.<n>`, n unique to
// the write, and renames onto `path` only in Commit(), so readers never
// observe a torn file — they see either the previous complete artifact or
// the new one, even with several writers of one path. A destructor without
// Commit() (early return, exception, injected fault) removes the temp file.
//
//   AtomicWriteFile file(path);
//   HOSR_RETURN_IF_ERROR(file.status());
//   file.stream() << ...;
//   HOSR_RETURN_IF_ERROR(file.Commit());
class AtomicWriteFile {
 public:
  explicit AtomicWriteFile(std::string path,
                           std::ios::openmode mode = std::ios::binary);
  ~AtomicWriteFile();

  AtomicWriteFile(const AtomicWriteFile&) = delete;
  AtomicWriteFile& operator=(const AtomicWriteFile&) = delete;

  // Non-OK when the temp file could not be opened; stream() is then invalid.
  const Status& status() const { return status_; }
  std::ostream& stream() { return out_; }

  // Flushes, closes, and renames the temp file onto the target path.
  // After Commit() (success or failure) the writer is inert.
  Status Commit();

  // Closes and deletes the temp file without touching the target
  // (also what destruction without Commit() does).
  void Abort();

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  Status status_;
  bool done_ = false;
};

// Writes `contents` to `path` atomically (temp file + rename).
Status WriteFileAtomic(const std::string& path, std::string_view contents);

// Atomically writes `body` followed by a 4-byte little-endian CRC-32 footer
// covering every body byte. The companion reader for binary artifacts that
// must never be silently loaded after corruption.
Status WriteFileAtomicWithCrc(const std::string& path, std::string_view body);

// Reads a file written by WriteFileAtomicWithCrc: verifies the CRC footer
// and returns the body without it. Corruption (any flipped bit, truncation,
// trailing garbage) yields DataLoss; a missing file yields IoError.
StatusOr<std::string> ReadFileVerifyCrc(const std::string& path);

// Whole-file read, no integrity check. Streams, so a file whose size reads
// as 0 (a /proc file) still reads whole.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace hosr::util

#endif  // HOSR_UTIL_FILEIO_H_
