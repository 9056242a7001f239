#include "util/bytes.h"

#include "util/string_util.h"

namespace hosr::util {

namespace {
// Reads as 0x04030201 from a file whose numbers are big-endian.
constexpr uint32_t kEndianMarker = 0x01020304;
}  // namespace

void ByteWriter::PutHeader(uint32_t magic, uint32_t version) {
  Put(magic);
  Put(version);
  Put(kEndianMarker);
}

Status ByteReader::Truncated(const char* what) const {
  return Status::DataLoss(StrFormat("truncated %s at byte %zu of %zu", what,
                                    pos_, data_.size()));
}

StatusOr<uint32_t> ByteReader::GetHeader(uint32_t magic, uint32_t min_version,
                                         uint32_t max_version,
                                         const char* what) {
  uint32_t got_magic = 0, version = 0, endian = 0;
  if (!Get(&got_magic) || !Get(&version) || !Get(&endian)) {
    return Truncated(what);
  }
  if (got_magic != magic) {
    return Status::InvalidArgument(
        StrFormat("not a %s (magic 0x%08x)", what, got_magic));
  }
  if (version < min_version || version > max_version) {
    return Status::InvalidArgument(
        StrFormat("unsupported %s version %u", what, version));
  }
  if (endian != kEndianMarker) {
    return Status::InvalidArgument(
        StrFormat("%s written on a foreign-endian host", what));
  }
  return version;
}

}  // namespace hosr::util
