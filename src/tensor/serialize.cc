#include "tensor/serialize.h"

#include <cstdint>

#include "util/fileio.h"

namespace hosr::tensor {

namespace {
constexpr uint32_t kMagic = 0x484f5352;  // "HOSR"
}  // namespace

void WriteMatrix(const Matrix& m, util::ByteWriter* out) {
  out->Put(kMagic);
  out->Put<uint64_t>(m.rows());
  out->Put<uint64_t>(m.cols());
  out->PutFloats(m.data(), m.size());
}

util::StatusOr<Matrix> ReadMatrix(util::ByteReader* in) {
  uint32_t magic = 0;
  uint64_t rows = 0;
  uint64_t cols = 0;
  if (!in->Get(&magic)) return in->Truncated("matrix header");
  if (magic != kMagic) {
    return util::Status::InvalidArgument("bad matrix magic");
  }
  if (!in->Get(&rows) || !in->Get(&cols)) return in->Truncated("matrix dims");
  // The rows * cols floats must be there before the block is allocated;
  // dividing keeps the check from overflowing.
  if (cols != 0 && rows > in->remaining() / sizeof(float) / cols) {
    return in->Truncated("matrix payload");
  }
  Matrix m = Matrix::Uninitialized(rows, cols);
  in->GetFloats(m.data(), m.size());
  return m;
}

util::Status SaveMatrix(const Matrix& m, const std::string& path) {
  std::string bytes;
  util::ByteWriter out(&bytes);
  WriteMatrix(m, &out);
  return util::WriteFileAtomic(path, bytes);
}

util::StatusOr<Matrix> LoadMatrix(const std::string& path) {
  HOSR_ASSIGN_OR_RETURN(std::string bytes, util::ReadFileToString(path));
  util::ByteReader in(bytes);
  return ReadMatrix(&in);
}

}  // namespace hosr::tensor
