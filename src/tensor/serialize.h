#ifndef HOSR_TENSOR_SERIALIZE_H_
#define HOSR_TENSOR_SERIALIZE_H_

#include <string>

#include "tensor/matrix.h"
#include "util/bytes.h"
#include "util/statusor.h"

namespace hosr::tensor {

// The binary matrix block: u32 magic "HOSR", u64 rows, u64 cols, then
// rows * cols f32 in row-major order. Checkpoints, optimizer states and
// snapshots embed it.
void WriteMatrix(const Matrix& m, util::ByteWriter* out);
// Bad magic is InvalidArgument; a block that ends early is DataLoss, found
// before the matrix is allocated.
util::StatusOr<Matrix> ReadMatrix(util::ByteReader* in);

util::Status SaveMatrix(const Matrix& m, const std::string& path);
util::StatusOr<Matrix> LoadMatrix(const std::string& path);

}  // namespace hosr::tensor

#endif  // HOSR_TENSOR_SERIALIZE_H_
