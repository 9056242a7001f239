#ifndef HOSR_AUTOGRAD_CHECKPOINT_H_
#define HOSR_AUTOGRAD_CHECKPOINT_H_

#include <string>
#include <vector>

#include "autograd/param.h"
#include "tensor/matrix.h"
#include "util/bytes.h"
#include "util/statusor.h"

namespace hosr::autograd {

// In-memory snapshot of every parameter's values (not gradients): what
// BprTrainer::Train keeps of its best evaluation, and what ReadParams decodes.
class ParamSnapshot {
 public:
  ParamSnapshot() = default;
  // Values in a store's parameter order.
  explicit ParamSnapshot(std::vector<tensor::Matrix> values)
      : values_(std::move(values)) {}

  // Captures the current values of `store`.
  static ParamSnapshot Capture(const ParamStore& store);

  // Writes the captured values back. The store must have the same number,
  // order, and shapes of parameters as at capture time.
  void Restore(ParamStore* store) const;

  bool empty() const { return values_.empty(); }
  size_t size() const { return values_.size(); }

 private:
  std::vector<tensor::Matrix> values_;
};

// Body of a parameter checkpoint: u32 magic "HCPT", u64 count, then per
// parameter a u64-length name and its tensor::WriteMatrix block. Embedded
// verbatim in training states. ReadParams matches the body against `store`
// by name and shape and returns its values in the store's order without
// touching the store, so a checkpoint survives reordering but not renaming.
// A missing parameter is NotFound, a bad magic or shape InvalidArgument, a
// body that ends early DataLoss.
void WriteParams(const ParamStore& store, util::ByteWriter* out);
util::StatusOr<ParamSnapshot> ReadParams(util::ByteReader* in,
                                         const ParamStore& store);

// On-disk checkpoint of a ParamStore: the WriteParams body wrapped in a
// CRC-32 file envelope and written atomically (temp file + rename), so a
// crash mid-save never clobbers the previous checkpoint and a corrupted
// file loads as DataLoss instead of garbage weights.
util::Status SaveCheckpoint(const ParamStore& store, const std::string& path);
util::Status LoadCheckpoint(const std::string& path, ParamStore* store);

}  // namespace hosr::autograd

#endif  // HOSR_AUTOGRAD_CHECKPOINT_H_
