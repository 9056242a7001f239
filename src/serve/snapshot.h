#ifndef HOSR_SERVE_SNAPSHOT_H_
#define HOSR_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "models/model.h"
#include "util/statusor.h"

namespace hosr::serve {

// A trained model frozen for serving: the bilinear factors that reproduce
// ScoreAllItems bit for bit, plus enough metadata to sanity-check a request
// stream against the artifact it is served from.
//
// On-disk format (version 1, native byte order with an endian marker):
//
//   u32  magic 0x48535256 ("HSRV")
//   u32  format version (1)
//   u32  endian marker 0x01020304 (readers on a foreign-endian host reject)
//   u32  flags (bit 0: user_bias present, bit 1: item_bias present)
//   f32  global_bias
//   u32  model name length, then that many bytes
//   user_factors   tensor::WriteMatrix block (n x d)
//   item_factors   tensor::WriteMatrix block (m x d)
//   [user_bias]    n raw f32, when flag bit 0
//   [item_bias]    m raw f32, when flag bit 1
//   u32  magic again — truncation sentinel
//
// Readers validate magic/version/endianness, cross-check matrix shapes and
// bias lengths, and require the trailing sentinel, so corrupt or truncated
// files surface as util::Status errors rather than crashes or garbage.
struct ModelSnapshot {
  std::string model_name;
  models::FrozenFactors factors;

  uint32_t num_users() const {
    return static_cast<uint32_t>(factors.user_factors.rows());
  }
  uint32_t num_items() const {
    return static_cast<uint32_t>(factors.item_factors.rows());
  }
  uint32_t dim() const {
    return static_cast<uint32_t>(factors.item_factors.cols());
  }

  // score(u, i) under this snapshot; reference implementation for tests
  // and the engine's blocked kernel.
  float Score(uint32_t user, uint32_t item) const;
};

util::Status WriteSnapshot(const ModelSnapshot& snapshot, std::ostream* out);
util::StatusOr<ModelSnapshot> ReadSnapshot(std::istream* in);

util::Status SaveSnapshot(const ModelSnapshot& snapshot,
                          const std::string& path);
util::StatusOr<ModelSnapshot> LoadSnapshot(const std::string& path);

// Freezes a trained model via RankingModel::ExportFactors. Returns
// Unimplemented for models without a bilinear scorer (NCF, NSCR).
util::StatusOr<ModelSnapshot> BuildSnapshot(models::RankingModel& model);

}  // namespace hosr::serve

#endif  // HOSR_SERVE_SNAPSHOT_H_
