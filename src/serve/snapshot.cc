#include "serve/snapshot.h"

#include <limits>

#include "kernels/kernels.h"
#include "tensor/serialize.h"
#include "util/fileio.h"
#include "util/string_util.h"

namespace hosr::serve {

namespace {

constexpr uint32_t kMagic = 0x48535256;  // "HSRV"
constexpr uint32_t kVersion = 1;
constexpr uint32_t kFlagUserBias = 1u << 0;
constexpr uint32_t kFlagItemBias = 1u << 1;

// One bias per factor row, when the file carries it.
bool ReadBias(util::ByteReader* in, bool present, size_t n,
              std::vector<float>* bias) {
  if (!present) return true;
  if (!in->Holds(n, sizeof(float))) return false;
  bias->resize(n);
  return in->GetFloats(bias->data(), n);
}

// What the writer refuses and the reader rejects alike.
util::Status CheckFactors(const models::FrozenFactors& f) {
  if (f.user_factors.empty() || f.item_factors.empty()) {
    return util::Status::InvalidArgument("snapshot has empty factor matrices");
  }
  if (f.user_factors.cols() != f.item_factors.cols()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "snapshot factor dim mismatch: user %zu vs item %zu",
        f.user_factors.cols(), f.item_factors.cols()));
  }
  if (f.user_factors.rows() > std::numeric_limits<uint32_t>::max() ||
      f.item_factors.rows() > std::numeric_limits<uint32_t>::max()) {
    return util::Status::InvalidArgument("snapshot dimensions overflow u32");
  }
  if (!f.user_bias.empty() && f.user_bias.size() != f.user_factors.rows()) {
    return util::Status::InvalidArgument("user_bias length != num_users");
  }
  if (!f.item_bias.empty() && f.item_bias.size() != f.item_factors.rows()) {
    return util::Status::InvalidArgument("item_bias length != num_items");
  }
  return util::Status::Ok();
}

}  // namespace

float ModelSnapshot::Score(uint32_t user, uint32_t item) const {
  const float* u = factors.user_factors.row(user);
  const float* v = factors.item_factors.row(item);
  // Same dot microkernel (and thus accumulation order) as tensor::Gemm and
  // the engine's blocked scan, so served scores stay bit-identical to
  // ScoreAllItems within any one dispatch mode.
  float acc = kernels::Active().dot(factors.item_factors.cols(), u, v);
  if (!factors.user_bias.empty()) acc += factors.user_bias[user];
  if (!factors.item_bias.empty()) acc += factors.item_bias[item];
  return acc + factors.global_bias;
}

util::Status WriteSnapshot(const ModelSnapshot& snapshot,
                           util::ByteWriter* out) {
  const auto& f = snapshot.factors;
  HOSR_RETURN_IF_ERROR(CheckFactors(f));

  out->PutHeader(kMagic, kVersion);
  uint32_t flags = 0;
  if (!f.user_bias.empty()) flags |= kFlagUserBias;
  if (!f.item_bias.empty()) flags |= kFlagItemBias;
  out->Put(flags);
  out->Put(f.global_bias);
  out->PutString<uint32_t>(snapshot.model_name);
  tensor::WriteMatrix(f.user_factors, out);
  tensor::WriteMatrix(f.item_factors, out);
  out->PutFloats(f.user_bias.data(), f.user_bias.size());
  out->PutFloats(f.item_bias.data(), f.item_bias.size());
  out->Put(kMagic);
  return util::Status::Ok();
}

util::StatusOr<ModelSnapshot> ReadSnapshot(util::ByteReader* in) {
  HOSR_RETURN_IF_ERROR(
      in->GetHeader(kMagic, kVersion, kVersion, "snapshot").status());
  uint32_t flags = 0;
  if (!in->Get(&flags)) return in->Truncated("snapshot flags");
  if ((flags & ~(kFlagUserBias | kFlagItemBias)) != 0) {
    return util::Status::InvalidArgument(
        util::StrFormat("unknown snapshot flags 0x%x", flags));
  }

  ModelSnapshot snapshot;
  auto& f = snapshot.factors;
  if (!in->Get(&f.global_bias) ||
      !in->GetString<uint32_t>(&snapshot.model_name)) {
    return in->Truncated("snapshot model name");
  }
  HOSR_ASSIGN_OR_RETURN(f.user_factors, tensor::ReadMatrix(in));
  HOSR_ASSIGN_OR_RETURN(f.item_factors, tensor::ReadMatrix(in));
  HOSR_RETURN_IF_ERROR(CheckFactors(f));
  if (!ReadBias(in, (flags & kFlagUserBias) != 0, f.user_factors.rows(),
                &f.user_bias) ||
      !ReadBias(in, (flags & kFlagItemBias) != 0, f.item_factors.rows(),
                &f.item_bias)) {
    return in->Truncated("snapshot biases");
  }
  uint32_t sentinel = 0;
  if (!in->Get(&sentinel)) return in->Truncated("snapshot sentinel");
  if (sentinel != kMagic) {
    return util::Status::InvalidArgument(
        "snapshot trailing sentinel mismatch (file corrupt or truncated)");
  }
  return snapshot;
}

util::Status SaveSnapshot(const ModelSnapshot& snapshot,
                          const std::string& path) {
  std::string body;
  util::ByteWriter out(&body);
  HOSR_RETURN_IF_ERROR(WriteSnapshot(snapshot, &out));
  // Atomic temp-file + rename with a CRC-32 footer: a crash mid-export
  // never leaves a torn snapshot at `path`, and any flipped bit surfaces
  // as DataLoss on load instead of silently skewed scores.
  return util::WriteFileAtomicWithCrc(path, body);
}

util::StatusOr<ModelSnapshot> LoadSnapshot(const std::string& path) {
  HOSR_ASSIGN_OR_RETURN(std::string body, util::ReadFileVerifyCrc(path));
  util::ByteReader in(body);
  return ReadSnapshot(&in);
}

util::StatusOr<ModelSnapshot> BuildSnapshot(models::RankingModel& model) {
  ModelSnapshot snapshot;
  snapshot.model_name = model.name();
  HOSR_ASSIGN_OR_RETURN(snapshot.factors, model.ExportFactors());
  return snapshot;
}

}  // namespace hosr::serve
