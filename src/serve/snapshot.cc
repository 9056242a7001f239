#include "serve/snapshot.h"

#include <cstring>
#include <limits>
#include <sstream>

#include "kernels/kernels.h"
#include "tensor/serialize.h"
#include "util/fileio.h"
#include "util/string_util.h"

namespace hosr::serve {

namespace {

constexpr uint32_t kMagic = 0x48535256;  // "HSRV"
constexpr uint32_t kVersion = 1;
constexpr uint32_t kEndianMarker = 0x01020304;
constexpr uint32_t kFlagUserBias = 1u << 0;
constexpr uint32_t kFlagItemBias = 1u << 1;
constexpr uint32_t kMaxNameLen = 1u << 16;

template <typename T>
void WritePod(std::ostream* out, const T& value) {
  out->write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
util::Status ReadPod(std::istream* in, T* value, const char* what) {
  in->read(reinterpret_cast<char*>(value), sizeof(T));
  if (!*in) {
    return util::Status::IoError(std::string("snapshot truncated reading ") +
                                 what);
  }
  return util::Status::Ok();
}

util::Status ReadBias(std::istream* in, size_t n, const char* what,
                      std::vector<float>* bias) {
  bias->resize(n);
  in->read(reinterpret_cast<char*>(bias->data()),
           static_cast<std::streamsize>(n * sizeof(float)));
  if (!*in) {
    return util::Status::IoError(std::string("snapshot truncated reading ") +
                                 what);
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

util::Status WriteSnapshot(const ModelSnapshot& snapshot, std::ostream* out) {
  const auto& f = snapshot.factors;
  if (f.user_factors.empty() || f.item_factors.empty()) {
    return util::Status::InvalidArgument("snapshot has empty factor matrices");
  }
  if (f.user_factors.cols() != f.item_factors.cols()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "snapshot factor dim mismatch: user %zu vs item %zu",
        f.user_factors.cols(), f.item_factors.cols()));
  }
  if (!f.user_bias.empty() && f.user_bias.size() != f.user_factors.rows()) {
    return util::Status::InvalidArgument("user_bias length != num_users");
  }
  if (!f.item_bias.empty() && f.item_bias.size() != f.item_factors.rows()) {
    return util::Status::InvalidArgument("item_bias length != num_items");
  }
  if (snapshot.model_name.size() >= kMaxNameLen) {
    return util::Status::InvalidArgument("model name implausibly long");
  }

  WritePod(out, kMagic);
  WritePod(out, kVersion);
  WritePod(out, kEndianMarker);
  uint32_t flags = 0;
  if (!f.user_bias.empty()) flags |= kFlagUserBias;
  if (!f.item_bias.empty()) flags |= kFlagItemBias;
  WritePod(out, flags);
  WritePod(out, f.global_bias);
  const auto name_len = static_cast<uint32_t>(snapshot.model_name.size());
  WritePod(out, name_len);
  out->write(snapshot.model_name.data(), name_len);

  HOSR_RETURN_IF_ERROR(tensor::WriteMatrix(f.user_factors, out));
  HOSR_RETURN_IF_ERROR(tensor::WriteMatrix(f.item_factors, out));
  if (!f.user_bias.empty()) {
    out->write(reinterpret_cast<const char*>(f.user_bias.data()),
               static_cast<std::streamsize>(f.user_bias.size() *
                                            sizeof(float)));
  }
  if (!f.item_bias.empty()) {
    out->write(reinterpret_cast<const char*>(f.item_bias.data()),
               static_cast<std::streamsize>(f.item_bias.size() *
                                            sizeof(float)));
  }
  WritePod(out, kMagic);
  if (!*out) return util::Status::IoError("snapshot write failed");
  return util::Status::Ok();
}

util::StatusOr<ModelSnapshot> ReadSnapshot(std::istream* in) {
  uint32_t magic = 0, version = 0, endian = 0, flags = 0, name_len = 0;
  HOSR_RETURN_IF_ERROR(ReadPod(in, &magic, "magic"));
  if (magic != kMagic) {
    return util::Status::InvalidArgument(
        util::StrFormat("bad snapshot magic 0x%08x", magic));
  }
  HOSR_RETURN_IF_ERROR(ReadPod(in, &version, "version"));
  if (version != kVersion) {
    return util::Status::InvalidArgument(
        util::StrFormat("unsupported snapshot version %u", version));
  }
  HOSR_RETURN_IF_ERROR(ReadPod(in, &endian, "endian marker"));
  if (endian != kEndianMarker) {
    return util::Status::InvalidArgument(
        "snapshot written on a foreign-endian host");
  }
  HOSR_RETURN_IF_ERROR(ReadPod(in, &flags, "flags"));
  if ((flags & ~(kFlagUserBias | kFlagItemBias)) != 0) {
    return util::Status::InvalidArgument(
        util::StrFormat("unknown snapshot flags 0x%x", flags));
  }

  ModelSnapshot snapshot;
  HOSR_RETURN_IF_ERROR(
      ReadPod(in, &snapshot.factors.global_bias, "global bias"));
  HOSR_RETURN_IF_ERROR(ReadPod(in, &name_len, "model name length"));
  if (name_len >= kMaxNameLen) {
    return util::Status::InvalidArgument("model name implausibly long");
  }
  snapshot.model_name.resize(name_len);
  in->read(snapshot.model_name.data(), name_len);
  if (!*in) return util::Status::IoError("snapshot truncated reading name");

  HOSR_ASSIGN_OR_RETURN(snapshot.factors.user_factors,
                        tensor::ReadMatrix(in));
  HOSR_ASSIGN_OR_RETURN(snapshot.factors.item_factors,
                        tensor::ReadMatrix(in));
  const auto& f = snapshot.factors;
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
  if ((flags & kFlagUserBias) != 0) {
    HOSR_RETURN_IF_ERROR(ReadBias(in, f.user_factors.rows(), "user bias",
                                  &snapshot.factors.user_bias));
  }
  if ((flags & kFlagItemBias) != 0) {
    HOSR_RETURN_IF_ERROR(ReadBias(in, f.item_factors.rows(), "item bias",
                                  &snapshot.factors.item_bias));
  }
  uint32_t sentinel = 0;
  HOSR_RETURN_IF_ERROR(ReadPod(in, &sentinel, "trailing sentinel"));
  if (sentinel != kMagic) {
    return util::Status::InvalidArgument(
        "snapshot trailing sentinel mismatch (file corrupt or truncated)");
  }
  return snapshot;
}

util::Status SaveSnapshot(const ModelSnapshot& snapshot,
                          const std::string& path) {
  std::ostringstream body;
  HOSR_RETURN_IF_ERROR(WriteSnapshot(snapshot, &body));
  // Atomic temp-file + rename with a CRC-32 footer: a crash mid-export
  // never leaves a torn snapshot at `path`, and any flipped bit surfaces
  // as DataLoss on load instead of silently skewed scores.
  return util::WriteFileAtomicWithCrc(path, body.str());
}

util::StatusOr<ModelSnapshot> LoadSnapshot(const std::string& path) {
  HOSR_ASSIGN_OR_RETURN(std::string body, util::ReadFileVerifyCrc(path));
  std::istringstream in(body);
  return ReadSnapshot(&in);
}

util::StatusOr<ModelSnapshot> BuildSnapshot(models::RankingModel& model) {
  ModelSnapshot snapshot;
  snapshot.model_name = model.name();
  HOSR_ASSIGN_OR_RETURN(snapshot.factors, model.ExportFactors());
  return snapshot;
}

}  // namespace hosr::serve
