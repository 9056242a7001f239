#include "autograd/checkpoint.h"

#include <cstdint>
#include <map>

#include "tensor/serialize.h"
#include "util/fileio.h"
#include "util/string_util.h"

namespace hosr::autograd {

namespace {
constexpr uint32_t kCheckpointMagic = 0x48435054;  // "HCPT"
}  // namespace

ParamSnapshot ParamSnapshot::Capture(const ParamStore& store) {
  ParamSnapshot snapshot;
  snapshot.values_.reserve(store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    snapshot.values_.push_back(store.at(i)->value);
  }
  return snapshot;
}

void ParamSnapshot::Restore(ParamStore* store) const {
  HOSR_CHECK(store->size() == values_.size())
      << "store has " << store->size() << " params, snapshot has "
      << values_.size();
  for (size_t i = 0; i < values_.size(); ++i) {
    Param* p = store->at(i);
    HOSR_CHECK(p->value.SameShape(values_[i]))
        << "shape mismatch restoring " << p->name;
    p->value = values_[i];
  }
}

void WriteParams(const ParamStore& store, util::ByteWriter* out) {
  out->Put(kCheckpointMagic);
  out->Put<uint64_t>(store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    out->PutString<uint64_t>(store.at(i)->name);
    tensor::WriteMatrix(store.at(i)->value, out);
  }
}

util::StatusOr<ParamSnapshot> ReadParams(util::ByteReader* in,
                                         const ParamStore& store) {
  uint32_t magic = 0;
  uint64_t count = 0;
  if (!in->Get(&magic)) return in->Truncated("checkpoint magic");
  if (magic != kCheckpointMagic) {
    return util::Status::InvalidArgument("not a HOSR parameter checkpoint");
  }
  if (!in->Get(&count)) return in->Truncated("checkpoint header");
  std::map<std::string, tensor::Matrix> loaded;
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    if (!in->GetString<uint64_t>(&name)) {
      return in->Truncated("parameter name");
    }
    HOSR_ASSIGN_OR_RETURN(tensor::Matrix value, tensor::ReadMatrix(in));
    loaded.emplace(std::move(name), std::move(value));
  }

  std::vector<tensor::Matrix> values;
  for (size_t i = 0; i < store.size(); ++i) {
    const Param* p = store.at(i);
    const auto it = loaded.find(p->name);
    if (it == loaded.end()) {
      return util::Status::NotFound("checkpoint missing parameter: " +
                                    p->name);
    }
    if (!it->second.SameShape(p->value)) {
      return util::Status::InvalidArgument(util::StrFormat(
          "shape mismatch for %s: checkpoint %zux%zu vs model %zux%zu",
          p->name.c_str(), it->second.rows(), it->second.cols(),
          p->value.rows(), p->value.cols()));
    }
    values.push_back(std::move(it->second));
  }
  return ParamSnapshot(std::move(values));
}

util::Status SaveCheckpoint(const ParamStore& store,
                            const std::string& path) {
  std::string body;
  util::ByteWriter out(&body);
  WriteParams(store, &out);
  return util::WriteFileAtomicWithCrc(path, body);
}

util::Status LoadCheckpoint(const std::string& path, ParamStore* store) {
  HOSR_ASSIGN_OR_RETURN(std::string body, util::ReadFileVerifyCrc(path));
  util::ByteReader in(body);
  HOSR_ASSIGN_OR_RETURN(const ParamSnapshot values, ReadParams(&in, *store));
  values.Restore(store);
  return util::Status::Ok();
}

}  // namespace hosr::autograd
