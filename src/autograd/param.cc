#include "autograd/param.h"

#include "tensor/init.h"

namespace hosr::autograd {

Param* ParamStore::Create(std::string name, size_t rows, size_t cols) {
  params_.push_back(std::make_unique<Param>(std::move(name), rows, cols));
  return params_.back().get();
}

Param* ParamStore::CreateXavier(std::string name, size_t rows, size_t cols,
                                util::Rng* rng) {
  Param* p = Create(std::move(name), rows, cols);
  tensor::XavierUniformInit(&p->value, rng);
  return p;
}

Param* ParamStore::CreateGaussian(std::string name, size_t rows, size_t cols,
                                  float stddev, util::Rng* rng) {
  Param* p = Create(std::move(name), rows, cols);
  tensor::GaussianInit(&p->value, stddev, rng);
  return p;
}

Param* ParamStore::Find(const std::string& name) {
  for (auto& p : params_) {
    if (p->name == name) return p.get();
  }
  return nullptr;
}

void ParamStore::ZeroGrad() {
  for (auto& p : params_) p->grad.SetZero();
}

}  // namespace hosr::autograd
