#ifndef HOSR_AUTOGRAD_PARAM_H_
#define HOSR_AUTOGRAD_PARAM_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "util/random.h"

namespace hosr::autograd {

// A trainable parameter: persistent value plus accumulated gradient.
// Owned by a ParamStore; pointers remain stable for the store's lifetime,
// so optimizers key their per-parameter state on the store index.
struct Param {
  std::string name;
  tensor::Matrix value;
  tensor::Matrix grad;

  Param(std::string name_in, size_t rows, size_t cols)
      : name(std::move(name_in)), value(rows, cols), grad(rows, cols) {}
};

// Owns a model's parameters. Models register parameters at construction;
// the trainer hands the same store to the optimizer.
class ParamStore {
 public:
  ParamStore() = default;
  ParamStore(const ParamStore&) = delete;
  ParamStore& operator=(const ParamStore&) = delete;

  // Creates a zero-initialized (rows x cols) parameter.
  Param* Create(std::string name, size_t rows, size_t cols);

  // Creates with Xavier-uniform init (weight matrices).
  Param* CreateXavier(std::string name, size_t rows, size_t cols,
                      util::Rng* rng);

  // Creates with N(0, stddev) init (embedding tables).
  Param* CreateGaussian(std::string name, size_t rows, size_t cols,
                        float stddev, util::Rng* rng);

  size_t size() const { return params_.size(); }
  Param* at(size_t i) { return params_[i].get(); }
  const Param* at(size_t i) const { return params_[i].get(); }

  // Nullptr when absent.
  Param* Find(const std::string& name);

  void ZeroGrad();

 private:
  std::vector<std::unique_ptr<Param>> params_;
};

}  // namespace hosr::autograd

#endif  // HOSR_AUTOGRAD_PARAM_H_
