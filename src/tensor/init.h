#ifndef HOSR_TENSOR_INIT_H_
#define HOSR_TENSOR_INIT_H_

#include "tensor/matrix.h"
#include "util/random.h"

namespace hosr::tensor {

// Parameter initializers. All take an explicit Rng for reproducibility.

// N(0, stddev^2) entries.
void GaussianInit(Matrix* m, float stddev, util::Rng* rng);

// Xavier/Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)),
// fan_in = rows, fan_out = cols. The paper's GCN weight init.
void XavierUniformInit(Matrix* m, util::Rng* rng);

// U(lo, hi) entries.
void UniformInit(Matrix* m, float lo, float hi, util::Rng* rng);

}  // namespace hosr::tensor

#endif  // HOSR_TENSOR_INIT_H_
