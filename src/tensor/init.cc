#include "tensor/init.h"

#include <cmath>

namespace hosr::tensor {

void GaussianInit(Matrix* m, float stddev, util::Rng* rng) {
  float* p = m->data();
  for (size_t i = 0; i < m->size(); ++i) p[i] = rng->Gaussian(0.0f, stddev);
}

void XavierUniformInit(Matrix* m, util::Rng* rng) {
  const float fan_in = static_cast<float>(m->rows());
  const float fan_out = static_cast<float>(m->cols());
  const float a = std::sqrt(6.0f / (fan_in + fan_out));
  UniformInit(m, -a, a, rng);
}

void UniformInit(Matrix* m, float lo, float hi, util::Rng* rng) {
  float* p = m->data();
  const float span = hi - lo;
  for (size_t i = 0; i < m->size(); ++i) {
    p[i] = lo + span * rng->UniformFloat();
  }
}

}  // namespace hosr::tensor
