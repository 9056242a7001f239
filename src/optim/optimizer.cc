#include "optim/optimizer.h"

#include <cmath>
#include <istream>
#include <ostream>

#include "tensor/serialize.h"
#include "util/logging.h"

namespace hosr::optim {

namespace {

// Optimizer state matrices are framed as a count followed by the matrices
// themselves (tensor::WriteMatrix format). Sane-count guard: a trainer
// checkpoint never carries more slots than parameters, and no model in this
// codebase has anywhere near this many.
constexpr uint64_t kMaxStateSlots = 1u << 20;

util::Status WriteStateVector(const std::vector<tensor::Matrix>& state,
                              std::ostream* out) {
  const uint64_t count = state.size();
  out->write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const tensor::Matrix& m : state) {
    HOSR_RETURN_IF_ERROR(tensor::WriteMatrix(m, out));
  }
  if (!*out) return util::Status::IoError("failed writing optimizer state");
  return util::Status::Ok();
}

util::Status ReadStateVector(std::istream* in,
                             std::vector<tensor::Matrix>* state) {
  uint64_t count = 0;
  in->read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!*in) return util::Status::IoError("failed reading optimizer state");
  if (count > kMaxStateSlots) {
    return util::Status::DataLoss("implausible optimizer state slot count: " +
                                  std::to_string(count));
  }
  std::vector<tensor::Matrix> loaded;
  loaded.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    HOSR_ASSIGN_OR_RETURN(tensor::Matrix m, tensor::ReadMatrix(in));
    loaded.push_back(std::move(m));
  }
  *state = std::move(loaded);
  return util::Status::Ok();
}

// Lazily sizes per-parameter optimizer state to match the store.
void EnsureState(const autograd::ParamStore& params,
                 std::vector<tensor::Matrix>* state) {
  if (state->size() == params.size()) return;
  HOSR_CHECK(state->empty())
      << "parameter store changed size after optimization started";
  state->reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const autograd::Param* p = params.at(i);
    state->emplace_back(p->value.rows(), p->value.cols());
  }
}

// Applies a per-parameter RowSet plan by dispatching to `update_rows`.
// Parameters with an empty, non-dense RowSet are skipped entirely (lazy).
template <typename UpdateRowsFn>
void ApplyPlan(autograd::ParamStore* params, const std::vector<RowSet>& plan,
               UpdateRowsFn&& update_rows) {
  HOSR_CHECK(plan.size() == params->size())
      << "row plan has " << plan.size() << " entries for " << params->size()
      << " parameters";
  for (size_t i = 0; i < params->size(); ++i) {
    autograd::Param* p = params->at(i);
    const RowSet& rs = plan[i];
    if (rs.dense) {
      update_rows(i, p, nullptr, p->value.rows());
    } else if (!rs.rows.empty()) {
      HOSR_CHECK(rs.rows.back() < p->value.rows())
          << "row " << rs.rows.back() << " out of range for parameter " << i;
      update_rows(i, p, rs.rows.data(), rs.rows.size());
    }
  }
}

}  // namespace

// The dense Step of each optimizer below is a flat element loop rewritten
// as row iteration; row-major storage makes the element order — and thus
// every float operation — identical to the original flat loop, and the
// same helper serves StepRows so the sparse path is bitwise the dense
// per-row update. The dense path deliberately stays single-threaded: it is
// the baseline bench/train_throughput compares sparse steps against.

void Sgd::UpdateRows(autograd::Param* p, tensor::Matrix* vel,
                     const uint32_t* rows, size_t num_rows) {
  const size_t cols = p->value.cols();
  for (size_t k = 0; k < num_rows; ++k) {
    const size_t r = rows != nullptr ? rows[k] : k;
    float* value = p->value.row(r);
    const float* grad = p->grad.row(r);
    float* v = vel->row(r);
    for (size_t c = 0; c < cols; ++c) {
      const float g = grad[c] + weight_decay_ * value[c];
      if (momentum_ != 0.0f) {
        v[c] = momentum_ * v[c] + g;
        value[c] -= learning_rate_ * v[c];
      } else {
        value[c] -= learning_rate_ * g;
      }
    }
  }
}

void Sgd::Step(autograd::ParamStore* params) {
  EnsureState(*params, &velocity_);
  for (size_t i = 0; i < params->size(); ++i) {
    autograd::Param* p = params->at(i);
    UpdateRows(p, &velocity_[i], nullptr, p->value.rows());
  }
}

void Sgd::StepRows(autograd::ParamStore* params,
                   const std::vector<RowSet>& plan) {
  EnsureState(*params, &velocity_);
  ApplyPlan(params, plan,
            [this](size_t i, autograd::Param* p, const uint32_t* rows,
                   size_t num_rows) {
              UpdateRows(p, &velocity_[i], rows, num_rows);
            });
}

void RmsProp::UpdateRows(autograd::Param* p, tensor::Matrix* ms,
                         const uint32_t* rows, size_t num_rows) {
  const size_t cols = p->value.cols();
  for (size_t k = 0; k < num_rows; ++k) {
    const size_t r = rows != nullptr ? rows[k] : k;
    float* value = p->value.row(r);
    const float* grad = p->grad.row(r);
    float* m = ms->row(r);
    for (size_t c = 0; c < cols; ++c) {
      const float g = grad[c] + weight_decay_ * value[c];
      m[c] = decay_ * m[c] + (1.0f - decay_) * g * g;
      value[c] -= learning_rate_ * g / (std::sqrt(m[c]) + epsilon_);
    }
  }
}

void RmsProp::Step(autograd::ParamStore* params) {
  EnsureState(*params, &mean_square_);
  for (size_t i = 0; i < params->size(); ++i) {
    autograd::Param* p = params->at(i);
    UpdateRows(p, &mean_square_[i], nullptr, p->value.rows());
  }
}

void RmsProp::StepRows(autograd::ParamStore* params,
                       const std::vector<RowSet>& plan) {
  EnsureState(*params, &mean_square_);
  ApplyPlan(params, plan,
            [this](size_t i, autograd::Param* p, const uint32_t* rows,
                   size_t num_rows) {
              UpdateRows(p, &mean_square_[i], rows, num_rows);
            });
}

void Adam::UpdateRows(autograd::Param* p, tensor::Matrix* m_state,
                      tensor::Matrix* v_state, float bias1, float bias2,
                      const uint32_t* rows, size_t num_rows) {
  const size_t cols = p->value.cols();
  for (size_t k = 0; k < num_rows; ++k) {
    const size_t r = rows != nullptr ? rows[k] : k;
    float* value = p->value.row(r);
    const float* grad = p->grad.row(r);
    float* m = m_state->row(r);
    float* v = v_state->row(r);
    for (size_t c = 0; c < cols; ++c) {
      const float g = grad[c] + weight_decay_ * value[c];
      m[c] = beta1_ * m[c] + (1.0f - beta1_) * g;
      v[c] = beta2_ * v[c] + (1.0f - beta2_) * g * g;
      const float m_hat = m[c] / bias1;
      const float v_hat = v[c] / bias2;
      value[c] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
  }
}

void Adam::Step(autograd::ParamStore* params) {
  EnsureState(*params, &m_);
  EnsureState(*params, &v_);
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params->size(); ++i) {
    autograd::Param* p = params->at(i);
    UpdateRows(p, &m_[i], &v_[i], bias1, bias2, nullptr, p->value.rows());
  }
}

void Adam::StepRows(autograd::ParamStore* params,
                    const std::vector<RowSet>& plan) {
  EnsureState(*params, &m_);
  EnsureState(*params, &v_);
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  ApplyPlan(params, plan,
            [this, bias1, bias2](size_t i, autograd::Param* p,
                                 const uint32_t* rows, size_t num_rows) {
              UpdateRows(p, &m_[i], &v_[i], bias1, bias2, rows, num_rows);
            });
}

void AdaGrad::UpdateRows(autograd::Param* p, tensor::Matrix* acc_state,
                         const uint32_t* rows, size_t num_rows) {
  const size_t cols = p->value.cols();
  for (size_t k = 0; k < num_rows; ++k) {
    const size_t r = rows != nullptr ? rows[k] : k;
    float* value = p->value.row(r);
    const float* grad = p->grad.row(r);
    float* acc = acc_state->row(r);
    for (size_t c = 0; c < cols; ++c) {
      const float g = grad[c] + weight_decay_ * value[c];
      acc[c] += g * g;
      value[c] -= learning_rate_ * g / (std::sqrt(acc[c]) + epsilon_);
    }
  }
}

void AdaGrad::Step(autograd::ParamStore* params) {
  EnsureState(*params, &accum_);
  for (size_t i = 0; i < params->size(); ++i) {
    autograd::Param* p = params->at(i);
    UpdateRows(p, &accum_[i], nullptr, p->value.rows());
  }
}

void AdaGrad::StepRows(autograd::ParamStore* params,
                       const std::vector<RowSet>& plan) {
  EnsureState(*params, &accum_);
  ApplyPlan(params, plan,
            [this](size_t i, autograd::Param* p, const uint32_t* rows,
                   size_t num_rows) {
              UpdateRows(p, &accum_[i], rows, num_rows);
            });
}

util::Status Sgd::SaveState(std::ostream* out) const {
  return WriteStateVector(velocity_, out);
}

util::Status Sgd::LoadState(std::istream* in) {
  return ReadStateVector(in, &velocity_);
}

util::Status RmsProp::SaveState(std::ostream* out) const {
  return WriteStateVector(mean_square_, out);
}

util::Status RmsProp::LoadState(std::istream* in) {
  return ReadStateVector(in, &mean_square_);
}

util::Status Adam::SaveState(std::ostream* out) const {
  out->write(reinterpret_cast<const char*>(&t_), sizeof(t_));
  HOSR_RETURN_IF_ERROR(WriteStateVector(m_, out));
  return WriteStateVector(v_, out);
}

util::Status Adam::LoadState(std::istream* in) {
  int64_t t = 0;
  in->read(reinterpret_cast<char*>(&t), sizeof(t));
  if (!*in) return util::Status::IoError("failed reading adam step counter");
  if (t < 0) {
    return util::Status::DataLoss("negative adam step counter: " +
                                  std::to_string(t));
  }
  std::vector<tensor::Matrix> m, v;
  HOSR_RETURN_IF_ERROR(ReadStateVector(in, &m));
  HOSR_RETURN_IF_ERROR(ReadStateVector(in, &v));
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
  return util::Status::Ok();
}

util::Status AdaGrad::SaveState(std::ostream* out) const {
  return WriteStateVector(accum_, out);
}

util::Status AdaGrad::LoadState(std::istream* in) {
  return ReadStateVector(in, &accum_);
}

std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name,
                                         float learning_rate,
                                         float weight_decay) {
  if (name == "sgd") {
    return std::make_unique<Sgd>(learning_rate, weight_decay);
  }
  if (name == "rmsprop") {
    return std::make_unique<RmsProp>(learning_rate, weight_decay);
  }
  if (name == "adam") {
    return std::make_unique<Adam>(learning_rate, weight_decay);
  }
  if (name == "adagrad") {
    return std::make_unique<AdaGrad>(learning_rate, weight_decay);
  }
  HOSR_CHECK(false) << "unknown optimizer: " << name;
  return nullptr;
}

}  // namespace hosr::optim
