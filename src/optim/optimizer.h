#ifndef HOSR_OPTIM_OPTIMIZER_H_
#define HOSR_OPTIM_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "autograd/param.h"
#include "util/bytes.h"
#include "util/statusor.h"

namespace hosr::optim {

// Per-parameter row selection for Optimizer::StepRows, indexed like the
// ParamStore. `dense` updates every row (same as Step for that parameter);
// otherwise only `rows` (which must be sorted and unique) are updated, and
// an empty list skips the parameter entirely this step.
struct RowSet {
  bool dense = false;
  std::vector<uint32_t> rows;
};

// Base class for first-order optimizers over a ParamStore. Optimizers apply
// decoupled L2 regularization (`weight_decay` = the paper's lambda): the
// update sees grad + weight_decay * value.
class Optimizer {
 public:
  explicit Optimizer(float learning_rate, float weight_decay = 0.0f)
      : learning_rate_(learning_rate), weight_decay_(weight_decay) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  // Applies one update from the accumulated gradients and leaves every
  // gradient it stepped at zero, in the same pass, so the next backward
  // pass accumulates from zero with no ParamStore::ZeroGrad in between.
  virtual void Step(autograd::ParamStore* params) = 0;

  // Row-sparse update: applies the exact per-row arithmetic Step would —
  // bitwise, including state updates and the gradient reset — but only to
  // the rows selected in `plan` (one RowSet per parameter). Rows outside
  // the plan keep their values, their optimizer state AND their gradient,
  // so a plan must cover every row a backward pass wrote (the trainer
  // plans from Tape::grad_rows()). That makes weight decay *lazy*: an
  // untouched embedding row skips this step's decay entirely. That is a
  // deliberate semantic difference from dense Step, so the trainer records
  // sparse-vs-dense in the checkpoint config identity. The base fallback
  // ignores the plan and runs a dense Step.
  virtual void StepRows(autograd::ParamStore* params,
                        const std::vector<RowSet>& plan) {
    (void)plan;
    Step(params);
  }

  virtual std::string name() const = 0;

  // Serializes the optimizer's internal state (momentum/moment accumulators,
  // step counters) so training can resume bit-identically after a crash:
  // a u64 slot count and one tensor::WriteMatrix block per slot, after an
  // i64 step counter for Adam. A state written by one optimizer must be
  // restored by the same optimizer type (the trainer checkpoint records the
  // name and enforces this). Saving before the first Step() is valid and
  // round-trips the lazy-unallocated state. LoadState changes nothing
  // unless it returns OK; a state that ends early, or whose slots are not
  // one per parameter of `params` shaped like it, is DataLoss.
  virtual void SaveState(util::ByteWriter* out) const = 0;
  virtual util::Status LoadState(util::ByteReader* in,
                                 const autograd::ParamStore& params) = 0;

  float learning_rate() const { return learning_rate_; }
  void set_learning_rate(float lr) { learning_rate_ = lr; }
  float weight_decay() const { return weight_decay_; }

 protected:
  float learning_rate_;
  float weight_decay_;
};

// Plain SGD with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(float learning_rate, float weight_decay = 0.0f, float momentum = 0.0f)
      : Optimizer(learning_rate, weight_decay), momentum_(momentum) {}

  void Step(autograd::ParamStore* params) override;
  void StepRows(autograd::ParamStore* params,
                const std::vector<RowSet>& plan) override;
  std::string name() const override { return "sgd"; }
  void SaveState(util::ByteWriter* out) const override;
  util::Status LoadState(util::ByteReader* in,
                         const autograd::ParamStore& params) override;

 private:
  // rows == nullptr updates all num_rows rows in order (the dense path).
  void UpdateRows(autograd::Param* p, tensor::Matrix* vel,
                  const uint32_t* rows, size_t num_rows);

  float momentum_;
  std::vector<tensor::Matrix> velocity_;
};

// RMSprop (Hinton lecture 6a) — the optimizer the paper trains with.
class RmsProp : public Optimizer {
 public:
  RmsProp(float learning_rate, float weight_decay = 0.0f, float decay = 0.9f,
          float epsilon = 1e-8f)
      : Optimizer(learning_rate, weight_decay),
        decay_(decay),
        epsilon_(epsilon) {}

  void Step(autograd::ParamStore* params) override;
  void StepRows(autograd::ParamStore* params,
                const std::vector<RowSet>& plan) override;
  std::string name() const override { return "rmsprop"; }
  void SaveState(util::ByteWriter* out) const override;
  util::Status LoadState(util::ByteReader* in,
                         const autograd::ParamStore& params) override;

 private:
  void UpdateRows(autograd::Param* p, tensor::Matrix* ms,
                  const uint32_t* rows, size_t num_rows);

  float decay_;
  float epsilon_;
  std::vector<tensor::Matrix> mean_square_;
};

// Adam (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
 public:
  Adam(float learning_rate, float weight_decay = 0.0f, float beta1 = 0.9f,
       float beta2 = 0.999f, float epsilon = 1e-8f)
      : Optimizer(learning_rate, weight_decay),
        beta1_(beta1),
        beta2_(beta2),
        epsilon_(epsilon) {}

  void Step(autograd::ParamStore* params) override;
  void StepRows(autograd::ParamStore* params,
                const std::vector<RowSet>& plan) override;
  std::string name() const override { return "adam"; }
  void SaveState(util::ByteWriter* out) const override;
  util::Status LoadState(util::ByteReader* in,
                         const autograd::ParamStore& params) override;

 private:
  // Bias correction uses the global step counter t_ (incremented once per
  // Step/StepRows call), the standard lazy-Adam convention: a row updated
  // less often still sees the global-schedule correction.
  void UpdateRows(autograd::Param* p, tensor::Matrix* m, tensor::Matrix* v,
                  float bias1, float bias2, const uint32_t* rows,
                  size_t num_rows);

  float beta1_;
  float beta2_;
  float epsilon_;
  int64_t t_ = 0;
  std::vector<tensor::Matrix> m_;
  std::vector<tensor::Matrix> v_;
};

// AdaGrad (Duchi et al.).
class AdaGrad : public Optimizer {
 public:
  AdaGrad(float learning_rate, float weight_decay = 0.0f,
          float epsilon = 1e-8f)
      : Optimizer(learning_rate, weight_decay), epsilon_(epsilon) {}

  void Step(autograd::ParamStore* params) override;
  void StepRows(autograd::ParamStore* params,
                const std::vector<RowSet>& plan) override;
  std::string name() const override { return "adagrad"; }
  void SaveState(util::ByteWriter* out) const override;
  util::Status LoadState(util::ByteReader* in,
                         const autograd::ParamStore& params) override;

 private:
  void UpdateRows(autograd::Param* p, tensor::Matrix* acc,
                  const uint32_t* rows, size_t num_rows);

  float epsilon_;
  std::vector<tensor::Matrix> accum_;
};

// Factory by name: "sgd", "rmsprop", "adam", "adagrad".
std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name,
                                         float learning_rate,
                                         float weight_decay);

}  // namespace hosr::optim

#endif  // HOSR_OPTIM_OPTIMIZER_H_
