#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "autograd/param.h"
#include "autograd/tape.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"
#include "util/random.h"

namespace hosr::optim {
namespace {

// Minimizes f(x) = sum((x - target)^2) for `steps` iterations and returns
// the final objective value.
double MinimizeQuadratic(Optimizer* opt, int steps,
                         autograd::ParamStore* store, autograd::Param* x,
                         const tensor::Matrix& target) {
  double last = 0.0;
  for (int i = 0; i < steps; ++i) {
    autograd::Tape tape;
    autograd::Value leaf = tape.Param(x);
    autograd::Value diff =
        tape.Sub(leaf, tape.Constant(target));
    autograd::Value loss = tape.Sum(tape.Hadamard(diff, diff));
    store->ZeroGrad();
    tape.Backward(loss);
    opt->Step(store);
    last = loss.value()(0, 0);
  }
  return last;
}

class OptimizerConvergence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerConvergence, ReachesQuadraticMinimum) {
  autograd::ParamStore store;
  autograd::Param* x = store.Create("x", 3, 3);
  x->value.Fill(4.0f);
  tensor::Matrix target(3, 3, 1.0f);

  // AdaGrad's effective step decays as 1/sqrt(sum g^2); it needs a larger
  // base rate to cover the same distance in the same step budget.
  const float lr = GetParam() == "adagrad" ? 0.5f : 0.05f;
  auto opt = MakeOptimizer(GetParam(), lr, /*weight_decay=*/0.0f);
  const double final_loss =
      MinimizeQuadratic(opt.get(), 400, &store, x, target);
  EXPECT_LT(final_loss, 1e-2) << GetParam();
  EXPECT_NEAR(x->value(0, 0), 1.0f, 0.15f) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerConvergence,
                         ::testing::Values("sgd", "rmsprop", "adam",
                                           "adagrad"));

TEST(SgdTest, SingleStepMatchesManualUpdate) {
  autograd::ParamStore store;
  autograd::Param* x = store.Create("x", 1, 1);
  x->value(0, 0) = 2.0f;
  x->grad(0, 0) = 3.0f;
  Sgd sgd(0.1f);
  sgd.Step(&store);
  EXPECT_NEAR(x->value(0, 0), 2.0f - 0.1f * 3.0f, 1e-6);
}

TEST(SgdTest, MomentumAccumulatesVelocity) {
  autograd::ParamStore store;
  autograd::Param* x = store.Create("x", 1, 1);
  x->value(0, 0) = 0.0f;
  Sgd sgd(0.1f, 0.0f, /*momentum=*/0.9f);
  // Two steps with constant gradient 1: v1 = 1, v2 = 1.9. A step consumes
  // the gradient, so it is set before each one.
  x->grad(0, 0) = 1.0f;
  sgd.Step(&store);
  EXPECT_NEAR(x->value(0, 0), -0.1f, 1e-6);
  x->grad(0, 0) = 1.0f;
  sgd.Step(&store);
  EXPECT_NEAR(x->value(0, 0), -0.1f - 0.19f, 1e-6);
}

TEST(WeightDecayTest, ShrinksParamsWithZeroGradient) {
  autograd::ParamStore store;
  autograd::Param* x = store.Create("x", 1, 1);
  x->value(0, 0) = 10.0f;
  Sgd sgd(0.1f, /*weight_decay=*/0.5f);
  sgd.Step(&store);  // grad = 0 + 0.5 * 10 = 5; x -= 0.1 * 5
  EXPECT_NEAR(x->value(0, 0), 9.5f, 1e-6);
}

TEST(RmsPropTest, StepSizeAdaptsToGradientScale) {
  // With a constant gradient g, RMSprop's effective step approaches
  // lr * g / sqrt(E[g^2]) ~ lr regardless of |g|.
  for (const float g : {0.01f, 100.0f}) {
    autograd::ParamStore store;
    autograd::Param* x = store.Create("x", 1, 1);
    RmsProp opt(0.1f);
    float before = x->value(0, 0);
    for (int i = 0; i < 50; ++i) {
      x->grad(0, 0) = g;
      opt.Step(&store);
    }
    const float moved = before - x->value(0, 0);
    EXPECT_GT(moved, 0.5f) << g;
    EXPECT_LT(moved, 20.0f) << g;
  }
}

// The RMSprop element loop as it stood before the rmsprop kernel: the
// oracle the kernel-backed optimizer must match bit for bit.
void ReferenceRmsPropStep(float lr, float weight_decay, float decay,
                          float epsilon, const tensor::Matrix& grad,
                          tensor::Matrix* value, tensor::Matrix* ms) {
  float* w = value->data();
  float* m = ms->data();
  for (size_t i = 0; i < value->size(); ++i) {
    const float g = grad.data()[i] + weight_decay * w[i];
    m[i] = decay * m[i] + (1.0f - decay) * g * g;
    w[i] -= lr * g / (std::sqrt(m[i]) + epsilon);
  }
}

TEST(RmsPropTest, StepAndStepRowsMatchReferenceLoopBitwise) {
  // 7 x 9: a dense step runs 63 elements in one call, a row step 9 per row
  // (one 8-lane block and a tail in the SIMD table).
  util::Rng rng(17);
  autograd::ParamStore dense_store, rows_store;
  autograd::Param* dense = dense_store.CreateGaussian("p", 7, 9, 1.0f, &rng);
  autograd::Param* rows = rows_store.Create("p", 7, 9);
  rows->value = dense->value;
  tensor::Matrix ref_value = dense->value;
  tensor::Matrix ref_ms(7, 9);
  RmsProp dense_opt(0.01f, 0.001f);
  RmsProp rows_opt(0.01f, 0.001f);
  std::vector<RowSet> plan(1);
  plan[0].rows = {0, 1, 2, 3, 4, 5, 6};
  for (int step = 0; step < 3; ++step) {
    tensor::Matrix grad(7, 9);
    for (size_t i = 0; i < grad.size(); ++i) {
      grad.data()[i] = static_cast<float>(rng.Gaussian()) * (step + 1);
    }
    dense->grad = grad;
    rows->grad = grad;
    ReferenceRmsPropStep(0.01f, 0.001f, 0.9f, 1e-8f, grad, &ref_value,
                         &ref_ms);
    dense_opt.Step(&dense_store);
    rows_opt.StepRows(&rows_store, plan);
    for (size_t i = 0; i < grad.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(ref_value.data()[i]),
                std::bit_cast<uint32_t>(dense->value.data()[i]))
          << "Step, step " << step << " element " << i;
      ASSERT_EQ(std::bit_cast<uint32_t>(ref_value.data()[i]),
                std::bit_cast<uint32_t>(rows->value.data()[i]))
          << "StepRows, step " << step << " element " << i;
      ASSERT_EQ(dense->grad.data()[i], 0.0f) << "Step left a gradient";
      ASSERT_EQ(rows->grad.data()[i], 0.0f) << "StepRows left a gradient";
    }
  }
}

TEST(OptimizerTest, EveryStepClearsTheGradientItStepped) {
  for (const std::string name : {"sgd", "rmsprop", "adam", "adagrad"}) {
    autograd::ParamStore store;
    autograd::Param* p = store.Create("p", 4, 3);
    p->grad.Fill(0.5f);
    auto opt = MakeOptimizer(name, 0.1f, 0.01f);
    std::vector<RowSet> plan(1);
    plan[0].rows = {1, 3};
    opt->StepRows(&store, plan);
    for (size_t r = 0; r < 4; ++r) {
      const float want = r == 1 || r == 3 ? 0.0f : 0.5f;
      for (size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(p->grad(r, c), want) << name << " StepRows row " << r;
      }
    }
    opt->Step(&store);
    EXPECT_EQ(tensor::MaxAbs(p->grad), 0.0) << name << " Step";
  }
}

TEST(AdamTest, BiasCorrectionMakesFirstStepLrSized) {
  autograd::ParamStore store;
  autograd::Param* x = store.Create("x", 1, 1);
  Adam adam(0.1f);
  x->grad(0, 0) = 7.0f;  // any scale
  adam.Step(&store);
  // First Adam step is ~ -lr * sign(g).
  EXPECT_NEAR(x->value(0, 0), -0.1f, 1e-3);
}

TEST(AdaGradTest, StepsShrinkOverTime) {
  autograd::ParamStore store;
  autograd::Param* x = store.Create("x", 1, 1);
  AdaGrad opt(0.5f);
  x->grad(0, 0) = 1.0f;
  opt.Step(&store);
  const float first_step = -x->value(0, 0);
  const float before = x->value(0, 0);
  x->grad(0, 0) = 1.0f;
  opt.Step(&store);
  const float second_step = before - x->value(0, 0);
  EXPECT_LT(second_step, first_step);
}

TEST(MakeOptimizerTest, ReturnsNamedOptimizers) {
  EXPECT_EQ(MakeOptimizer("sgd", 0.1f, 0.0f)->name(), "sgd");
  EXPECT_EQ(MakeOptimizer("rmsprop", 0.1f, 0.0f)->name(), "rmsprop");
  EXPECT_EQ(MakeOptimizer("adam", 0.1f, 0.0f)->name(), "adam");
  EXPECT_EQ(MakeOptimizer("adagrad", 0.1f, 0.0f)->name(), "adagrad");
}

TEST(OptimizerTest, LearningRateMutable) {
  Sgd sgd(0.1f);
  sgd.set_learning_rate(0.01f);
  EXPECT_FLOAT_EQ(sgd.learning_rate(), 0.01f);
}

TEST(OptimizerTest, MultipleParamsUpdatedIndependently) {
  autograd::ParamStore store;
  autograd::Param* a = store.Create("a", 1, 1);
  autograd::Param* b = store.Create("b", 1, 1);
  a->grad(0, 0) = 1.0f;
  b->grad(0, 0) = -2.0f;
  Sgd sgd(0.1f);
  sgd.Step(&store);
  EXPECT_NEAR(a->value(0, 0), -0.1f, 1e-6);
  EXPECT_NEAR(b->value(0, 0), 0.2f, 1e-6);
}

}  // namespace
}  // namespace hosr::optim
