#include <gtest/gtest.h>

#include <cmath>

#include "autograd/gradcheck.h"
#include "autograd/param.h"
#include "autograd/tape.h"
#include "graph/csr.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/random.h"

namespace hosr::autograd {
namespace {

using tensor::Matrix;

// Fixture providing a small parameter store with random values.
class AutogradTest : public ::testing::Test {
 protected:
  Param* MakeParam(const std::string& name, size_t rows, size_t cols,
                   float stddev = 1.0f) {
    return store_.CreateGaussian(name, rows, cols, stddev, &rng_);
  }

  // Runs the check twice: as is, and with uninitialised storage poisoned,
  // so an op that reads its output or a gradient before the first write
  // fails the check.
  void ExpectGradsOk(const std::function<Value(Tape*)>& build,
                     std::vector<Param*> params, double tol = 5e-2) {
    for (const bool poison : {false, true}) {
      tensor::SetPoisonUninitializedForTesting(poison);
      const GradCheckResult result = CheckGradients(build, params, 1e-2, tol);
      tensor::SetPoisonUninitializedForTesting(false);
      EXPECT_TRUE(result.passed)
          << (poison ? "poisoned, " : "") << "worst: " << result.worst_entry
          << " rel err: " << result.max_relative_error;
    }
  }

  ParamStore store_;
  util::Rng rng_{42};
};

// --- ParamStore ----------------------------------------------------------------

TEST_F(AutogradTest, ParamStoreCreateAndFind) {
  Param* p = MakeParam("w", 3, 4);
  EXPECT_EQ(p->value.rows(), 3u);
  EXPECT_EQ(store_.Find("w"), p);
  EXPECT_EQ(store_.Find("missing"), nullptr);
  EXPECT_EQ(store_.size(), 1u);
  EXPECT_EQ(store_.NumScalars(), 12u);
}

TEST_F(AutogradTest, ZeroGradClearsAccumulation) {
  Param* p = MakeParam("w", 2, 2);
  p->grad.Fill(3.0f);
  store_.ZeroGrad();
  EXPECT_DOUBLE_EQ(tensor::MaxAbs(p->grad), 0.0);
}

TEST_F(AutogradTest, SquaredNormSumsAllParams) {
  Param* a = store_.Create("a", 1, 2);
  Param* b = store_.Create("b", 1, 1);
  a->value(0, 0) = 3.0f;
  a->value(0, 1) = 4.0f;
  b->value(0, 0) = 2.0f;
  EXPECT_DOUBLE_EQ(store_.SquaredNorm(), 29.0);
}

// --- Forward values -------------------------------------------------------------

TEST_F(AutogradTest, ForwardMatMul) {
  Param* a = store_.Create("a", 2, 2);
  a->value = Matrix::FromRows({{1, 2}, {3, 4}});
  Tape tape;
  Value m = tape.MatMul(tape.Param(a), tape.Constant(Matrix::FromRows(
                                           {{1, 0}, {0, 1}})));
  EXPECT_TRUE(tensor::AllClose(m.value(), a->value));
}

TEST_F(AutogradTest, BackwardAccumulatesAcrossSharedSubgraph) {
  // loss = sum(p + p) -> dp = 2 everywhere.
  Param* p = MakeParam("p", 2, 3);
  Tape tape;
  Value leaf = tape.Param(p);
  Value loss = tape.Sum(tape.Add(leaf, leaf));
  store_.ZeroGrad();
  tape.Backward(loss);
  for (size_t i = 0; i < p->grad.size(); ++i) {
    EXPECT_FLOAT_EQ(p->grad.data()[i], 2.0f);
  }
}

TEST_F(AutogradTest, BackwardThroughTwoParamLeavesOfSameParam) {
  // Using tape.Param twice on the same Param must sum the contributions.
  Param* p = MakeParam("p", 1, 2);
  Tape tape;
  Value l1 = tape.Param(p);
  Value l2 = tape.Param(p);
  Value loss = tape.Sum(tape.Hadamard(l1, l2));  // sum(p^2)
  store_.ZeroGrad();
  tape.Backward(loss);
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(p->grad(0, c), 2.0f * p->value(0, c), 1e-5);
  }
}

TEST_F(AutogradTest, GatherOverParamRecordsRowsAndDenseConsumers) {
  // `table` is reached only by gathers: its rows land straight in
  // Param::grad and are recorded. `weight` also feeds a MatMul, which makes
  // it dense; `unused` never gets a gradient and is not recorded.
  Param* table = MakeParam("table", 5, 2);
  Param* weight = MakeParam("weight", 2, 2);
  MakeParam("unused", 3, 2);
  Tape tape;
  Value rows = tape.GatherRows(tape.Param(table), {3, 1, 3});
  Value w = tape.Param(weight);
  Value mixed = tape.Add(tape.MatMul(rows, w), tape.GatherRows(w, {0, 0, 1}));
  store_.ZeroGrad();
  tape.Backward(tape.Sum(mixed));

  ASSERT_EQ(tape.grad_rows().size(), 2u);
  const ParamGradRows& w_rows = tape.grad_rows()[0];
  const ParamGradRows& t_rows = tape.grad_rows()[1];
  EXPECT_EQ(w_rows.param, weight);
  EXPECT_TRUE(w_rows.dense);
  EXPECT_EQ(t_rows.param, table);
  EXPECT_FALSE(t_rows.dense);
  EXPECT_EQ(t_rows.rows, (std::vector<uint32_t>{3, 1, 3}));
  // d/d table(r, :) of sum(table[rows] * w) is (row sums of w) per gather.
  for (size_t c = 0; c < 2; ++c) {
    const float w_row_sum = weight->value(c, 0) + weight->value(c, 1);
    EXPECT_FLOAT_EQ(table->grad(3, c), 2.0f * w_row_sum);
    EXPECT_FLOAT_EQ(table->grad(1, c), w_row_sum);
    for (const size_t r : {0, 2, 4}) EXPECT_EQ(table->grad(r, c), 0.0f);
  }
}

TEST_F(AutogradTest, ConstantsReceiveNoGradient) {
  Param* p = MakeParam("p", 1, 1);
  Tape tape;
  Value c = tape.Constant(Matrix::FromRows({{5.0f}}));
  Value loss = tape.Sum(tape.Hadamard(tape.Param(p), c));
  store_.ZeroGrad();
  tape.Backward(loss);
  EXPECT_NEAR(p->grad(0, 0), 5.0f, 1e-6);
}

TEST_F(AutogradTest, GradientsAccumulateAcrossBackwardCalls) {
  Param* p = MakeParam("p", 1, 1);
  {
    Tape tape;
    Value loss = tape.Sum(tape.Param(p));
    store_.ZeroGrad();
    tape.Backward(loss);
  }
  {
    Tape tape;
    Value loss = tape.Sum(tape.Param(p));
    tape.Backward(loss);  // no ZeroGrad: should add
  }
  EXPECT_FLOAT_EQ(p->grad(0, 0), 2.0f);
}

// --- Per-op gradient checks -------------------------------------------------------

TEST_F(AutogradTest, GradMatMul) {
  Param* a = MakeParam("a", 3, 4);
  Param* b = MakeParam("b", 4, 2);
  ExpectGradsOk(
      [&](Tape* t) { return t->Sum(t->MatMul(t->Param(a), t->Param(b))); },
      {a, b});
}

TEST_F(AutogradTest, GradMatMulAcrossTileEdgesAndSkinnyShapes) {
  // 7 rows and 17 columns leave partial 6x16 GEMM tiles in the forward
  // product and in both backward products; the (n x 1) attention vector
  // gives one-column tiles and its dgrad a k == 1 product.
  Param* a = MakeParam("a", 7, 5, 0.5f);
  Param* w = MakeParam("w", 5, 17, 0.5f);
  Param* h = MakeParam("h", 17, 1, 0.5f);
  ExpectGradsOk(
      [&](Tape* t) {
        Value hidden = t->Tanh(t->MatMul(t->Param(a), t->Param(w)));
        Value scores = t->MatMul(hidden, t->Param(h));
        return t->Sum(t->Hadamard(scores, scores));
      },
      {a, w, h});
}

TEST_F(AutogradTest, GradSpMM) {
  Param* x = MakeParam("x", 4, 3);
  const graph::CsrMatrix sparse = graph::CsrMatrix::FromTriplets(
      5, 4, {{0, 0, 0.5f}, {0, 3, -1.0f}, {2, 1, 2.0f}, {4, 2, 1.5f}});
  const graph::CsrMatrix sparse_t = sparse.Transpose();
  ExpectGradsOk(
      [&](Tape* t) {
        return t->Sum(t->Tanh(t->SpMM(&sparse, &sparse_t, t->Param(x))));
      },
      {x});
}

TEST_F(AutogradTest, GradSpMMRows) {
  // The backward reads the transpose's rows in place and drops the columns
  // outside `rows`. Its input is a Param leaf or an interior node, and its
  // contribution to that input's gradient the first or a later one (the
  // Hadamard, created after it, runs its backward first).
  Param* x = MakeParam("x", 4, 3, 0.5f);
  const graph::CsrMatrix sparse = graph::CsrMatrix::FromTriplets(
      6, 4,
      {{0, 0, 0.5f}, {0, 3, -1.0f}, {1, 1, 0.7f}, {2, 1, 2.0f},
       {2, 2, -0.3f}, {3, 0, 1.1f}, {3, 3, 0.4f}, {5, 2, 1.5f}});
  const graph::CsrMatrix sparse_t = sparse.Transpose();
  for (const std::vector<uint32_t>& rows :
       {std::vector<uint32_t>{0, 2, 5}, std::vector<uint32_t>{3},
        std::vector<uint32_t>{0, 1, 2, 3, 4, 5}}) {
    for (const bool interior : {false, true}) {
      const auto input = [&](Tape* t) {
        return interior ? t->Tanh(t->Param(x)) : t->Param(x);
      };
      ExpectGradsOk(
          [&](Tape* t) {
            return t->Sum(
                t->Tanh(t->SpMMRows(&sparse, &sparse_t, rows, input(t))));
          },
          {x});
      ExpectGradsOk(
          [&](Tape* t) {
            Value in = input(t);
            Value y = t->SpMMRows(&sparse, &sparse_t, rows, in);
            return t->Add(t->Sum(t->Tanh(y)), t->Sum(t->Hadamard(in, in)));
          },
          {x});
    }
  }
}

TEST(SpMMRowsDeathTest, RejectsUnsortedAndRepeatedRows) {
  const graph::CsrMatrix sparse = graph::CsrMatrix::FromTriplets(
      3, 2, {{0, 0, 1.0f}, {1, 1, 1.0f}, {2, 0, 1.0f}});
  const graph::CsrMatrix sparse_t = sparse.Transpose();
  ParamStore store;
  Param* x = store.Create("x", 2, 2);
  for (const std::vector<uint32_t>& rows :
       {std::vector<uint32_t>{2, 1}, std::vector<uint32_t>{0, 1, 1}}) {
    EXPECT_DEATH(
        {
          Tape tape;
          tape.SpMMRows(&sparse, &sparse_t, rows, tape.Param(x));
        },
        "strictly ascending");
  }
}

TEST_F(AutogradTest, GradGatherRows) {
  Param* x = MakeParam("x", 5, 3);
  const std::vector<uint32_t> idx{4, 0, 4, 2};  // repeats exercise scatter-add
  ExpectGradsOk(
      [&](Tape* t) {
        Value g = t->GatherRows(t->Param(x), idx);
        return t->Sum(t->Hadamard(g, g));
      },
      {x});
}

TEST_F(AutogradTest, GradGatherRowsOfInteriorNode) {
  // The gather writes only the gathered rows of its input's gradient, so
  // its first contribution must zero the rest (ascending rows with gaps,
  // and repeated unsorted rows); a later one adds to what is there.
  Param* x = MakeParam("x", 5, 3, 0.5f);
  for (const std::vector<uint32_t>& idx :
       {std::vector<uint32_t>{1, 3}, std::vector<uint32_t>{3, 1, 3}}) {
    ExpectGradsOk(
        [&](Tape* t) {
          Value g = t->GatherRows(t->Tanh(t->Param(x)), idx);
          return t->Sum(t->Hadamard(g, g));
        },
        {x});
    ExpectGradsOk(
        [&](Tape* t) {
          Value h = t->Tanh(t->Param(x));
          Value g = t->GatherRows(h, idx);  // runs after the Hadamard below
          return t->Add(t->Sum(t->Hadamard(g, g)),
                        t->Sum(t->Hadamard(h, h)));
        },
        {x});
  }
}

TEST_F(AutogradTest, GradAddSubScale) {
  Param* a = MakeParam("a", 2, 3);
  Param* b = MakeParam("b", 2, 3);
  ExpectGradsOk(
      [&](Tape* t) {
        Value s = t->Sub(t->Scale(t->Param(a), 2.5f), t->Param(b));
        return t->Mean(t->Hadamard(s, s));
      },
      {a, b});
}

TEST_F(AutogradTest, GradHadamard) {
  Param* a = MakeParam("a", 3, 3);
  Param* b = MakeParam("b", 3, 3);
  ExpectGradsOk(
      [&](Tape* t) {
        return t->Sum(t->Hadamard(t->Param(a), t->Param(b)));
      },
      {a, b});
}

TEST_F(AutogradTest, GradTanh) {
  Param* a = MakeParam("a", 2, 4, 0.5f);
  ExpectGradsOk(
      [&](Tape* t) { return t->Sum(t->Tanh(t->Param(a))); }, {a});
}

TEST_F(AutogradTest, GradReluAwayFromKink) {
  Param* a = MakeParam("a", 3, 3);
  // Move values away from 0 so finite differences are valid.
  for (size_t i = 0; i < a->value.size(); ++i) {
    float& v = a->value.data()[i];
    if (std::fabs(v) < 0.15f) v = v < 0 ? -0.2f : 0.2f;
  }
  ExpectGradsOk(
      [&](Tape* t) {
        Value r = t->Relu(t->Param(a));
        return t->Sum(t->Hadamard(r, r));
      },
      {a});
}

TEST_F(AutogradTest, GradLogSigmoid) {
  Param* a = MakeParam("a", 2, 3);
  ExpectGradsOk(
      [&](Tape* t) { return t->Sum(t->LogSigmoid(t->Param(a))); }, {a});
}

TEST_F(AutogradTest, LogSigmoidStableAtExtremes) {
  Param* a = store_.Create("a", 1, 2);
  a->value(0, 0) = 80.0f;
  a->value(0, 1) = -80.0f;
  Tape tape;
  Value y = tape.LogSigmoid(tape.Param(a));
  EXPECT_NEAR(y.value()(0, 0), 0.0f, 1e-6);
  EXPECT_NEAR(y.value()(0, 1), -80.0f, 1e-3);
  EXPECT_TRUE(std::isfinite(y.value()(0, 0)));
  EXPECT_TRUE(std::isfinite(y.value()(0, 1)));
  store_.ZeroGrad();
  tape.Backward(tape.Sum(y));
  EXPECT_NEAR(a->grad(0, 0), 0.0f, 1e-6);   // sigmoid(-80)
  EXPECT_NEAR(a->grad(0, 1), 1.0f, 1e-6);   // sigmoid(80)
}

TEST_F(AutogradTest, GradAddRowBroadcast) {
  Param* a = MakeParam("a", 4, 3);
  Param* bias = MakeParam("bias", 1, 3);
  ExpectGradsOk(
      [&](Tape* t) {
        Value y = t->AddRowBroadcast(t->Param(a), t->Param(bias));
        return t->Sum(t->Hadamard(y, y));
      },
      {a, bias});
}

TEST_F(AutogradTest, GradBroadcastColMul) {
  Param* a = MakeParam("a", 4, 3);
  Param* s = MakeParam("s", 4, 1);
  ExpectGradsOk(
      [&](Tape* t) {
        return t->Sum(t->BroadcastColMul(t->Param(a), t->Param(s)));
      },
      {a, s});
}

TEST_F(AutogradTest, GradConcatCols) {
  Param* a = MakeParam("a", 3, 2);
  Param* b = MakeParam("b", 3, 4);
  ExpectGradsOk(
      [&](Tape* t) {
        Value y = t->ConcatCols(t->Param(a), t->Param(b));
        return t->Sum(t->Hadamard(y, y));
      },
      {a, b});
}

TEST_F(AutogradTest, GradSliceCols) {
  Param* a = MakeParam("a", 3, 5);
  ExpectGradsOk(
      [&](Tape* t) {
        Value y = t->SliceCols(t->Param(a), 1, 3);
        return t->Sum(t->Hadamard(y, y));
      },
      {a});
}

TEST_F(AutogradTest, SliceConcatRoundTripValue) {
  Param* a = MakeParam("a", 2, 6);
  Tape tape;
  Value leaf = tape.Param(a);
  Value left = tape.SliceCols(leaf, 0, 2);
  Value right = tape.SliceCols(leaf, 2, 4);
  Value rebuilt = tape.ConcatCols(left, right);
  EXPECT_TRUE(tensor::AllClose(rebuilt.value(), a->value));
}

TEST_F(AutogradTest, GradRowDot) {
  Param* a = MakeParam("a", 4, 3);
  Param* b = MakeParam("b", 4, 3);
  ExpectGradsOk(
      [&](Tape* t) {
        return t->Sum(t->RowDot(t->Param(a), t->Param(b)));
      },
      {a, b});
}

TEST_F(AutogradTest, GradRowSoftmax) {
  Param* a = MakeParam("a", 3, 4);
  Param* w = MakeParam("w", 3, 4);
  ExpectGradsOk(
      [&](Tape* t) {
        // Weighted so the softmax gradient is nontrivial per entry.
        return t->Sum(t->Hadamard(t->RowSoftmax(t->Param(a)),
                                  t->Param(w)));
      },
      {a});
}

TEST_F(AutogradTest, RowSoftmaxRowsSumToOne) {
  Param* a = MakeParam("a", 5, 3);
  Tape tape;
  Value s = tape.RowSoftmax(tape.Param(a));
  for (size_t r = 0; r < 5; ++r) {
    float sum = 0;
    for (size_t c = 0; c < 3; ++c) sum += s.value()(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST_F(AutogradTest, GradMeanAndSum) {
  Param* a = MakeParam("a", 3, 3);
  ExpectGradsOk([&](Tape* t) { return t->Mean(t->Param(a)); }, {a});
  ExpectGradsOk(
      [&](Tape* t) {
        Value x = t->Param(a);
        return t->Sum(t->Hadamard(x, x));
      },
      {a});
}

TEST_F(AutogradTest, GradLeakyRelu) {
  Param* a = MakeParam("a", 3, 3);
  // Move values away from the kink.
  for (size_t i = 0; i < a->value.size(); ++i) {
    float& v = a->value.data()[i];
    if (std::fabs(v) < 0.15f) v = v < 0 ? -0.2f : 0.2f;
  }
  ExpectGradsOk(
      [&](Tape* t) { return t->Sum(t->LeakyRelu(t->Param(a), 0.2f)); }, {a});
}

TEST_F(AutogradTest, LeakyReluForwardValues) {
  Param* a = store_.Create("a", 1, 3);
  a->value(0, 0) = -2.0f;
  a->value(0, 1) = 0.0f;
  a->value(0, 2) = 3.0f;
  Tape tape;
  Value y = tape.LeakyRelu(tape.Param(a), 0.1f);
  EXPECT_FLOAT_EQ(y.value()(0, 0), -0.2f);
  EXPECT_FLOAT_EQ(y.value()(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.value()(0, 2), 3.0f);
}

TEST_F(AutogradTest, SegmentSoftmaxMatchesRowSoftmaxOnUniformSegments) {
  // Two segments of 3 entries each == a 2x3 RowSoftmax, flattened.
  Param* a = MakeParam("a", 6, 1);
  Tape tape;
  Value seg = tape.SegmentSoftmax(tape.Param(a), {0, 3, 6});
  Matrix rows(2, 3);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) rows(r, c) = a->value(r * 3 + c, 0);
  }
  const Matrix reference = tensor::RowSoftmax(rows);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(seg.value()(r * 3 + c, 0), reference(r, c), 1e-5);
    }
  }
}

TEST_F(AutogradTest, SegmentSoftmaxSegmentsSumToOne) {
  Param* a = MakeParam("a", 7, 1);
  Tape tape;
  const std::vector<size_t> offsets{0, 2, 2, 5, 7};  // includes empty segment
  Value s = tape.SegmentSoftmax(tape.Param(a), offsets);
  for (size_t seg = 0; seg + 1 < offsets.size(); ++seg) {
    if (offsets[seg] == offsets[seg + 1]) continue;
    float sum = 0.0f;
    for (size_t e = offsets[seg]; e < offsets[seg + 1]; ++e) {
      sum += s.value()(e, 0);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST_F(AutogradTest, GradSegmentSoftmax) {
  Param* a = MakeParam("a", 8, 1);
  Param* w = MakeParam("w", 8, 1);
  ExpectGradsOk(
      [&](Tape* t) {
        Value s = t->SegmentSoftmax(t->Param(a), {0, 3, 5, 8});
        return t->Sum(t->Hadamard(s, t->Param(w)));
      },
      {a});
}

TEST_F(AutogradTest, SegmentWeightedSumForward) {
  Param* alpha = store_.Create("alpha", 4, 1);
  Param* feats = store_.Create("feats", 4, 2);
  alpha->value = Matrix::FromRows({{0.5f}, {0.5f}, {1.0f}, {2.0f}});
  feats->value = Matrix::FromRows({{1, 0}, {3, 2}, {5, 5}, {1, 1}});
  Tape tape;
  Value out = tape.SegmentWeightedSum(tape.Param(alpha), tape.Param(feats),
                                      {0, 2, 4});
  // Segment 0: 0.5*(1,0) + 0.5*(3,2) = (2,1); segment 1: (5,5) + 2*(1,1).
  EXPECT_TRUE(tensor::AllClose(out.value(),
                               Matrix::FromRows({{2, 1}, {7, 7}}), 1e-5));
}

TEST_F(AutogradTest, GradSegmentWeightedSum) {
  Param* alpha = MakeParam("alpha", 6, 1);
  Param* feats = MakeParam("feats", 6, 3);
  ExpectGradsOk(
      [&](Tape* t) {
        Value out = t->SegmentWeightedSum(t->Param(alpha), t->Param(feats),
                                          {0, 2, 3, 6});
        return t->Sum(t->Hadamard(out, out));
      },
      {alpha, feats});
}

TEST_F(AutogradTest, GradGatStyleComposite) {
  // A full GAT layer: transform, gather, edge scores, segment softmax,
  // weighted aggregation — all ops composed.
  Param* emb = MakeParam("emb", 4, 3, 0.5f);
  Param* w = MakeParam("w", 3, 3, 0.5f);
  Param* a_src = MakeParam("a_src", 3, 1, 0.5f);
  Param* a_tgt = MakeParam("a_tgt", 3, 1, 0.5f);
  // Node 0: edges to {0,1,2}; node 1: {1,0}; node 2: {2}; node 3: {3,2}.
  const std::vector<uint32_t> sources{0, 0, 0, 1, 1, 2, 3, 3};
  const std::vector<uint32_t> targets{0, 1, 2, 1, 0, 2, 3, 2};
  const std::vector<size_t> offsets{0, 3, 5, 6, 8};
  ExpectGradsOk(
      [&](Tape* t) {
        Value hw = t->MatMul(t->Param(emb), t->Param(w));
        Value src = t->GatherRows(hw, sources);
        Value tgt = t->GatherRows(hw, targets);
        Value scores = t->LeakyRelu(
            t->Add(t->MatMul(src, t->Param(a_src)),
                   t->MatMul(tgt, t->Param(a_tgt))),
            0.2f);
        Value alpha = t->SegmentSoftmax(scores, offsets);
        Value out = t->SegmentWeightedSum(alpha, tgt, offsets);
        Value act = t->Tanh(out);
        return t->Sum(t->Hadamard(act, act));
      },
      {emb, w, a_src, a_tgt}, /*tol=*/8e-2);
}

// --- Dropout -----------------------------------------------------------------

TEST_F(AutogradTest, DropoutIdentityWhenNotTraining) {
  Param* a = MakeParam("a", 4, 4);
  util::Rng rng(1);
  Tape tape;
  Value y = tape.Dropout(tape.Param(a), 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(tensor::AllClose(y.value(), a->value));
}

TEST_F(AutogradTest, DropoutZeroProbIsIdentity) {
  Param* a = MakeParam("a", 4, 4);
  util::Rng rng(2);
  Tape tape;
  Value y = tape.Dropout(tape.Param(a), 0.0f, /*training=*/true, &rng);
  EXPECT_TRUE(tensor::AllClose(y.value(), a->value));
}

TEST_F(AutogradTest, DropoutScalesSurvivors) {
  Param* a = store_.Create("a", 50, 50);
  a->value.Fill(1.0f);
  util::Rng rng(3);
  Tape tape;
  Value y = tape.Dropout(tape.Param(a), 0.25f, /*training=*/true, &rng);
  size_t zeros = 0;
  for (size_t i = 0; i < y.value().size(); ++i) {
    const float v = y.value().data()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.value().size(), 0.25, 0.03);
}

TEST_F(AutogradTest, DropoutBackwardUsesSameMask) {
  Param* a = store_.Create("a", 20, 20);
  a->value.Fill(2.0f);
  util::Rng rng(4);
  Tape tape;
  Value y = tape.Dropout(tape.Param(a), 0.5f, /*training=*/true, &rng);
  store_.ZeroGrad();
  tape.Backward(tape.Sum(y));
  // Gradient must be 0 exactly where the forward output was dropped.
  for (size_t i = 0; i < a->grad.size(); ++i) {
    const bool dropped = y.value().data()[i] == 0.0f;
    if (dropped) {
      EXPECT_FLOAT_EQ(a->grad.data()[i], 0.0f);
    } else {
      EXPECT_NEAR(a->grad.data()[i], 2.0f, 1e-5);
    }
  }
}

// --- Composite graph (BPR-like) ---------------------------------------------------

TEST_F(AutogradTest, GradBprStyleLoss) {
  Param* users = MakeParam("U", 4, 3, 0.5f);
  Param* items = MakeParam("V", 6, 3, 0.5f);
  const std::vector<uint32_t> u{0, 2, 3};
  const std::vector<uint32_t> pos{1, 0, 5};
  const std::vector<uint32_t> neg{2, 3, 0};
  ExpectGradsOk(
      [&](Tape* t) {
        Value ue = t->GatherRows(t->Param(users), u);
        Value pe = t->GatherRows(t->Param(items), pos);
        Value ne = t->GatherRows(t->Param(items), neg);
        Value margin = t->Sub(t->RowDot(ue, pe), t->RowDot(ue, ne));
        return t->Scale(t->Mean(t->LogSigmoid(margin)), -1.0f);
      },
      {users, items});
}

TEST_F(AutogradTest, GradDeepComposite) {
  // A miniature GCN-with-attention-like stack touching most ops at once.
  Param* emb = MakeParam("emb", 5, 4, 0.5f);
  Param* w1 = MakeParam("w1", 4, 4, 0.5f);
  Param* w2 = MakeParam("w2", 4, 4, 0.5f);
  Param* h = MakeParam("h", 4, 1, 0.5f);
  const graph::CsrMatrix lap = graph::CsrMatrix::FromTriplets(
      5, 5, {{0, 0, 1.0f}, {0, 1, 0.5f}, {1, 0, 0.5f}, {1, 1, 0.5f},
             {2, 2, 1.0f}, {3, 4, 0.7f}, {4, 3, 0.7f}, {3, 3, 1.0f},
             {4, 4, 1.0f}, {2, 3, 0.3f}, {3, 2, 0.3f}});
  const graph::CsrMatrix lap_t = lap.Transpose();
  ExpectGradsOk(
      [&](Tape* t) {
        Value u0 = t->Param(emb);
        Value h1 = t->Tanh(t->MatMul(t->SpMM(&lap, &lap_t, u0),
                                     t->Param(w1)));
        Value h2 = t->Tanh(t->MatMul(t->SpMM(&lap, &lap_t, h1),
                                     t->Param(w2)));
        Value a1 = t->MatMul(t->Relu(h1), t->Param(h));
        Value a2 = t->MatMul(t->Relu(h2), t->Param(h));
        Value weights = t->RowSoftmax(t->ConcatCols(a1, a2));
        Value agg = t->Add(
            t->BroadcastColMul(h1, t->SliceCols(weights, 0, 1)),
            t->BroadcastColMul(h2, t->SliceCols(weights, 1, 1)));
        return t->Sum(t->Hadamard(agg, agg));
      },
      {emb, w1, w2, h}, /*tol=*/8e-2);
}

}  // namespace
}  // namespace hosr::autograd
