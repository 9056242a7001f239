#include "autograd/tape.h"

#include <cmath>
#include <utility>

#include "graph/spmm.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace hosr::autograd {

using tensor::Matrix;

internal::Node* Tape::NewNode(Matrix value, bool requires_grad) {
  auto node = std::make_unique<internal::Node>();
  node->owned_value = std::move(value);
  node->value_ptr = &node->owned_value;
  node->requires_grad = requires_grad;
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

internal::Node* Tape::NewParamNode(autograd::Param* param) {
  auto node = std::make_unique<internal::Node>();
  node->value_ptr = &param->value;
  node->requires_grad = true;
  node->param = param;
  param_leaves_.push_back(param);
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

Matrix* Tape::GradFor(internal::Node* node) {
  HOSR_CHECK(node->sparse_sink < 0)
      << "sparse leaves support only GatherRows consumers";
  if (!node->grad_live) {
    node->grad = Matrix(node->value().rows(), node->value().cols());
    node->grad_live = true;
  }
  return &node->grad;
}

Value Tape::Param(autograd::Param* param) {
  internal::Node* node = NewParamNode(param);
  node->backward = [node] {
    tensor::Axpy(1.0f, node->grad, &node->param->grad);
  };
  return Value(node);
}

Value Tape::Constant(Matrix m) {
  return Value(NewNode(std::move(m), /*requires_grad=*/false));
}

Value Tape::SparseParam(autograd::Param* param) {
  HOSR_CHECK(param != nullptr);
  auto sink = std::make_unique<SparseSink>();
  sink->param = param;
  sink->cols = param->value.cols();
  auto node = std::make_unique<internal::Node>();
  node->value_ptr = &param->value;
  node->requires_grad = true;
  node->sparse_sink = static_cast<int>(sinks_.size());
  sinks_.push_back(std::move(sink));
  nodes_.push_back(std::move(node));
  return Value(nodes_.back().get());
}

Value Tape::SparseShared(int key, const tensor::Matrix* values) {
  HOSR_CHECK(values != nullptr);
  HOSR_CHECK(key >= 0) << "shared keys are non-negative";
  auto sink = std::make_unique<SparseSink>();
  sink->shared_key = key;
  sink->cols = values->cols();
  auto node = std::make_unique<internal::Node>();
  node->value_ptr = values;
  node->requires_grad = true;
  node->sparse_sink = static_cast<int>(sinks_.size());
  sinks_.push_back(std::move(sink));
  nodes_.push_back(std::move(node));
  return Value(nodes_.back().get());
}

Value Tape::MatMul(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out = NewNode(tensor::MatMul(an->value(), bn->value()),
                                an->requires_grad || bn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, bn] {
      if (an->requires_grad) {
        // dA += dOut * B^T through the NN tiles against a transposed copy
        // of B (the d x d weight), rather than the dot-per-element NT path.
        tensor::Gemm(out->grad, false, tensor::Transpose(bn->value()), false,
                     1.0f, 1.0f, GradFor(an));
      }
      if (bn->requires_grad) {
        tensor::Gemm(an->value(), true, out->grad, false, 1.0f, 1.0f,
                     GradFor(bn));
      }
    };
  }
  return Value(out);
}

Value Tape::SpMM(const graph::CsrMatrix* matrix,
                 const graph::CsrMatrix* transpose, Value dense) {
  HOSR_CHECK(matrix != nullptr && transpose != nullptr);
  HOSR_CHECK(transpose->num_rows() == matrix->num_cols() &&
             transpose->num_cols() == matrix->num_rows())
      << "transpose shape mismatch";
  internal::Node* dn = dense.node_;
  internal::Node* out =
      NewNode(graph::Spmm(*matrix, dn->value()), dn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, dn, transpose] {
      graph::SpmmAccumulate(*transpose, out->grad, GradFor(dn));
    };
  }
  return Value(out);
}

Value Tape::GatherRows(Value a, std::vector<uint32_t> indices) {
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(tensor::GatherRows(an->value(), indices),
                                an->requires_grad);
  if (an->sparse_sink >= 0) {
    // Sparse leaf: instead of scatter-adding into a dense grad, hand the
    // (rows, grad rows) pair — already in scan order — to the leaf's sink
    // segment registered at creation time. Pure moves; the caller (the
    // parallel trainer's reducer) owns the accumulation order.
    SparseSink* sink = sinks_[an->sparse_sink].get();
    const size_t op_index = sink->ops.size();
    sink->ops.emplace_back();
    out->backward = [out, sink, op_index,
                     indices = std::move(indices)]() mutable {
      SparseSink::OpSegment& seg = sink->ops[op_index];
      seg.rows = std::move(indices);
      seg.grads = std::move(out->grad);
    };
  } else if (out->requires_grad) {
    out->backward = [out, an, indices = std::move(indices)] {
      tensor::ScatterAddRows(out->grad, indices, GradFor(an));
    };
  }
  return Value(out);
}

Value Tape::Add(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out = NewNode(tensor::Add(an->value(), bn->value()),
                                an->requires_grad || bn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, bn] {
      if (an->requires_grad) tensor::Axpy(1.0f, out->grad, GradFor(an));
      if (bn->requires_grad) tensor::Axpy(1.0f, out->grad, GradFor(bn));
    };
  }
  return Value(out);
}

Value Tape::Sub(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out = NewNode(tensor::Sub(an->value(), bn->value()),
                                an->requires_grad || bn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, bn] {
      if (an->requires_grad) tensor::Axpy(1.0f, out->grad, GradFor(an));
      if (bn->requires_grad) tensor::Axpy(-1.0f, out->grad, GradFor(bn));
    };
  }
  return Value(out);
}

Value Tape::Hadamard(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out = NewNode(tensor::Hadamard(an->value(), bn->value()),
                                an->requires_grad || bn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, bn] {
      if (an->requires_grad) {
        Matrix partial = tensor::Hadamard(out->grad, bn->value());
        tensor::Axpy(1.0f, partial, GradFor(an));
      }
      if (bn->requires_grad) {
        Matrix partial = tensor::Hadamard(out->grad, an->value());
        tensor::Axpy(1.0f, partial, GradFor(bn));
      }
    };
  }
  return Value(out);
}

Value Tape::Scale(Value a, float s) {
  internal::Node* an = a.node_;
  internal::Node* out =
      NewNode(tensor::Scale(an->value(), s), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, s] { tensor::Axpy(s, out->grad, GradFor(an)); };
  }
  return Value(out);
}

Value Tape::Tanh(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out =
      NewNode(tensor::Tanh(an->value()), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an] {
      Matrix* ga = GradFor(an);
      const Matrix& y = out->value();
      const float* yp = y.data();
      const float* gp = out->grad.data();
      float* gap = ga->data();
      for (size_t i = 0; i < y.size(); ++i) {
        gap[i] += gp[i] * (1.0f - yp[i] * yp[i]);
      }
    };
  }
  return Value(out);
}

Value Tape::Relu(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out =
      NewNode(tensor::Relu(an->value()), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an] {
      Matrix* ga = GradFor(an);
      const float* xp = an->value().data();
      const float* gp = out->grad.data();
      float* gap = ga->data();
      for (size_t i = 0; i < out->value().size(); ++i) {
        if (xp[i] > 0.0f) gap[i] += gp[i];
      }
    };
  }
  return Value(out);
}

Value Tape::LeakyRelu(Value a, float slope) {
  HOSR_CHECK(slope >= 0.0f && slope < 1.0f) << slope;
  internal::Node* an = a.node_;
  Matrix y = an->value();
  float* yp = y.data();
  for (size_t i = 0; i < y.size(); ++i) {
    if (yp[i] < 0.0f) yp[i] *= slope;
  }
  internal::Node* out = NewNode(std::move(y), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, slope] {
      Matrix* ga = GradFor(an);
      const float* xp = an->value().data();
      const float* gp = out->grad.data();
      float* gap = ga->data();
      for (size_t i = 0; i < out->value().size(); ++i) {
        gap[i] += gp[i] * (xp[i] > 0.0f ? 1.0f : slope);
      }
    };
  }
  return Value(out);
}

Value Tape::Sigmoid(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out =
      NewNode(tensor::Sigmoid(an->value()), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an] {
      Matrix* ga = GradFor(an);
      const float* yp = out->value().data();
      const float* gp = out->grad.data();
      float* gap = ga->data();
      for (size_t i = 0; i < out->value().size(); ++i) {
        gap[i] += gp[i] * yp[i] * (1.0f - yp[i]);
      }
    };
  }
  return Value(out);
}

Value Tape::LogSigmoid(Value a) {
  internal::Node* an = a.node_;
  // log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|)), stable for all x.
  Matrix y = an->value();
  float* yp = y.data();
  for (size_t i = 0; i < y.size(); ++i) {
    const float x = yp[i];
    yp[i] = std::min(x, 0.0f) - std::log1p(std::exp(-std::fabs(x)));
  }
  internal::Node* out = NewNode(std::move(y), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an] {
      // d/dx log(sigmoid(x)) = sigmoid(-x).
      Matrix* ga = GradFor(an);
      const float* xp = an->value().data();
      const float* gp = out->grad.data();
      float* gap = ga->data();
      for (size_t i = 0; i < out->value().size(); ++i) {
        gap[i] += gp[i] / (1.0f + std::exp(xp[i]));
      }
    };
  }
  return Value(out);
}

Value Tape::AddRowBroadcast(Value a, Value bias) {
  internal::Node* an = a.node_;
  internal::Node* bn = bias.node_;
  HOSR_CHECK(bn->value().rows() == 1 &&
             bn->value().cols() == an->value().cols())
      << "bias must be (1 x " << an->value().cols() << ")";
  Matrix y = an->value();
  const float* bp = bn->value().data();
  for (size_t r = 0; r < y.rows(); ++r) {
    float* yr = y.row(r);
    for (size_t c = 0; c < y.cols(); ++c) yr[c] += bp[c];
  }
  internal::Node* out =
      NewNode(std::move(y), an->requires_grad || bn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, bn] {
      if (an->requires_grad) tensor::Axpy(1.0f, out->grad, GradFor(an));
      if (bn->requires_grad) {
        Matrix col_sum = tensor::ColSum(out->grad);
        tensor::Axpy(1.0f, col_sum, GradFor(bn));
      }
    };
  }
  return Value(out);
}

Value Tape::BroadcastColMul(Value a, Value s) {
  internal::Node* an = a.node_;
  internal::Node* sn = s.node_;
  internal::Node* out =
      NewNode(tensor::BroadcastColMul(an->value(), sn->value()),
              an->requires_grad || sn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, sn] {
      // One pass over the rows, straight into the gradients:
      // dA_r += s_r * dOut_r and ds_r += dOut_r . A_r.
      const kernels::KernelTable& kern = kernels::Active();
      const Matrix& g = out->grad;
      const size_t cols = g.cols();
      Matrix* ga = an->requires_grad ? GradFor(an) : nullptr;
      Matrix* gs = sn->requires_grad ? GradFor(sn) : nullptr;
      if (ga != nullptr) {
        HOSR_COUNTER("kernels/axpy_flops").Increment(2 * g.size());
      }
      if (gs != nullptr) {
        HOSR_COUNTER("kernels/dot_flops").Increment(2 * g.size());
      }
      for (size_t r = 0; r < g.rows(); ++r) {
        if (ga != nullptr) {
          kern.axpy(cols, sn->value()(r, 0), g.row(r), ga->row(r));
        }
        if (gs != nullptr) {
          (*gs)(r, 0) += kern.dot(cols, g.row(r), an->value().row(r));
        }
      }
    };
  }
  return Value(out);
}

Value Tape::ConcatCols(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  const Matrix& av = an->value();
  const Matrix& bv = bn->value();
  HOSR_CHECK(av.rows() == bv.rows());
  Matrix y(av.rows(), av.cols() + bv.cols());
  for (size_t r = 0; r < av.rows(); ++r) {
    float* yr = y.row(r);
    const float* ar = av.row(r);
    const float* br = bv.row(r);
    std::copy(ar, ar + av.cols(), yr);
    std::copy(br, br + bv.cols(), yr + av.cols());
  }
  internal::Node* out =
      NewNode(std::move(y), an->requires_grad || bn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, bn] {
      const size_t a_cols = an->value().cols();
      const size_t b_cols = bn->value().cols();
      if (an->requires_grad) {
        Matrix* ga = GradFor(an);
        for (size_t r = 0; r < ga->rows(); ++r) {
          const float* gr = out->grad.row(r);
          float* gar = ga->row(r);
          for (size_t c = 0; c < a_cols; ++c) gar[c] += gr[c];
        }
      }
      if (bn->requires_grad) {
        Matrix* gb = GradFor(bn);
        for (size_t r = 0; r < gb->rows(); ++r) {
          const float* gr = out->grad.row(r) + a_cols;
          float* gbr = gb->row(r);
          for (size_t c = 0; c < b_cols; ++c) gbr[c] += gr[c];
        }
      }
    };
  }
  return Value(out);
}

Value Tape::SliceCols(Value a, size_t col_begin, size_t num_cols) {
  internal::Node* an = a.node_;
  const Matrix& av = an->value();
  HOSR_CHECK(col_begin + num_cols <= av.cols())
      << "slice [" << col_begin << ", " << col_begin + num_cols << ") of "
      << av.cols() << " cols";
  Matrix y(av.rows(), num_cols);
  for (size_t r = 0; r < av.rows(); ++r) {
    const float* ar = av.row(r) + col_begin;
    std::copy(ar, ar + num_cols, y.row(r));
  }
  internal::Node* out = NewNode(std::move(y), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, col_begin, num_cols] {
      Matrix* ga = GradFor(an);
      for (size_t r = 0; r < ga->rows(); ++r) {
        const float* gr = out->grad.row(r);
        float* gar = ga->row(r) + col_begin;
        for (size_t c = 0; c < num_cols; ++c) gar[c] += gr[c];
      }
    };
  }
  return Value(out);
}

Value Tape::RowDot(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out = NewNode(tensor::RowDot(an->value(), bn->value()),
                                an->requires_grad || bn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, bn] {
      // dA_r += dOut_r * B_r and dB_r += dOut_r * A_r, straight into the
      // gradients.
      const kernels::KernelTable& kern = kernels::Active();
      const Matrix& g = out->grad;
      const size_t cols = an->value().cols();
      Matrix* ga = an->requires_grad ? GradFor(an) : nullptr;
      Matrix* gb = bn->requires_grad ? GradFor(bn) : nullptr;
      if (ga != nullptr) {
        HOSR_COUNTER("kernels/axpy_flops").Increment(2 * an->value().size());
      }
      if (gb != nullptr) {
        HOSR_COUNTER("kernels/axpy_flops").Increment(2 * bn->value().size());
      }
      for (size_t r = 0; r < g.rows(); ++r) {
        if (ga != nullptr) {
          kern.axpy(cols, g(r, 0), bn->value().row(r), ga->row(r));
        }
        if (gb != nullptr) {
          kern.axpy(cols, g(r, 0), an->value().row(r), gb->row(r));
        }
      }
    };
  }
  return Value(out);
}

Value Tape::RowSoftmax(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out =
      NewNode(tensor::RowSoftmax(an->value()), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an] {
      // dx_rc = s_rc * (g_rc - sum_j g_rj s_rj).
      Matrix* ga = GradFor(an);
      const Matrix& s = out->value();
      const Matrix& g = out->grad;
      for (size_t r = 0; r < s.rows(); ++r) {
        const float* sr = s.row(r);
        const float* gr = g.row(r);
        float* gar = ga->row(r);
        float dot = 0.0f;
        for (size_t c = 0; c < s.cols(); ++c) dot += gr[c] * sr[c];
        for (size_t c = 0; c < s.cols(); ++c) {
          gar[c] += sr[c] * (gr[c] - dot);
        }
      }
    };
  }
  return Value(out);
}

namespace {

void CheckSegmentOffsets(const std::vector<size_t>& offsets, size_t total) {
  HOSR_CHECK(offsets.size() >= 2) << "need at least one segment";
  HOSR_CHECK(offsets.front() == 0 && offsets.back() == total)
      << "offsets must span [0, " << total << "]";
  for (size_t s = 1; s < offsets.size(); ++s) {
    HOSR_CHECK(offsets[s - 1] <= offsets[s]) << "offsets must be ascending";
  }
}

}  // namespace

Value Tape::SegmentSoftmax(Value scores, std::vector<size_t> offsets) {
  internal::Node* an = scores.node_;
  const Matrix& x = an->value();
  HOSR_CHECK(x.cols() == 1) << "SegmentSoftmax expects an (E x 1) column";
  CheckSegmentOffsets(offsets, x.rows());

  Matrix y(x.rows(), 1);
  const size_t num_segments = offsets.size() - 1;
  for (size_t s = 0; s < num_segments; ++s) {
    const size_t begin = offsets[s];
    const size_t end = offsets[s + 1];
    if (begin == end) continue;
    float max_val = x(begin, 0);
    for (size_t e = begin + 1; e < end; ++e) {
      max_val = std::max(max_val, x(e, 0));
    }
    float denom = 0.0f;
    for (size_t e = begin; e < end; ++e) {
      y(e, 0) = std::exp(x(e, 0) - max_val);
      denom += y(e, 0);
    }
    const float inv = 1.0f / denom;
    for (size_t e = begin; e < end; ++e) y(e, 0) *= inv;
  }
  internal::Node* out = NewNode(std::move(y), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, offsets = std::move(offsets)] {
      // Per segment: dx_e = s_e * (g_e - sum_j g_j s_j).
      Matrix* ga = GradFor(an);
      const Matrix& s_val = out->value();
      const Matrix& g = out->grad;
      for (size_t s = 0; s + 1 < offsets.size(); ++s) {
        const size_t begin = offsets[s];
        const size_t end = offsets[s + 1];
        float dot = 0.0f;
        for (size_t e = begin; e < end; ++e) dot += g(e, 0) * s_val(e, 0);
        for (size_t e = begin; e < end; ++e) {
          (*ga)(e, 0) += s_val(e, 0) * (g(e, 0) - dot);
        }
      }
    };
  }
  return Value(out);
}

Value Tape::SegmentWeightedSum(Value alpha, Value feats,
                               std::vector<size_t> offsets) {
  internal::Node* alpha_node = alpha.node_;
  internal::Node* feats_node = feats.node_;
  const Matrix& a_val = alpha_node->value();
  const Matrix& f_val = feats_node->value();
  HOSR_CHECK(a_val.cols() == 1) << "alpha must be (E x 1)";
  HOSR_CHECK(a_val.rows() == f_val.rows())
      << a_val.rows() << " vs " << f_val.rows();
  CheckSegmentOffsets(offsets, a_val.rows());

  const size_t num_segments = offsets.size() - 1;
  const size_t d = f_val.cols();
  Matrix y(num_segments, d);
  for (size_t s = 0; s < num_segments; ++s) {
    float* out_row = y.row(s);
    for (size_t e = offsets[s]; e < offsets[s + 1]; ++e) {
      const float w = a_val(e, 0);
      const float* fr = f_val.row(e);
      for (size_t c = 0; c < d; ++c) out_row[c] += w * fr[c];
    }
  }
  internal::Node* out =
      NewNode(std::move(y),
              alpha_node->requires_grad || feats_node->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, alpha_node, feats_node,
                     offsets = std::move(offsets)] {
      const Matrix& a_v = alpha_node->value();
      const Matrix& f_v = feats_node->value();
      const size_t dim = f_v.cols();
      Matrix* ga = alpha_node->requires_grad ? GradFor(alpha_node) : nullptr;
      Matrix* gf = feats_node->requires_grad ? GradFor(feats_node) : nullptr;
      for (size_t s = 0; s + 1 < offsets.size(); ++s) {
        const float* grad_row = out->grad.row(s);
        for (size_t e = offsets[s]; e < offsets[s + 1]; ++e) {
          if (ga != nullptr) {
            const float* fr = f_v.row(e);
            float acc = 0.0f;
            for (size_t c = 0; c < dim; ++c) acc += grad_row[c] * fr[c];
            (*ga)(e, 0) += acc;
          }
          if (gf != nullptr) {
            const float w = a_v(e, 0);
            float* gfr = gf->row(e);
            for (size_t c = 0; c < dim; ++c) gfr[c] += w * grad_row[c];
          }
        }
      }
    };
  }
  return Value(out);
}

Value Tape::Dropout(Value a, float p, bool training, util::Rng* rng) {
  internal::Node* an = a.node_;
  if (!training || p <= 0.0f) return a;
  HOSR_CHECK(p < 1.0f) << "dropout probability must be < 1";
  HOSR_CHECK(rng != nullptr);
  const float keep_scale = 1.0f / (1.0f - p);
  Matrix mask(an->value().rows(), an->value().cols());
  float* mp = mask.data();
  for (size_t i = 0; i < mask.size(); ++i) {
    mp[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
  }
  internal::Node* out = NewNode(tensor::Hadamard(an->value(), mask),
                                an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, mask = std::move(mask)] {
      Matrix partial = tensor::Hadamard(out->grad, mask);
      tensor::Axpy(1.0f, partial, GradFor(an));
    };
  }
  return Value(out);
}

Value Tape::Mean(Value a) {
  internal::Node* an = a.node_;
  Matrix y(1, 1);
  y(0, 0) = static_cast<float>(tensor::Mean(an->value()));
  internal::Node* out = NewNode(std::move(y), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an] {
      Matrix* ga = GradFor(an);
      const float g = out->grad(0, 0) / static_cast<float>(ga->size());
      float* gap = ga->data();
      for (size_t i = 0; i < ga->size(); ++i) gap[i] += g;
    };
  }
  return Value(out);
}

Value Tape::Sum(Value a) {
  internal::Node* an = a.node_;
  Matrix y(1, 1);
  y(0, 0) = static_cast<float>(tensor::Sum(an->value()));
  internal::Node* out = NewNode(std::move(y), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an] {
      Matrix* ga = GradFor(an);
      const float g = out->grad(0, 0);
      float* gap = ga->data();
      for (size_t i = 0; i < ga->size(); ++i) gap[i] += g;
    };
  }
  return Value(out);
}

void Tape::Backward(Value loss) {
  internal::Node* loss_node = loss.node_;
  HOSR_CHECK(loss_node != nullptr);
  HOSR_CHECK(loss_node->value().rows() == 1 &&
             loss_node->value().cols() == 1)
      << "Backward requires a scalar (1x1) loss";
  HOSR_CHECK(loss_node->requires_grad)
      << "loss does not depend on any parameter";
  Matrix* g = GradFor(loss_node);
  (*g)(0, 0) += 1.0f;
  // Creation order is a topological order, so a single reverse sweep
  // propagates complete gradients.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    internal::Node* node = it->get();
    if (node->grad_live && node->backward) node->backward();
  }
}

void Tape::BackwardSeeded(std::vector<std::pair<Value, Matrix>> seeds) {
  for (auto& seed : seeds) {
    internal::Node* node = seed.first.node_;
    HOSR_CHECK(node != nullptr && node->requires_grad);
    HOSR_CHECK(!node->grad_live) << "seeded node already has a gradient";
    HOSR_CHECK(seed.second.rows() == node->value().rows() &&
               seed.second.cols() == node->value().cols())
        << "seed shape mismatch";
    node->grad = std::move(seed.second);
    node->grad_live = true;
  }
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    internal::Node* node = it->get();
    if (node->grad_live && node->backward) node->backward();
  }
}

}  // namespace hosr::autograd
