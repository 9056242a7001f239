#include "autograd/tape.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/spmm.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace hosr::autograd {

using tensor::Matrix;

namespace {

// grad = term(i) element-wise for a first contribution, grad += term(i)
// for a later one. Assigning x writes what 0 + x wrote into a zero-filled
// gradient, up to the sign of an exact zero.
template <typename Term>
void Contribute(bool assign, Matrix* grad, Term term) {
  float* out = grad->data();
  const size_t n = grad->size();
  if (assign) {
    for (size_t i = 0; i < n; ++i) out[i] = term(i);
  } else {
    for (size_t i = 0; i < n; ++i) out[i] += term(i);
  }
}

// grad (+)= alpha * g: a copy or a scaled copy for a first contribution,
// an axpy for a later one.
void ContributeScaled(bool assign, float alpha, const Matrix& g,
                      Matrix* grad) {
  if (!assign) {
    tensor::Axpy(alpha, g, grad);
  } else if (alpha == 1.0f) {
    std::copy_n(g.data(), g.size(), grad->data());
  } else {
    const float* gp = g.data();
    Contribute(true, grad, [gp, alpha](size_t i) { return alpha * gp[i]; });
  }
}

// grad (+)= g * x element-wise. The product is rounded, then the sum, as
// with a Hadamard partial added by Axpy.
void ContributeProduct(bool assign, const Matrix& g, const Matrix& x,
                       Matrix* grad) {
  const float* gp = g.data();
  const float* xp = x.data();
  Contribute(assign, grad, [gp, xp](size_t i) { return gp[i] * xp[i]; });
}

}  // namespace

internal::Node* Tape::NewNode(Matrix value, bool requires_grad) {
  auto node = std::make_unique<internal::Node>();
  node->owned_value = std::move(value);
  node->value_ptr = &node->owned_value;
  node->requires_grad = requires_grad;
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

ParamGradRows& Tape::GradRowsFor(autograd::Param* param) {
  for (ParamGradRows& written : grad_rows_) {
    if (written.param == param) return written;
  }
  ParamGradRows& written = grad_rows_.emplace_back();
  written.param = param;
  return written;
}

Tape::GradSlot Tape::GradFor(internal::Node* node) {
  const bool assign = !node->grad_live;
  if (assign) {
    node->grad =
        Matrix::Uninitialized(node->value().rows(), node->value().cols());
    node->grad_live = true;
  }
  return {&node->grad, assign};
}

Matrix* Tape::ZeroedGradFor(internal::Node* node) {
  const GradSlot slot = GradFor(node);
  if (slot.assign) slot.grad->SetZero();
  return slot.grad;
}

Value Tape::Param(autograd::Param* param) {
  internal::Node* leaf = NewNode(Matrix(), /*requires_grad=*/true);
  leaf->value_ptr = &param->value;
  leaf->param = param;
  // Runs only when an op other than GatherRows gave the leaf a gradient.
  leaf->backward = [this, leaf] {
    tensor::Axpy(1.0f, leaf->grad, &leaf->param->grad);
    GradRowsFor(leaf->param).dense = true;
  };
  return Value(leaf);
}

Value Tape::Constant(Matrix m) {
  return Value(NewNode(std::move(m), /*requires_grad=*/false));
}

Value Tape::MatMul(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out = NewNode(tensor::MatMul(an->value(), bn->value()),
                                an->requires_grad || bn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, bn] {
      if (an->requires_grad) {
        // dA (+)= dOut * B^T through the NN tiles against a transposed copy
        // of B (the d x d weight), rather than the dot-per-element NT path.
        const GradSlot ga = GradFor(an);
        tensor::Gemm(out->grad, false, tensor::Transpose(bn->value()), false,
                     1.0f, ga.assign ? 0.0f : 1.0f, ga.grad);
      }
      if (bn->requires_grad) {
        const GradSlot gb = GradFor(bn);
        tensor::Gemm(an->value(), true, out->grad, false, 1.0f,
                     gb.assign ? 0.0f : 1.0f, gb.grad);
      }
    };
  }
  return Value(out);
}

Value Tape::SpMM(const graph::CsrMatrix* matrix,
                 const graph::CsrMatrix* transpose, Value dense) {
  return SpMMRows(matrix, transpose, std::nullopt, dense);
}

Value Tape::SpMMRows(const graph::CsrMatrix* matrix,
                     const graph::CsrMatrix* transpose,
                     std::optional<std::vector<uint32_t>> rows, Value dense) {
  HOSR_CHECK(matrix != nullptr && transpose != nullptr);
  HOSR_CHECK(transpose->num_rows() == matrix->num_cols() &&
             transpose->num_cols() == matrix->num_rows())
      << "transpose shape mismatch";
  if (rows.has_value()) {
    for (size_t i = 1; i < rows->size(); ++i) {
      HOSR_CHECK((*rows)[i - 1] < (*rows)[i])
          << "rows must be strictly ascending at " << i;
    }
  }
  internal::Node* dn = dense.node_;
  Matrix value = Matrix::Uninitialized(
      rows.has_value() ? rows->size() : matrix->num_rows(),
      dn->value().cols());
  graph::SpmmInto(*matrix, dn->value(), &value, /*accumulate=*/false,
                  rows.has_value() ? &*rows : nullptr);
  internal::Node* out = NewNode(std::move(value), dn->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, dn, transpose, rows = std::move(rows)] {
      // d(dense) = matrix[rows, :]^T * d(out): the transpose's rows, each
      // column r read from out's gradient row remap[r] or dropped.
      std::vector<int32_t> remap;
      if (rows.has_value()) {
        remap.assign(transpose->num_cols(), -1);
        for (size_t i = 0; i < rows->size(); ++i) {
          remap[(*rows)[i]] = static_cast<int32_t>(i);
        }
      }
      const GradSlot gd = GradFor(dn);
      graph::SpmmInto(*transpose, out->grad, gd.grad, !gd.assign,
                      /*rows=*/nullptr, rows.has_value() ? &remap : nullptr);
    };
  }
  return Value(out);
}

Value Tape::GatherRows(Value a, std::vector<uint32_t> indices) {
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(tensor::GatherRows(an->value(), indices),
                                an->requires_grad);
  if (an->param != nullptr) {
    // The rows go straight into Param::grad, so a gather-only parameter
    // never gets a dense leaf gradient, and are recorded for sparse steps.
    out->backward = [this, out, param = an->param,
                     indices = std::move(indices)] {
      tensor::ScatterAddRows(out->grad, indices, &param->grad);
      std::vector<uint32_t>& rows = GradRowsFor(param).rows;
      rows.insert(rows.end(), indices.begin(), indices.end());
    };
  } else if (out->requires_grad) {
    out->backward = [out, an, indices = std::move(indices)] {
      tensor::ScatterAddRows(out->grad, indices, ZeroedGradFor(an));
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
      if (an->requires_grad) {
        const GradSlot ga = GradFor(an);
        ContributeScaled(ga.assign, 1.0f, out->grad, ga.grad);
      }
      if (bn->requires_grad) {
        const GradSlot gb = GradFor(bn);
        ContributeScaled(gb.assign, 1.0f, out->grad, gb.grad);
      }
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
      if (an->requires_grad) {
        const GradSlot ga = GradFor(an);
        ContributeScaled(ga.assign, 1.0f, out->grad, ga.grad);
      }
      if (bn->requires_grad) {
        const GradSlot gb = GradFor(bn);
        ContributeScaled(gb.assign, -1.0f, out->grad, gb.grad);
      }
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
        const GradSlot ga = GradFor(an);
        ContributeProduct(ga.assign, out->grad, bn->value(), ga.grad);
      }
      if (bn->requires_grad) {
        const GradSlot gb = GradFor(bn);
        ContributeProduct(gb.assign, out->grad, an->value(), gb.grad);
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
    out->backward = [out, an, s] {
      const GradSlot ga = GradFor(an);
      ContributeScaled(ga.assign, s, out->grad, ga.grad);
    };
  }
  return Value(out);
}

Value Tape::Tanh(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out =
      NewNode(tensor::Tanh(an->value()), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an] {
      const GradSlot ga = GradFor(an);
      const float* yp = out->value().data();
      const float* gp = out->grad.data();
      Contribute(ga.assign, ga.grad, [yp, gp](size_t i) {
        return gp[i] * (1.0f - yp[i] * yp[i]);
      });
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
      const GradSlot ga = GradFor(an);
      const float* xp = an->value().data();
      const float* gp = out->grad.data();
      float* gap = ga.grad->data();
      const size_t n = out->value().size();
      if (ga.assign) {
        for (size_t i = 0; i < n; ++i) gap[i] = xp[i] > 0.0f ? gp[i] : 0.0f;
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (xp[i] > 0.0f) gap[i] += gp[i];
        }
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
      const GradSlot ga = GradFor(an);
      const float* xp = an->value().data();
      const float* gp = out->grad.data();
      Contribute(ga.assign, ga.grad, [xp, gp, slope](size_t i) {
        return gp[i] * (xp[i] > 0.0f ? 1.0f : slope);
      });
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
      const GradSlot ga = GradFor(an);
      const float* xp = an->value().data();
      const float* gp = out->grad.data();
      Contribute(ga.assign, ga.grad, [xp, gp](size_t i) {
        return gp[i] / (1.0f + std::exp(xp[i]));
      });
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
      if (an->requires_grad) {
        const GradSlot ga = GradFor(an);
        ContributeScaled(ga.assign, 1.0f, out->grad, ga.grad);
      }
      if (bn->requires_grad) {
        const GradSlot gb = GradFor(bn);
        ContributeScaled(gb.assign, 1.0f, tensor::ColSum(out->grad), gb.grad);
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
      // dA_r (+)= s_r * dOut_r and ds_r (+)= dOut_r . A_r. A first
      // contribution zeroes each row of dA just before its axpy.
      const kernels::KernelTable& kern = kernels::Active();
      const Matrix& g = out->grad;
      const size_t cols = g.cols();
      const GradSlot ga = an->requires_grad ? GradFor(an) : GradSlot{};
      const GradSlot gs = sn->requires_grad ? GradFor(sn) : GradSlot{};
      if (ga.grad != nullptr) {
        HOSR_COUNTER("kernels/axpy_flops").Increment(2 * g.size());
      }
      if (gs.grad != nullptr) {
        HOSR_COUNTER("kernels/dot_flops").Increment(2 * g.size());
      }
      for (size_t r = 0; r < g.rows(); ++r) {
        if (ga.grad != nullptr) {
          float* ga_row = ga.grad->row(r);
          if (ga.assign) std::fill_n(ga_row, cols, 0.0f);
          kern.axpy(cols, sn->value()(r, 0), g.row(r), ga_row);
        }
        if (gs.grad != nullptr) {
          const float d = kern.dot(cols, g.row(r), an->value().row(r));
          float& gs_r = (*gs.grad)(r, 0);
          gs_r = gs.assign ? d : gs_r + d;
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
  Matrix y = Matrix::Uninitialized(av.rows(), av.cols() + bv.cols());
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
      // Each input's gradient is a column block of dOut.
      const auto contribute_cols = [out](internal::Node* in, size_t begin,
                                         size_t num_cols) {
        const GradSlot gi = GradFor(in);
        for (size_t r = 0; r < gi.grad->rows(); ++r) {
          const float* gr = out->grad.row(r) + begin;
          float* gir = gi.grad->row(r);
          if (gi.assign) {
            std::copy_n(gr, num_cols, gir);
          } else {
            for (size_t c = 0; c < num_cols; ++c) gir[c] += gr[c];
          }
        }
      };
      if (an->requires_grad) contribute_cols(an, 0, a_cols);
      if (bn->requires_grad) contribute_cols(bn, a_cols, b_cols);
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
  Matrix y = Matrix::Uninitialized(av.rows(), num_cols);
  for (size_t r = 0; r < av.rows(); ++r) {
    const float* ar = av.row(r) + col_begin;
    std::copy(ar, ar + num_cols, y.row(r));
  }
  internal::Node* out = NewNode(std::move(y), an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, col_begin, num_cols] {
      Matrix* ga = ZeroedGradFor(an);
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
      // dA_r (+)= dOut_r * B_r and dB_r (+)= dOut_r * A_r, straight into
      // the gradients. A first contribution zeroes each row just before its
      // axpy.
      const kernels::KernelTable& kern = kernels::Active();
      const Matrix& g = out->grad;
      const size_t cols = an->value().cols();
      const GradSlot ga = an->requires_grad ? GradFor(an) : GradSlot{};
      const GradSlot gb = bn->requires_grad ? GradFor(bn) : GradSlot{};
      if (ga.grad != nullptr) {
        HOSR_COUNTER("kernels/axpy_flops").Increment(2 * an->value().size());
      }
      if (gb.grad != nullptr) {
        HOSR_COUNTER("kernels/axpy_flops").Increment(2 * bn->value().size());
      }
      const auto axpy_row = [&](const GradSlot& slot, const float* x,
                                size_t r) {
        float* row = slot.grad->row(r);
        if (slot.assign) std::fill_n(row, cols, 0.0f);
        kern.axpy(cols, g(r, 0), x, row);
      };
      for (size_t r = 0; r < g.rows(); ++r) {
        if (ga.grad != nullptr) axpy_row(ga, bn->value().row(r), r);
        if (gb.grad != nullptr) axpy_row(gb, an->value().row(r), r);
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
      const GradSlot ga = GradFor(an);
      const Matrix& s = out->value();
      const Matrix& g = out->grad;
      for (size_t r = 0; r < s.rows(); ++r) {
        const float* sr = s.row(r);
        const float* gr = g.row(r);
        float* gar = ga.grad->row(r);
        float dot = 0.0f;
        for (size_t c = 0; c < s.cols(); ++c) dot += gr[c] * sr[c];
        for (size_t c = 0; c < s.cols(); ++c) {
          const float dx = sr[c] * (gr[c] - dot);
          gar[c] = ga.assign ? dx : gar[c] + dx;
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

  // Every entry lies in exactly one segment, so y is written in full.
  Matrix y = Matrix::Uninitialized(x.rows(), 1);
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
      // Per segment: dx_e = s_e * (g_e - sum_j g_j s_j). The segments cover
      // every entry, so a first contribution assigns.
      const GradSlot ga = GradFor(an);
      const Matrix& s_val = out->value();
      const Matrix& g = out->grad;
      for (size_t s = 0; s + 1 < offsets.size(); ++s) {
        const size_t begin = offsets[s];
        const size_t end = offsets[s + 1];
        float dot = 0.0f;
        for (size_t e = begin; e < end; ++e) dot += g(e, 0) * s_val(e, 0);
        for (size_t e = begin; e < end; ++e) {
          const float dx = s_val(e, 0) * (g(e, 0) - dot);
          float& v = (*ga.grad)(e, 0);
          v = ga.assign ? dx : v + dx;
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
      // The segments cover every edge, so a first contribution assigns.
      // Edge e's alpha entry is written before its feature row, which keeps
      // this right when alpha and feats are one (E x 1) node.
      const GradSlot ga =
          alpha_node->requires_grad ? GradFor(alpha_node) : GradSlot{};
      const GradSlot gf =
          feats_node->requires_grad ? GradFor(feats_node) : GradSlot{};
      for (size_t s = 0; s + 1 < offsets.size(); ++s) {
        const float* grad_row = out->grad.row(s);
        for (size_t e = offsets[s]; e < offsets[s + 1]; ++e) {
          if (ga.grad != nullptr) {
            const float* fr = f_v.row(e);
            float acc = 0.0f;
            for (size_t c = 0; c < dim; ++c) acc += grad_row[c] * fr[c];
            float& v = (*ga.grad)(e, 0);
            v = ga.assign ? acc : v + acc;
          }
          if (gf.grad != nullptr) {
            const float w = a_v(e, 0);
            float* gfr = gf.grad->row(e);
            for (size_t c = 0; c < dim; ++c) {
              const float dx = w * grad_row[c];
              gfr[c] = gf.assign ? dx : gfr[c] + dx;
            }
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
  Matrix mask =
      Matrix::Uninitialized(an->value().rows(), an->value().cols());
  float* mp = mask.data();
  for (size_t i = 0; i < mask.size(); ++i) {
    mp[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
  }
  internal::Node* out = NewNode(tensor::Hadamard(an->value(), mask),
                                an->requires_grad);
  if (out->requires_grad) {
    out->backward = [out, an, mask = std::move(mask)] {
      const GradSlot ga = GradFor(an);
      ContributeProduct(ga.assign, out->grad, mask, ga.grad);
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
      const GradSlot ga = GradFor(an);
      const float g = out->grad(0, 0) / static_cast<float>(ga.grad->size());
      Contribute(ga.assign, ga.grad, [g](size_t) { return g; });
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
      const GradSlot ga = GradFor(an);
      const float g = out->grad(0, 0);
      Contribute(ga.assign, ga.grad, [g](size_t) { return g; });
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
  const GradSlot seed = GradFor(loss_node);
  float& g = (*seed.grad)(0, 0);
  g = seed.assign ? 1.0f : g + 1.0f;
  // Creation order is a topological order, so a single reverse sweep
  // propagates complete gradients.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    internal::Node* node = it->get();
    if (node->grad_live && node->backward) node->backward();
  }
}

}  // namespace hosr::autograd
