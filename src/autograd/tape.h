#ifndef HOSR_AUTOGRAD_TAPE_H_
#define HOSR_AUTOGRAD_TAPE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "autograd/param.h"
#include "graph/csr.h"
#include "tensor/matrix.h"
#include "util/random.h"

namespace hosr::autograd {

// The rows one parameter's gradient received from a backward pass: the
// record a row-sparse optimizer step plans from (docs/PERFORMANCE.md
// "Sparse optimizer steps"). GatherRows over a Param leaf scatter-adds
// straight into Param::grad and appends its indices to `rows`. A parameter
// is `dense` once any of its leaves receives a gradient from another op,
// since that gradient may cover every row.
struct ParamGradRows {
  Param* param = nullptr;
  bool dense = false;
  std::vector<uint32_t> rows;  // scatter order, may repeat
};

namespace internal {

// One recorded operation. Nodes are heap-allocated so pointers stay stable
// while the tape grows; Value handles wrap these pointers.
struct Node {
  // Interior nodes own their value; Param leaves alias the Param's matrix.
  tensor::Matrix owned_value;
  const tensor::Matrix* value_ptr = nullptr;
  tensor::Matrix grad;          // allocated by the first contribution
  bool grad_live = false;       // true once GradFor has allocated grad
  bool requires_grad = false;
  Param* param = nullptr;       // set for Param leaves
  // Contributes input gradients given this node's complete gradient.
  std::function<void()> backward;

  const tensor::Matrix& value() const { return *value_ptr; }
};

}  // namespace internal

// Lightweight handle to a tape node; valid for the tape's lifetime.
class Value {
 public:
  Value() : node_(nullptr) {}

  // False for a default-constructed handle, which names no node.
  bool defined() const { return node_ != nullptr; }
  const tensor::Matrix& value() const { return node_->value(); }
  size_t rows() const { return node_->value().rows(); }
  size_t cols() const { return node_->value().cols(); }

 private:
  friend class Tape;
  explicit Value(internal::Node* node) : node_(node) {}
  internal::Node* node_;
};

// Reverse-mode automatic differentiation over Matrix values.
//
// Usage per training step:
//   Tape tape;
//   Value u = tape.Param(user_embeddings);
//   ... build the forward graph ...
//   Value loss = tape.Mean(...);            // scalar (1x1)
//   tape.Backward(loss);                    // accumulates into Param::grad
//
// Param::grad *accumulates* across Backward calls until an optimizer step
// (which leaves every gradient it stepped at zero) or ParamStore::ZeroGrad.
// Inside one pass, the first contribution to an interior node's gradient
// assigns it and later ones add (Tape::GradFor); only ops that write part
// of a gradient start from zeros. All shape mismatches abort (programming
// errors).
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // --- Leaves ---------------------------------------------------------

  // Trainable leaf aliasing `param->value`; Backward adds to `param->grad`.
  Value Param(autograd::Param* param);

  // Non-trainable leaf (moves the matrix in).
  Value Constant(tensor::Matrix m);

  // --- Linear algebra --------------------------------------------------

  // (n x k) * (k x m) -> (n x m).
  Value MatMul(Value a, Value b);

  // sparse (r x c) times dense (c x d) -> (r x d): SpMMRows over all rows.
  Value SpMM(const graph::CsrMatrix* matrix, const graph::CsrMatrix* transpose,
             Value dense);

  // Rows `rows` of matrix * dense -> (rows.size() x d), or all r rows when
  // `rows` is std::nullopt. `rows` must be strictly ascending (checked).
  // `transpose` must be the CSR transpose of `matrix` (pass the same
  // pointer when symmetric); the backward pass reads its rows in place,
  // dropping the columns outside `rows` through a remap, so nothing is
  // built per call. Both must outlive the tape. The tape only borrows these
  // pointers: build the transpose ONCE per graph (models cache it as a
  // member next to the forward operator) and share it across every epoch,
  // layer, and backward call — never rebuild it per step. The
  // spmm/transpose_builds counter audits this: it must stay flat during
  // training (tests/hosr_test.cc TransposeBuiltOncePerGraph).
  Value SpMMRows(const graph::CsrMatrix* matrix,
                 const graph::CsrMatrix* transpose,
                 std::optional<std::vector<uint32_t>> rows, Value dense);

  // out(i, :) = a(indices[i], :). Backward scatter-adds; over a Param
  // leaf it adds straight into Param::grad and records the rows.
  Value GatherRows(Value a, std::vector<uint32_t> indices);

  // --- Element-wise ----------------------------------------------------

  Value Add(Value a, Value b);
  Value Sub(Value a, Value b);
  Value Hadamard(Value a, Value b);
  Value Scale(Value a, float s);
  Value Tanh(Value a);
  Value Relu(Value a);
  // max(x, slope * x) with slope in [0, 1) (GAT's edge-score activation).
  Value LeakyRelu(Value a, float slope = 0.2f);
  // Numerically stable log(sigmoid(x)).
  Value LogSigmoid(Value a);

  // --- Broadcast / shape ops -------------------------------------------

  // a (n x d) + bias (1 x d), bias broadcast over rows.
  Value AddRowBroadcast(Value a, Value bias);

  // a (n x d) scaled per-row by s (n x 1).
  Value BroadcastColMul(Value a, Value s);

  // Column-wise concatenation: (n x d1), (n x d2) -> (n x (d1 + d2)).
  Value ConcatCols(Value a, Value b);

  // Columns [col_begin, col_begin + num_cols) of a -> (n x num_cols).
  Value SliceCols(Value a, size_t col_begin, size_t num_cols);

  // Row-wise dot product of equally shaped (n x d) -> (n x 1).
  Value RowDot(Value a, Value b);

  // Numerically-stable softmax along each row of (n x k).
  Value RowSoftmax(Value a);

  // --- Ragged (per-edge) ops for graph attention -------------------------

  // Softmax within each contiguous segment of an (E x 1) column: entries
  // [offsets[s], offsets[s+1]) form segment s. offsets.front() must be 0
  // and offsets.back() == E. Empty segments are allowed.
  Value SegmentSoftmax(Value scores, std::vector<size_t> offsets);

  // out(s, :) = sum over e in segment s of alpha(e, 0) * feats(e, :).
  // alpha is (E x 1), feats is (E x d), result is (num_segments x d) where
  // num_segments == offsets.size() - 1.
  Value SegmentWeightedSum(Value alpha, Value feats,
                           std::vector<size_t> offsets);

  // --- Regularization / reductions -------------------------------------

  // Inverted dropout: keeps entries with prob (1-p), scaling by 1/(1-p).
  // Identity when `training` is false or p == 0.
  Value Dropout(Value a, float p, bool training, util::Rng* rng);

  // Mean over all entries -> (1 x 1).
  Value Mean(Value a);

  // Sum over all entries -> (1 x 1).
  Value Sum(Value a);

  // --- Differentiation --------------------------------------------------

  // Seeds d(loss)/d(loss) = 1 (loss must be 1x1) and runs the reverse
  // sweep, accumulating into every reachable Param's grad.
  void Backward(Value loss);

  // Parameters the backward passes wrote gradients into, in the order
  // they were first written.
  const std::vector<ParamGradRows>& grad_rows() const { return grad_rows_; }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  internal::Node* NewNode(tensor::Matrix value, bool requires_grad);
  ParamGradRows& GradRowsFor(autograd::Param* param);

  // One backward contribution's view of a node's gradient. The first
  // contribution gets uninitialised storage and `assign` set, and must
  // write every element; later ones get `assign` clear and add.
  struct GradSlot {
    tensor::Matrix* grad;
    bool assign;
  };
  static GradSlot GradFor(internal::Node* node);

  // For ops that write only part of a gradient: zero-filled on first use.
  static tensor::Matrix* ZeroedGradFor(internal::Node* node);

  std::vector<std::unique_ptr<internal::Node>> nodes_;
  std::vector<ParamGradRows> grad_rows_;
};

}  // namespace hosr::autograd

#endif  // HOSR_AUTOGRAD_TAPE_H_
