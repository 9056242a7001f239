#include "autograd/gradcheck.h"

#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace hosr::autograd {

namespace {

double EvalLoss(const std::function<Value(Tape*)>& build_loss) {
  Tape tape;
  Value loss = build_loss(&tape);
  HOSR_CHECK(loss.rows() == 1 && loss.cols() == 1);
  return loss.value()(0, 0);
}

}  // namespace

GradCheckResult CheckGradients(const std::function<Value(Tape*)>& build_loss,
                               const std::vector<Param*>& params, double eps,
                               double tolerance, double zero_tol) {
  GradCheckResult result;

  // Analytic gradients.
  for (Param* p : params) p->grad.SetZero();
  {
    Tape tape;
    Value loss = build_loss(&tape);
    tape.Backward(loss);
  }

  for (Param* p : params) {
    for (size_t r = 0; r < p->value.rows(); ++r) {
      for (size_t c = 0; c < p->value.cols(); ++c) {
        const float original = p->value(r, c);
        p->value(r, c) = original + static_cast<float>(eps);
        const double loss_plus = EvalLoss(build_loss);
        p->value(r, c) = original - static_cast<float>(eps);
        const double loss_minus = EvalLoss(build_loss);
        p->value(r, c) = original;

        const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
        const double analytic = p->grad(r, c);
        if (std::fabs(numeric) < zero_tol && std::fabs(analytic) < zero_tol) {
          continue;
        }
        const double denom =
            std::max({std::fabs(numeric), std::fabs(analytic), 1e-8});
        double rel_error = std::fabs(numeric - analytic) / denom;
        // A NaN on either side fails the check rather than slipping past
        // the comparisons below.
        if (std::isnan(rel_error)) {
          rel_error = std::numeric_limits<double>::infinity();
        }
        if (rel_error > result.max_relative_error) {
          result.max_relative_error = rel_error;
          result.worst_entry =
              util::StrFormat("%s[%zu,%zu] analytic=%.6g numeric=%.6g",
                              p->name.c_str(), r, c, analytic, numeric);
        }
        if (rel_error > tolerance) result.passed = false;
      }
    }
  }
  return result;
}

}  // namespace hosr::autograd
