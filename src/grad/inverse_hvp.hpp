// w ~ H^{-1} v for the bilevel hypergradient (paper Sec. 3.2), H =
// d2Lso/dthetaJ^2 applied only as hvp(x, out) (out resized as needed):
// Neumann (Eq. 16; FD, Eq. 13, is K = 0) or CG (Eqs. 17-18).  Buffers are
// members, so a reused solver sizes them once and a warmed solve
// allocates nothing.  In-place updates keep the grid operators' float
// expressions (x + s * y as in axpy): results equal theirs bitwise.
#ifndef BISMO_GRAD_INVERSE_HVP_HPP
#define BISMO_GRAD_INVERSE_HVP_HPP

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/grid_ops.hpp"

namespace bismo {

/// Why a solve stopped.
enum class SolveExit {
  kBudget,     ///< used all K terms / iterations
  kConverged,  ///< CG: ||b - A w|| / ||b|| <= tol
  kCurvature,  ///< CG: p^T A p <= 0 or non-finite; w is the last iterate
  kDiverged,   ///< Neumann: a term grew past 1.5 ||v||; w is the partial sum
};

struct SolveReport {
  SolveExit exit = SolveExit::kBudget;
  int iterations = 0;     ///< Neumann terms past k = 0 / CG steps taken
  double residual = 0.0;  ///< CG: ||b - A w||; Neumann: norm of the last term
};

class InverseHvp {
 public:
  /// w = alpha * sum_{k<=terms} (I - alpha H)^k v (w not aliasing v), with
  /// xi capped at 0.9 ||v|| / ||Hv|| as alpha so ||I - alpha H|| < 1 (Lemma
  /// 2) holds along v: the sum-scaled loss makes xi * H >> 1 (ref. [14]
  /// scales alike).  A term past 1.5 ||v|| (H not positive) ends the sum.
  template <typename Hvp>
  SolveReport neumann(Hvp&& hvp, const RealGrid& v, double xi, int terms,
                      RealGrid& w) {
    hvp(v, hv_);
    const double vn = norm2(v);
    const double hvn = norm2(hv_);
    const double alpha =
        vn < 1e-30 || hvn < 1e-30 ? xi : std::min(xi, 0.9 / (hvn / vn));
    cur_ = v;
    w = v;
    SolveReport report{SolveExit::kBudget, 0, vn};
    // bismo-lint: no-alloc-begin
    for (; report.iterations < terms; ++report.iterations) {
      if (report.iterations > 0) hvp(cur_, hv_);
      for (std::size_t i = 0; i < cur_.size(); ++i) {
        cur_[i] = cur_[i] + -alpha * hv_[i];
      }
      report.residual = norm2(cur_);
      if (!std::isfinite(report.residual) || report.residual > 1.5 * vn) {
        report.exit = SolveExit::kDiverged;
        break;
      }
      w += cur_;
    }
    w *= alpha;
    // bismo-lint: no-alloc-end
    return report;
  }

  /// At most `iterations` CG steps on (A + damping I) w = b from the warm
  /// start in w (shaped like b, else std::invalid_argument), stopping at
  /// ||r|| / ||b|| <= tol or, keeping the iterate, on p^T A p <= 0 (A
  /// indefinite along p: CG's variance in the paper's Fig. 5).
  template <typename Hvp>
  SolveReport cg(Hvp&& hvp, const RealGrid& b, int iterations, double damping,
                 double tol, RealGrid& w) {
    if (!b.same_shape(w)) {
      throw std::invalid_argument("InverseHvp::cg: b/w shape mismatch");
    }
    const auto apply_damped = [&](const RealGrid& x) {
      hvp(x, ap_);
      for (std::size_t i = 0; damping != 0.0 && i < ap_.size(); ++i) {
        ap_[i] = ap_[i] + x[i] * damping;
      }
    };
    SolveReport report;
    // bismo-lint: no-alloc-begin
    apply_damped(w);
    r_ = b;
    r_ -= ap_;
    p_ = r_;
    double rs = dot(r_, r_);
    const double b_norm = std::max(norm2(b), 1e-300);
    for (; report.iterations < iterations; ++report.iterations) {
      if (std::sqrt(rs) / b_norm <= tol) break;
      apply_damped(p_);
      const double p_ap = dot(p_, ap_);
      if (p_ap <= 0.0 || !std::isfinite(p_ap)) {
        report.exit = SolveExit::kCurvature;
        break;
      }
      const double alpha = rs / p_ap;
      for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] = w[i] + alpha * p_[i];
        r_[i] = r_[i] + -alpha * ap_[i];
      }
      const double rs_next = dot(r_, r_);
      const double beta = rs_next / rs;
      for (std::size_t i = 0; i < p_.size(); ++i) p_[i] = r_[i] + beta * p_[i];
      rs = rs_next;
    }
    // bismo-lint: no-alloc-end
    report.residual = std::sqrt(rs);
    if (report.residual / b_norm <= tol) report.exit = SolveExit::kConverged;
    return report;
  }

 private:
  RealGrid hv_, cur_;    ///< Neumann: H * term, current term
  RealGrid r_, p_, ap_;  ///< CG: residual, direction, (A + damping I) p
};

}  // namespace bismo

#endif  // BISMO_GRAD_INVERSE_HVP_HPP
