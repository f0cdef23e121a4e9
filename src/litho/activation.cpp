#include "litho/activation.hpp"

#include <cmath>
#include <stdexcept>

#include "math/grid_ops.hpp"

namespace bismo {
namespace {

constexpr double kHalfPi = 1.5707963267948966192313216916397514;

double cosine_act(double x) {
  const double t = std::clamp(x, -1.0, 1.0);
  return 0.5 * (1.0 + std::sin(t * kHalfPi));
}

double cosine_act_derivative(double x) {
  if (x <= -1.0 || x >= 1.0) return 0.0;  // saturated: zero gradient
  return 0.5 * kHalfPi * std::cos(x * kHalfPi);
}

double cosine_act_second_derivative(double x) {
  if (x <= -1.0 || x >= 1.0) return 0.0;
  return -0.5 * kHalfPi * kHalfPi * std::sin(x * kHalfPi);
}

}  // namespace

RealGrid activate_mask(const RealGrid& theta_m, const ActivationConfig& cfg) {
  if (cfg.kind == ActivationKind::kSigmoid) {
    return sigmoid_activation(theta_m, cfg.alpha_mask);
  }
  return map(theta_m,
             [&cfg](double x) { return cosine_act(cfg.alpha_mask * x); });
}

RealGrid mask_activation_derivative(const RealGrid& theta_m,
                                    const RealGrid& mask,
                                    const ActivationConfig& cfg) {
  if (!theta_m.same_shape(mask)) {
    throw std::invalid_argument("mask_activation_derivative: shape mismatch");
  }
  if (cfg.kind == ActivationKind::kSigmoid) {
    return map(mask, [&cfg](double m) {
      return cfg.alpha_mask * sigmoid_derivative_from_output(m);
    });
  }
  return map(theta_m, [&cfg](double x) {
    return cfg.alpha_mask * cosine_act_derivative(cfg.alpha_mask * x);
  });
}

RealGrid activate_source(const RealGrid& theta_j,
                         const SourceGeometry& geometry,
                         const ActivationConfig& cfg) {
  if (theta_j.rows() != geometry.dim() || theta_j.cols() != geometry.dim()) {
    throw std::invalid_argument("activate_source: shape mismatch");
  }
  RealGrid j = cfg.kind == ActivationKind::kSigmoid
                   ? sigmoid_activation(theta_j, cfg.alpha_source)
                   : map(theta_j, [&cfg](double x) {
                       return cosine_act(cfg.alpha_source * x);
                     });
  j *= geometry.validity_mask();
  return j;
}

RealGrid source_activation_derivative(const RealGrid& theta_j,
                                      const RealGrid& source,
                                      const SourceGeometry& geometry,
                                      const ActivationConfig& cfg) {
  if (!theta_j.same_shape(source)) {
    throw std::invalid_argument(
        "source_activation_derivative: shape mismatch");
  }
  RealGrid d(theta_j.rows(), theta_j.cols(), 0.0);
  if (cfg.kind == ActivationKind::kSigmoid) {
    for (std::size_t i = 0; i < d.size(); ++i) {
      d[i] = cfg.alpha_source * sigmoid_derivative_from_output(source[i]);
    }
  } else {
    for (std::size_t i = 0; i < d.size(); ++i) {
      d[i] = cfg.alpha_source *
             cosine_act_derivative(cfg.alpha_source * theta_j[i]);
    }
  }
  d *= geometry.validity_mask();
  return d;
}

RealGrid source_activation_second_derivative(const RealGrid& theta_j,
                                             const RealGrid& source,
                                             const SourceGeometry& geometry,
                                             const ActivationConfig& cfg) {
  if (!theta_j.same_shape(source)) {
    throw std::invalid_argument(
        "source_activation_second_derivative: shape mismatch");
  }
  const double a2 = cfg.alpha_source * cfg.alpha_source;
  RealGrid d(theta_j.rows(), theta_j.cols(), 0.0);
  if (cfg.kind == ActivationKind::kSigmoid) {
    for (std::size_t i = 0; i < d.size(); ++i) {
      const double j = source[i];
      d[i] = a2 * j * (1.0 - j) * (1.0 - 2.0 * j);
    }
  } else {
    for (std::size_t i = 0; i < d.size(); ++i) {
      d[i] = a2 * cosine_act_second_derivative(cfg.alpha_source * theta_j[i]);
    }
  }
  d *= geometry.validity_mask();
  return d;
}

RealGrid init_mask_params(const RealGrid& target,
                          const ActivationConfig& cfg) {
  return map(target, [&cfg](double t) {
    return t > 0.5 ? cfg.mask_init : -cfg.mask_init;
  });
}

RealGrid init_source_params(const RealGrid& j0, const ActivationConfig& cfg) {
  return map(j0, [&cfg](double j) {
    return j > 0.5 ? cfg.source_init : -cfg.source_init;
  });
}

}  // namespace bismo
