// Central configuration for SMO runs: optics, activations, loss weights,
// learning rates, bilevel hyperparameters, iteration budgets.
//
// Defaults mirror the paper's Sec. 4 settings wherever they are
// CPU-feasible: gamma=1000, eta=3000, lambda=193, NA=1.35, sigma_o=0.95,
// sigma_i=0.63, Q=24, alpha_m=9, m0=1, alpha_j=2, j0=5, beta=30,
// xi=xi_M=xi_J=0.1, K=5, T=3.  The grid sizes are scaled down from the
// paper's Nj=35 / Nm=2048 (RTX 4090) to Nj=11 / Nm=256 defaults; both are
// plain knobs and every bench prints what it used.
#ifndef BISMO_CORE_CONFIG_HPP
#define BISMO_CORE_CONFIG_HPP

#include <array>
#include <cstddef>
#include <limits>

#include "grad/loss.hpp"
#include "litho/activation.hpp"
#include "litho/optics.hpp"
#include "litho/resist.hpp"
#include "litho/source.hpp"
#include "metrics/epe.hpp"
#include "opt/optimizer.hpp"

namespace bismo {

/// Everything needed to set up and run any of the SMO methods.
struct SmoConfig {
  OpticsConfig optics{193.0, 1.35, 256, 8.0, 0.0};  ///< 2048 nm tile default
  std::size_t source_dim = 11;                      ///< Nj (paper: 35)
  SourceSpec initial_source{};                      ///< annular 0.95 / 0.63
  ActivationConfig activation{};                    ///< Table 1 defaults
  ResistModel resist{};                             ///< beta = 30
  LossWeights weights{};                            ///< gamma=1000, eta=3000
  ProcessWindow process_window{};                   ///< +/- 2% dose
  EpeConfig epe{};                                  ///< 15 nm constraint

  OptimizerKind optimizer = OptimizerKind::kAdam;  ///< outer updates
  double lr_mask = 0.1;    ///< xi_M
  double lr_source = 0.1;  ///< xi_J (also the inner unroll step size)

  // Bilevel hyperparameters (Algorithm 2).
  int unroll_steps = 3;           ///< T: inner SO steps per outer step
  int hyper_terms = 5;            ///< K: Neumann terms / CG iterations
  double cg_damping = 0.0;        ///< Tikhonov damping for BiSMO-CG
  /// Unused since the hypergradients became exact (grad/hvp.hpp); no
  /// config key sets it.  Kept only because the benchmark program passes
  /// it to HypergradientOps and the wire codec carries it.
  double fd_eps_scale = 1e-2;

  // Iteration budgets.
  int outer_steps = 40;   ///< BiSMO outer iterations / MO-only steps
  int am_cycles = 4;      ///< AM-SMO alternation cycles
  int am_so_steps = 10;   ///< SO steps per AM cycle ("until converged")
  int am_mo_steps = 10;   ///< MO steps per AM cycle

  std::size_t socs_kernels = 24;  ///< Q for Hopkins baselines
  double source_cutoff = 1e-9;    ///< forward skip threshold for j_sigma

  /// Check every field against its row in BISMO_SMO_CONFIG_FIELDS, then
  /// the cross-field optics sampling (OpticsConfig::validate).  Throws
  /// std::invalid_argument naming the key or field and its value.
  void validate() const;
};

/// Lower-bound rule of one field: value > min (strict) or value >= min.
/// A double must also be finite; an enum field has no bound (its range
/// is checked where it is parsed or decoded).
struct FieldBound {
  double min;
  bool strict;
};
inline constexpr FieldBound kAnyValue{
    -std::numeric_limits<double>::infinity(), false};
inline constexpr FieldBound kPositive{0.0, true};
constexpr FieldBound at_least(double min) { return {min, false}; }

/// One row of the field table, as visit_config_fields hands it out.
struct ConfigField {
  const char* key;   ///< `key=value` override name; nullptr: no key
  const char* path;  ///< member path, e.g. "optics.mask_dim"
  FieldBound bound;
  const char* doc;
};

// SmoConfig's leaf fields, one row each: X(key, member path, bound, doc).
// The value kind is the member's type: double, int, std::size_t or an
// enum.  From this list come the `key=value` overrides and their
// reference (api/job_spec.cpp), the wire codec (net/wire.cpp) and the
// per-field checks of SmoConfig::validate.  Rows are in wire order, so
// adding, removing or reordering a row is a protocol change.  A new
// field is its struct member plus one row here.
//
// The optics rows only demand finite values: OpticsConfig::validate owns
// their bounds, because the Pupil checks an OpticsConfig on its own.
#define BISMO_SMO_CONFIG_FIELDS(X)                                         \
  X("wavelength_nm", optics.wavelength_nm, kAnyValue,                      \
    "illumination wavelength lambda (nm)")                                 \
  X("na", optics.na, kAnyValue, "numerical aperture")                      \
  X("mask_dim", optics.mask_dim, kAnyValue,                                \
    "Nm: mask grid dimension (pixels per side)")                           \
  X("pixel_nm", optics.pixel_nm, kAnyValue,                                \
    "mask pixel pitch on the wafer plane (nm)")                            \
  X("defocus_nm", optics.defocus_nm, kAnyValue,                            \
    "defocus aberration (nm, 0 = nominal focus)")                          \
  X("source_dim", source_dim, at_least(2), "Nj: source grid dimension")    \
  X("source_shape", initial_source.shape, kAnyValue,                       \
    "initial source template")                                             \
  X("sigma_out", initial_source.sigma_out, kAnyValue,                      \
    "outer partial-coherence radius of the template")                      \
  X("sigma_in", initial_source.sigma_in, kAnyValue,                        \
    "inner partial-coherence radius (annular/dipole/quasar)")              \
  X(nullptr, initial_source.opening_deg, kAnyValue,                        \
    "angular half-width of each dipole/quasar pole (deg)")                 \
  X("alpha_mask", activation.alpha_mask, kAnyValue,                        \
    "mask sigmoid steepness alpha_m")                                      \
  X("mask_init", activation.mask_init, kAnyValue,                          \
    "mask parameter init magnitude m0")                                    \
  X("alpha_source", activation.alpha_source, kAnyValue,                    \
    "source sigmoid steepness alpha_j")                                    \
  X("source_init", activation.source_init, kAnyValue,                      \
    "source parameter init magnitude j0")                                  \
  X(nullptr, activation.kind, kAnyValue, "activation function")            \
  X("resist_beta", resist.beta, kAnyValue, "resist sigmoid steepness beta") \
  X("resist_threshold", resist.threshold, kAnyValue,                       \
    "print threshold I_tr")                                                \
  X("gamma", weights.gamma, at_least(0),                                   \
    "weight of the nominal L2 loss term")                                  \
  X("eta", weights.eta, at_least(0), "weight of the PVB loss term")        \
  X("dose_min", process_window.dose_min, kAnyValue,                        \
    "process-window minimum dose factor")                                  \
  X("dose_max", process_window.dose_max, kAnyValue,                        \
    "process-window maximum dose factor")                                  \
  X(nullptr, epe.sample_spacing_nm, kAnyValue,                             \
    "distance between EPE sample points (nm)")                             \
  X("epe_threshold_nm", epe.threshold_nm, kAnyValue,                       \
    "EPE violation threshold (nm)")                                        \
  X(nullptr, epe.search_range_nm, kAnyValue,                               \
    "EPE normal-probe half range (nm)")                                    \
  X("optimizer", optimizer, kAnyValue, "update rule")                      \
  X("lr_mask", lr_mask, kPositive, "mask learning rate xi_M")              \
  X("lr_source", lr_source, kPositive, "source learning rate xi_J")        \
  X("unroll_steps", unroll_steps, at_least(0),                             \
    "T: inner SO steps per outer step")                                    \
  X("hyper_terms", hyper_terms, at_least(0),                               \
    "K: Neumann terms / CG iterations")                                    \
  X("cg_damping", cg_damping, at_least(0), "BiSMO-CG Tikhonov damping")    \
  X(nullptr, fd_eps_scale, kAnyValue,                                      \
    "FD probe scale; unused since the HVPs are exact")                     \
  X("outer_steps", outer_steps, kPositive,                                 \
    "BiSMO outer iterations / MO-only steps")                              \
  X("am_cycles", am_cycles, kPositive, "AM-SMO alternation cycles")        \
  X("am_so_steps", am_so_steps, kPositive, "SO steps per AM cycle")        \
  X("am_mo_steps", am_mo_steps, kPositive, "MO steps per AM cycle")        \
  X("socs_kernels", socs_kernels, kPositive,                               \
    "Q: SOCS truncation for Hopkins baselines")                            \
  X("source_cutoff", source_cutoff, kAnyValue,                             \
    "forward skip threshold for j_sigma")

/// Call `visit(field, value)` for each row in table order; `value` is a
/// reference to the member, const when `Config` is.
template <typename Config, typename Visit>
void visit_config_fields(Config& config, Visit&& visit) {
#define BISMO_VISIT_CONFIG_FIELD(key, path, bound, doc) \
  visit(ConfigField{key, #path, bound, doc}, config.path);
  BISMO_SMO_CONFIG_FIELDS(BISMO_VISIT_CONFIG_FIELD)
#undef BISMO_VISIT_CONFIG_FIELD
}

/// Spellings of an enum-valued field, indexed by enumerator: the override
/// parser accepts exactly these, and the wire decoder rejects a raw value
/// past the last one.
inline constexpr std::array<const char*, 2> kActivationKindNames = {
    "sigmoid", "cosine"};
inline constexpr std::array<const char*, 2> kOptimizerKindNames = {"sgd",
                                                                   "adam"};
constexpr const auto& enum_names(SourceShape) { return kSourceShapeNames; }
constexpr const auto& enum_names(ActivationKind) {
  return kActivationKindNames;
}
constexpr const auto& enum_names(OptimizerKind) { return kOptimizerKindNames; }

}  // namespace bismo

#endif  // BISMO_CORE_CONFIG_HPP
