#include "api/job_spec.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <functional>
#include <stdexcept>

namespace bismo::api {
namespace {

[[noreturn]] void bad_value(const std::string& what, const std::string& value,
                            const std::string& problem) {
  throw std::invalid_argument(what + ": \"" + value + "\" " + problem);
}

OptimizerKind parse_optimizer(const std::string& key,
                              const std::string& value) {
  if (value == "adam") return OptimizerKind::kAdam;
  if (value == "sgd") return OptimizerKind::kSgd;
  bad_value(key, value, "is not an optimizer (adam | sgd)");
}

SourceShape parse_shape(const std::string& key, const std::string& value) {
  for (SourceShape shape :
       {SourceShape::kAnnular, SourceShape::kConventional,
        SourceShape::kDipoleX, SourceShape::kDipoleY, SourceShape::kQuasar,
        SourceShape::kPoint}) {
    if (value == to_string(shape)) return shape;
  }
  bad_value(key, value,
            "is not a source shape (annular | conventional | dipole-x |"
            " dipole-y | quasar | point)");
}

/// One scriptable knob: documentation + setter.
struct KeyEntry {
  ConfigKeyInfo info;
  std::function<void(SmoConfig&, const std::string&)> set;
};

const std::vector<KeyEntry>& key_table() {
  using S = const std::string&;
  static const std::vector<KeyEntry> table = {
      // Optics / discretization.
      {{"mask_dim", "Nm: mask grid dimension (pixels per side)"},
       [](SmoConfig& c, S v) { c.optics.mask_dim = parse_size("mask_dim", v); }},
      {{"pixel_nm", "mask pixel pitch on the wafer plane (nm)"},
       [](SmoConfig& c, S v) { c.optics.pixel_nm = parse_double("pixel_nm", v); }},
      {{"wavelength_nm", "illumination wavelength lambda (nm)"},
       [](SmoConfig& c, S v) {
         c.optics.wavelength_nm = parse_double("wavelength_nm", v);
       }},
      {{"na", "numerical aperture"},
       [](SmoConfig& c, S v) { c.optics.na = parse_double("na", v); }},
      {{"defocus_nm", "defocus aberration (nm, 0 = nominal focus)"},
       [](SmoConfig& c, S v) {
         c.optics.defocus_nm = parse_double("defocus_nm", v);
       }},
      {{"source_dim", "Nj: source grid dimension"},
       [](SmoConfig& c, S v) { c.source_dim = parse_size("source_dim", v); }},
      // Initial source template.
      {{"source_shape",
        "initial source template: annular | conventional | dipole-x |"
        " dipole-y | quasar | point"},
       [](SmoConfig& c, S v) {
         c.initial_source.shape = parse_shape("source_shape", v);
       }},
      {{"sigma_out", "outer partial-coherence radius of the template"},
       [](SmoConfig& c, S v) {
         c.initial_source.sigma_out = parse_double("sigma_out", v);
       }},
      {{"sigma_in", "inner partial-coherence radius (annular/dipole/quasar)"},
       [](SmoConfig& c, S v) {
         c.initial_source.sigma_in = parse_double("sigma_in", v);
       }},
      // Activation (Table 1).
      {{"alpha_mask", "mask sigmoid steepness alpha_m"},
       [](SmoConfig& c, S v) {
         c.activation.alpha_mask = parse_double("alpha_mask", v);
       }},
      {{"mask_init", "mask parameter init magnitude m0"},
       [](SmoConfig& c, S v) {
         c.activation.mask_init = parse_double("mask_init", v);
       }},
      {{"alpha_source", "source sigmoid steepness alpha_j"},
       [](SmoConfig& c, S v) {
         c.activation.alpha_source = parse_double("alpha_source", v);
       }},
      {{"source_init", "source parameter init magnitude j0"},
       [](SmoConfig& c, S v) {
         c.activation.source_init = parse_double("source_init", v);
       }},
      // Resist and loss.
      {{"resist_beta", "resist sigmoid steepness beta"},
       [](SmoConfig& c, S v) { c.resist.beta = parse_double("resist_beta", v); }},
      {{"resist_threshold", "print threshold I_tr"},
       [](SmoConfig& c, S v) {
         c.resist.threshold = parse_double("resist_threshold", v);
       }},
      {{"gamma", "weight of the nominal L2 loss term"},
       [](SmoConfig& c, S v) { c.weights.gamma = parse_double("gamma", v); }},
      {{"eta", "weight of the PVB loss term"},
       [](SmoConfig& c, S v) { c.weights.eta = parse_double("eta", v); }},
      {{"dose_min", "process-window minimum dose factor"},
       [](SmoConfig& c, S v) {
         c.process_window.dose_min = parse_double("dose_min", v);
       }},
      {{"dose_max", "process-window maximum dose factor"},
       [](SmoConfig& c, S v) {
         c.process_window.dose_max = parse_double("dose_max", v);
       }},
      {{"epe_threshold_nm", "EPE violation threshold (nm)"},
       [](SmoConfig& c, S v) {
         c.epe.threshold_nm = parse_double("epe_threshold_nm", v);
       }},
      // Optimizers and step sizes.
      {{"optimizer", "update rule: adam | sgd"},
       [](SmoConfig& c, S v) { c.optimizer = parse_optimizer("optimizer", v); }},
      {{"lr_mask", "mask learning rate xi_M"},
       [](SmoConfig& c, S v) { c.lr_mask = parse_double("lr_mask", v); }},
      {{"lr_source", "source learning rate xi_J"},
       [](SmoConfig& c, S v) { c.lr_source = parse_double("lr_source", v); }},
      // Bilevel hyperparameters.
      {{"unroll_steps", "T: inner SO steps per outer step"},
       [](SmoConfig& c, S v) {
         c.unroll_steps = parse_int("unroll_steps", v);
       }},
      {{"hyper_terms", "K: Neumann terms / CG iterations"},
       [](SmoConfig& c, S v) {
         c.hyper_terms = parse_int("hyper_terms", v);
       }},
      {{"cg_damping", "Tikhonov damping for BiSMO-CG"},
       [](SmoConfig& c, S v) { c.cg_damping = parse_double("cg_damping", v); }},
      // Iteration budgets.
      {{"outer_steps", "BiSMO outer iterations / MO-only steps"},
       [](SmoConfig& c, S v) {
         c.outer_steps = parse_int("outer_steps", v);
       }},
      {{"am_cycles", "AM-SMO alternation cycles"},
       [](SmoConfig& c, S v) {
         c.am_cycles = parse_int("am_cycles", v);
       }},
      {{"am_so_steps", "SO steps per AM cycle"},
       [](SmoConfig& c, S v) {
         c.am_so_steps = parse_int("am_so_steps", v);
       }},
      {{"am_mo_steps", "MO steps per AM cycle"},
       [](SmoConfig& c, S v) {
         c.am_mo_steps = parse_int("am_mo_steps", v);
       }},
      {{"socs_kernels", "Q: SOCS truncation for Hopkins baselines"},
       [](SmoConfig& c, S v) {
         c.socs_kernels = parse_size("socs_kernels", v);
       }},
      {{"source_cutoff", "forward skip threshold for j_sigma"},
       [](SmoConfig& c, S v) {
         c.source_cutoff = parse_double("source_cutoff", v);
       }},
  };
  return table;
}

}  // namespace

double parse_double(const std::string& what, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    bad_value(what, value, "is not a number");
  }
  return v;
}

long parse_long(const std::string& what, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    bad_value(what, value, "is not an integer");
  }
  if (errno == ERANGE) bad_value(what, value, "is out of range");
  return v;
}

int parse_int(const std::string& what, const std::string& value) {
  const long v = parse_long(what, value);
  if (v < INT_MIN || v > INT_MAX) bad_value(what, value, "is out of range");
  return static_cast<int>(v);
}

std::size_t parse_size(const std::string& what, const std::string& value,
                       std::size_t max) {
  const long v = parse_long(what, value);
  if (v < 0) bad_value(what, value, "must be non-negative");
  if (static_cast<unsigned long>(v) > max) {
    bad_value(what, value, "must be at most " + std::to_string(max));
  }
  return static_cast<std::size_t>(v);
}

ClipSource ClipSource::from_file(std::string path) {
  ClipSource out;
  out.kind = Kind::kLayoutFile;
  out.layout_path = std::move(path);
  return out;
}

ClipSource ClipSource::from_layout(Layout clip) {
  ClipSource out;
  out.kind = Kind::kLayout;
  out.layout = std::move(clip);
  return out;
}

ClipSource ClipSource::generated(DatasetKind dataset, std::uint64_t seed) {
  ClipSource out;
  out.kind = Kind::kGenerator;
  out.dataset = dataset;
  out.seed = seed;
  return out;
}

ClipSource ClipSource::from_grid(RealGrid target) {
  ClipSource out;
  out.kind = Kind::kRawGrid;
  out.grid = std::move(target);
  return out;
}

std::string ClipSource::describe() const {
  switch (kind) {
    case Kind::kLayoutFile:
      return layout_path;
    case Kind::kLayout:
      return "layout(" + std::to_string(layout.size()) + " rects)";
    case Kind::kGenerator:
      return to_string(dataset) + ":seed" + std::to_string(seed);
    case Kind::kRawGrid:
      return "grid(" + std::to_string(grid.rows()) + "x" +
             std::to_string(grid.cols()) + ")";
  }
  return "?";
}

std::string JobSpec::display_name() const {
  if (!name.empty()) return name;
  return clip.describe() + "/" + to_string(method);
}

std::uint64_t JobSpec::coalesce_fingerprint() const {
  // FNV-1a over the structural shape: method, discretization, overrides.
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix_byte = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 1099511628211ull;
  };
  const auto mix_str = [&mix_byte](const std::string& text) {
    for (const char c : text) mix_byte(static_cast<unsigned char>(c));
    mix_byte(0);  // delimiter: {"a","b"} != {"ab"}
  };
  const auto mix_u64 = [&mix_byte](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) mix_byte((value >> (8 * i)) & 0xffu);
  };
  mix_str(to_string(method));
  mix_u64(static_cast<std::uint64_t>(clip.kind));
  switch (clip.kind) {
    case ClipSource::Kind::kRawGrid:
      // A raw grid pins mask_dim to its own dimensions.
      mix_u64(clip.grid.rows());
      mix_u64(clip.grid.cols());
      break;
    case ClipSource::Kind::kGenerator:
      mix_u64(static_cast<std::uint64_t>(clip.dataset));
      break;
    default:
      break;  // layout clips: shape is mask_dim + overrides below
  }
  mix_u64(config.optics.mask_dim);
  mix_u64(config.source_dim);
  mix_u64(evaluate_solution ? 1 : 0);
  for (const std::string& pair : config_overrides) mix_str(pair);
  return hash | 1;  // never zero: zero disables coalescing
}

const std::vector<ConfigKeyInfo>& config_keys() {
  static const std::vector<ConfigKeyInfo> keys = [] {
    std::vector<ConfigKeyInfo> out;
    for (const KeyEntry& entry : key_table()) out.push_back(entry.info);
    return out;
  }();
  return keys;
}

void apply_config_override(SmoConfig& config, const std::string& pair) {
  const std::size_t eq = pair.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("config override \"" + pair +
                                "\" is not of the form key=value");
  }
  const std::string key = pair.substr(0, eq);
  const std::string value = pair.substr(eq + 1);
  for (const KeyEntry& entry : key_table()) {
    if (entry.info.key == key) {
      try {
        entry.set(config, value);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("config override ") +
                                    e.what());
      }
      return;
    }
  }
  std::string known;
  for (const KeyEntry& entry : key_table()) {
    if (!known.empty()) known += ", ";
    known += entry.info.key;
  }
  throw std::invalid_argument("unknown config key \"" + key +
                              "\"; known keys: " + known);
}

void apply_config_overrides(SmoConfig& config,
                            const std::vector<std::string>& pairs) {
  for (const std::string& pair : pairs) apply_config_override(config, pair);
}

}  // namespace bismo::api
