#include "api/job_spec.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

namespace bismo::api {
namespace {

[[noreturn]] void bad_value(const std::string& what, const std::string& value,
                            const std::string& problem) {
  throw std::invalid_argument(what + ": \"" + value + "\" " + problem);
}

/// "a | b | c": the accepted values of an enum-valued field.
template <typename Names>
std::string spellings(const Names& names) {
  std::string out;
  for (const char* name : names) {
    if (!out.empty()) out += " | ";
    out += name;
  }
  return out;
}

/// Parse `value` as the type of the field it will be assigned to.
template <typename T>
T parse_field(const std::string& key, const std::string& value) {
  if constexpr (std::is_same_v<T, double>) {
    return parse_double(key, value);
  } else if constexpr (std::is_same_v<T, int>) {
    return parse_int(key, value);
  } else if constexpr (std::is_same_v<T, std::size_t>) {
    return parse_size(key, value);
  } else {
    static_assert(std::is_enum_v<T>, "unsupported config field type");
    const auto& names = enum_names(T{});
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (value == names[i]) return static_cast<T>(i);
    }
    bad_value(key, value, "is not one of: " + spellings(names));
  }
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
    const SmoConfig defaults;
    visit_config_fields(defaults, [&out](const ConfigField& field,
                                         const auto& value) {
      if (field.key == nullptr) return;
      std::string doc = field.doc;
      using T = std::decay_t<decltype(value)>;
      if constexpr (std::is_enum_v<T>) doc += ": " + spellings(enum_names(T{}));
      out.push_back({field.key, doc});
    });
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
  bool found = false;
  visit_config_fields(config, [&](const ConfigField& field, auto& member) {
    if (found || field.key == nullptr || key != field.key) return;
    found = true;
    try {
      member = parse_field<std::decay_t<decltype(member)>>(key, value);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("config override ") + e.what());
    }
  });
  if (found) return;
  std::string known;
  for (const ConfigKeyInfo& info : config_keys()) {
    if (!known.empty()) known += ", ";
    known += info.key;
  }
  throw std::invalid_argument("unknown config key \"" + key +
                              "\"; known keys: " + known);
}

void apply_config_overrides(SmoConfig& config,
                            const std::vector<std::string>& pairs) {
  for (const std::string& pair : pairs) apply_config_override(config, pair);
}

}  // namespace bismo::api
