#include "core/config.hpp"

#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace bismo {
namespace {

/// Throw the uniform "name = value invalid (requirement)" diagnostic, so
/// callers (CLI, api::Session) print configuration mistakes as one-line
/// errors.  The name is the override key, with the member path when the
/// two differ.
template <typename T>
void check_field(const ConfigField& field, T value) {
  if constexpr (!std::is_enum_v<T>) {
    const double v = static_cast<double>(value);
    const FieldBound& b = field.bound;
    const bool has_min = b.min > kAnyValue.min;
    const bool finite = !std::is_floating_point_v<T> || std::isfinite(v);
    const bool bounded = b.strict ? v > b.min : v >= b.min;
    if (finite && bounded) return;
    std::ostringstream ss;
    ss << "SmoConfig: ";
    if (field.key != nullptr && std::strcmp(field.key, field.path) != 0) {
      ss << field.key << " (" << field.path << ")";
    } else {
      ss << field.path;
    }
    ss << " = " << value << " invalid (must be ";
    if (std::is_floating_point_v<T>) ss << "finite";
    if (std::is_floating_point_v<T> && has_min) ss << " and ";
    if (has_min) ss << (b.strict ? "> " : ">= ") << b.min;
    ss << ")";
    throw std::invalid_argument(ss.str());
  }
}

}  // namespace

void SmoConfig::validate() const {
  visit_config_fields(*this, [](const ConfigField& field, auto value) {
    check_field(field, value);
  });
  optics.validate();
}

}  // namespace bismo
