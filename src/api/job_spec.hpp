// Declarative run specification for the bismo::api facade.
//
// A JobSpec says *what* to run -- which clip, which method, which
// configuration -- without constructing any engine state; api::Session
// turns specs into SmoProblems and executes them.  Configuration overrides
// are plain "key=value" strings (see `config_keys()` for the reference) so
// jobs are fully scriptable from CLIs, batch files and service requests
// without recompiling.
#ifndef BISMO_API_JOB_SPEC_HPP
#define BISMO_API_JOB_SPEC_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/runner.hpp"
#include "layout/generators.hpp"
#include "layout/layout.hpp"
#include "math/grid2d.hpp"

namespace bismo::api {

/// Where a job's target pattern comes from.
struct ClipSource {
  enum class Kind {
    kLayoutFile,  ///< read_layout(path)
    kLayout,      ///< an in-memory Layout
    kGenerator,   ///< generate_clip(dataset_spec(dataset), seed)
    kRawGrid,     ///< a prerasterized binary target grid
  };

  Kind kind = Kind::kGenerator;
  std::string layout_path;                        ///< kLayoutFile
  Layout layout;                                  ///< kLayout
  DatasetKind dataset = DatasetKind::kIccad13;    ///< kGenerator
  std::uint64_t seed = 1;                         ///< kGenerator
  RealGrid grid;                                  ///< kRawGrid

  static ClipSource from_file(std::string path);
  static ClipSource from_layout(Layout clip);
  static ClipSource generated(DatasetKind dataset, std::uint64_t seed);
  static ClipSource from_grid(RealGrid target);

  /// Short human-readable description ("ICCAD13:seed7", "clip.txt", ...).
  std::string describe() const;
};

/// One declarative run: clip + method + configuration.
struct JobSpec {
  std::string name;  ///< label for results/logs; defaulted from the clip
  ClipSource clip;
  Method method = Method::kBismoNmn;
  SmoConfig config{};  ///< base configuration (library defaults)
  /// "key=value" overrides applied on top of `config` at run time, in
  /// order.  See `config_keys()`; unknown keys / bad values throw.
  std::vector<std::string> config_overrides;
  /// Evaluate the paper's before/after solution metrics (two extra engine
  /// passes + EPE measurement).  The tiled execution layer turns this off
  /// for per-tile jobs: tile metrics are meaningless in isolation and the
  /// stitched full-layout evaluation replaces them.
  bool evaluate_solution = true;

  /// The label used in results: `name` when set, else clip description.
  std::string display_name() const;

  /// Structural-shape hash for small-job coalescing
  /// (SubmitOptions::coalesce_key): two specs share a fingerprint exactly
  /// when they resolve to the same method, grid dimensions and config
  /// overrides, so batching them onto one lane dispatch can share a leased
  /// workspace.  Clip *content* (seed, geometry, file) is deliberately
  /// excluded -- distinct clips of the same shape coalesce.  Never zero.
  std::uint64_t coalesce_fingerprint() const;
};

/// One entry of the scriptable-configuration reference.
struct ConfigKeyInfo {
  std::string key;
  std::string doc;
};

/// All supported override keys with one-line documentation, in stable
/// order (the README config-key reference is generated from this table).
const std::vector<ConfigKeyInfo>& config_keys();

/// Apply one "key=value" override.  Throws std::invalid_argument naming
/// the key on unknown keys, malformed pairs, or unparsable values.
void apply_config_override(SmoConfig& config, const std::string& pair);

/// Apply overrides in order.  The caller validates the final config (the
/// Session does this before building the problem).
void apply_config_overrides(SmoConfig& config,
                            const std::vector<std::string>& pairs);

/// Checked numeric parsers behind the config keys, shared with the tools'
/// command-line flags.  `value` must be a number in full (no trailing
/// text) and in range; otherwise they throw std::invalid_argument naming
/// `what` and the value.
double parse_double(const std::string& what, const std::string& value);
long parse_long(const std::string& what, const std::string& value);
/// parse_long narrowed to int, rejecting values an int cannot hold.
int parse_int(const std::string& what, const std::string& value);
/// parse_long for counts: rejects negatives and values above `max`.
std::size_t parse_size(const std::string& what, const std::string& value,
                       std::size_t max = SIZE_MAX);

}  // namespace bismo::api

#endif  // BISMO_API_JOB_SPEC_HPP
