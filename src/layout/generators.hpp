// Synthetic benchmark clip generators.
//
// The paper evaluates on ICCAD13 [17], an enlarged ICCAD-L variant, and
// ISPD19 [18] metal/via tiles (Table 2).  Those suites are not
// redistributable, so this module synthesizes seeded Manhattan clips whose
// *relative* statistics follow Table 2: pattern density ratios across the
// three suites (~5% / ~12% / ~17.5% of the tile), critical dimension 32 nm
// (28 nm for the via suite), metal-only vs metal+via composition, and 10 /
// 10 / 100 default test counts.  Tiles are scaled down (default 1024 nm at
// 256 px) to keep CPU runtimes practical; every bench prints the actual
// configuration it ran.
#ifndef BISMO_LAYOUT_GENERATORS_HPP
#define BISMO_LAYOUT_GENERATORS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "layout/layout.hpp"

namespace bismo {

/// The three benchmark suites of Table 2.
enum class DatasetKind { kIccad13, kIccadL, kIspd19 };

/// Generation parameters for one suite.
struct DatasetSpec {
  DatasetKind kind = DatasetKind::kIccad13;
  std::string name = "ICCAD13";
  std::string layer = "Metal";
  double tile_nm = 1024.0;       ///< tile side (paper: 2000 nm => 4 um^2)
  double cd_nm = 32.0;           ///< critical dimension
  double target_density = 0.05; ///< union area / tile area target
  bool include_vias = false;
  double via_nm = 28.0;          ///< via square side (ISPD19-like)
  std::size_t default_count = 10;
};

/// Canonical spec for a suite, with densities scaled to match Table 2's
/// average-area ratios.
DatasetSpec dataset_spec(DatasetKind kind);

/// Name of a dataset kind ("ICCAD13" / "ICCAD-L" / "ISPD19").
std::string to_string(DatasetKind kind);

/// Generate one clip.  Deterministic in (spec, seed).
Layout generate_clip(const DatasetSpec& spec, std::uint64_t seed);

/// A generated suite: named clips ("<dataset>:testN").
struct Dataset {
  DatasetSpec spec;
  std::vector<std::string> names;
  std::vector<Layout> clips;
};

/// Generate `count` clips (0 = the spec's default count) with seeds derived
/// from `base_seed`.
Dataset make_dataset(const DatasetSpec& spec, std::size_t count = 0,
                     std::uint64_t base_seed = 2024);

}  // namespace bismo

#endif  // BISMO_LAYOUT_GENERATORS_HPP
