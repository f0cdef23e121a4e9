#include "litho/hopkins.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/cmatrix.hpp"
#include "linalg/hermitian_eig.hpp"
#include "parallel/reduction.hpp"

namespace bismo {
namespace {

/// Sparse row of the stacked-pupil matrix A: pass-band bin indices (sorted)
/// and the complex entries sqrt(w) * H value at each.
struct StackRow {
  const std::vector<std::uint32_t>* indices = nullptr;
  std::vector<std::complex<double>> entries;
};

/// Inner product <row_a, row_b> = sum_b a[b] * conj(b[b]) over the
/// intersection of the two sorted index lists.
std::complex<double> row_dot(const StackRow& a, const StackRow& b) {
  std::complex<double> acc{};
  const auto& ia = *a.indices;
  const auto& ib = *b.indices;
  std::size_t x = 0;
  std::size_t y = 0;
  while (x < ia.size() && y < ib.size()) {
    if (ia[x] < ib[y]) {
      ++x;
    } else if (ia[x] > ib[y]) {
      ++y;
    } else {
      acc += a.entries[x] * std::conj(b.entries[y]);
      ++x;
      ++y;
    }
  }
  return acc;
}

}  // namespace

SocsDecomposition::SocsDecomposition(const AbbeImaging& abbe,
                                     const RealGrid& source, std::size_t q,
                                     double cutoff) {
  const SourceGeometry& geometry = abbe.geometry();
  const auto& pts = geometry.points();
  if (source.rows() != geometry.dim() || source.cols() != geometry.dim()) {
    throw std::invalid_argument("SocsDecomposition: source shape mismatch");
  }

  // Normalization matches AbbeImaging: weights divided by the *total* power
  // over valid points (not just the retained ones).
  double total_weight = 0.0;
  for (const SourcePoint& p : pts) total_weight += source(p.row, p.col);
  if (total_weight <= 0.0) {
    throw std::invalid_argument("SocsDecomposition: source has no power");
  }

  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (source(pts[i].row, pts[i].col) > cutoff) active.push_back(i);
  }
  if (active.empty()) {
    throw std::invalid_argument("SocsDecomposition: no effective points");
  }

  // Assemble sparse rows sqrt(j/W) * H_sigma.
  std::vector<StackRow> rows(active.size());
  for (std::size_t k = 0; k < active.size(); ++k) {
    const std::size_t i = active[k];
    const PassBand& band = abbe.passband(i);
    const double w = source(pts[i].row, pts[i].col) / total_weight;
    const double sw = std::sqrt(w);
    rows[k].indices = &band.indices;
    rows[k].entries.resize(band.indices.size());
    if (band.values.empty()) {
      std::fill(rows[k].entries.begin(), rows[k].entries.end(),
                std::complex<double>(sw, 0.0));
    } else {
      for (std::size_t b = 0; b < band.indices.size(); ++b) {
        rows[k].entries[b] = sw * band.values[b];
      }
    }
  }

  // Band = union of all pass-bands; map flat bin index -> band position.
  {
    std::vector<std::uint32_t> all;
    for (const auto& row : rows) {
      all.insert(all.end(), row.indices->begin(), row.indices->end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    band_ = std::move(all);
  }

  // Gram matrix G = A A^H via sorted-intersection dot products.
  const std::size_t m = rows.size();
  CMatrix gram(m, m);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a; b < m; ++b) {
      const std::complex<double> g = row_dot(rows[a], rows[b]);
      gram(a, b) = g;
      gram(b, a) = std::conj(g);
    }
  }
  for (std::size_t a = 0; a < m; ++a) trace_ += gram(a, a).real();

  const HermitianEig eig = hermitian_eig(std::move(gram));

  // Map the top-q eigenvectors back to frequency-domain kernels
  // phi = A^H u / sqrt(kappa), assembled over the shared band.
  const std::size_t keep = std::min(q, m);
  std::vector<std::uint32_t> band_pos_of_bin;  // bin -> band position + 1
  {
    const std::uint32_t max_bin = band_.empty() ? 0 : band_.back();
    band_pos_of_bin.assign(static_cast<std::size_t>(max_bin) + 1, 0);
    for (std::size_t b = 0; b < band_.size(); ++b) {
      band_pos_of_bin[band_[b]] = static_cast<std::uint32_t>(b) + 1;
    }
  }
  for (std::size_t qi = 0; qi < keep; ++qi) {
    const double kappa = eig.values[qi];
    if (kappa <= 1e-14 * std::max(trace_, 1e-300)) break;  // rank exhausted
    SocsKernel kernel;
    kernel.weight = kappa;
    kernel.values.assign(band_.size(), std::complex<double>{});
    const double inv_sqrt = 1.0 / std::sqrt(kappa);
    for (std::size_t s = 0; s < m; ++s) {
      const std::complex<double> u = eig.vectors(s, qi);
      if (u == std::complex<double>{}) continue;
      const auto& idx = *rows[s].indices;
      for (std::size_t b = 0; b < idx.size(); ++b) {
        const std::uint32_t pos = band_pos_of_bin[idx[b]] - 1;
        kernel.values[pos] += std::conj(rows[s].entries[b]) * u * inv_sqrt;
      }
    }
    kernels_.push_back(std::move(kernel));
  }
}

ComplexGrid SocsDecomposition::dense_kernel(std::size_t q,
                                            std::size_t mask_dim) const {
  if (q >= kernels_.size()) {
    throw std::out_of_range("SocsDecomposition::dense_kernel: bad index");
  }
  ComplexGrid out(mask_dim, mask_dim);
  for (std::size_t b = 0; b < band_.size(); ++b) {
    out[band_[b]] = kernels_[q].values[b];
  }
  return out;
}

HopkinsImaging::HopkinsImaging(const OpticsConfig& optics,
                               SocsDecomposition socs, ThreadPool* pool,
                               std::shared_ptr<sim::WorkspaceSet> workspaces)
    : optics_(optics),
      socs_(std::move(socs)),
      band_rows_(sim::occupied_rows(socs_.band(), optics.mask_dim)),
      pool_(pool),
      workspaces_(std::move(workspaces)) {
  if (workspaces_ == nullptr) {
    workspaces_ = std::make_shared<sim::WorkspaceSet>();
  }
}

sim::BandRef HopkinsImaging::component_band(std::size_t c) const {
  const auto& band = socs_.band();
  sim::BandRef ref;
  ref.bins = band.data();
  ref.vals = socs_.kernels()[c].values.data();
  ref.nbins = band.size();
  ref.rows = band_rows_.data();
  ref.nrows = band_rows_.size();
  return ref;
}

RealGrid HopkinsImaging::aerial(const ComplexGrid& o) const {
  if (o.rows() != optics_.mask_dim || o.cols() != optics_.mask_dim) {
    throw std::invalid_argument("HopkinsImaging::aerial: spectrum shape");
  }
  const auto& kernels = socs_.kernels();
  if (kernels.empty()) return RealGrid(o.rows(), o.cols(), 0.0);

  // Component/weight lists live in the workspace set so steady-state
  // evaluations reuse their capacity instead of reallocating per call.
  std::vector<std::uint32_t>& comps = workspaces_->component_scratch();
  std::vector<double>& weights = workspaces_->weight_scratch();
  comps.resize(kernels.size());
  weights.resize(kernels.size());
  for (std::size_t q = 0; q < kernels.size(); ++q) {
    comps[q] = static_cast<std::uint32_t>(q);
    weights[q] = kernels[q].weight;
  }
  return sim::accumulate_intensity(*this, o, comps, weights);
}

}  // namespace bismo
