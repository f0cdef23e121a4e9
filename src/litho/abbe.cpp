#include "litho/abbe.hpp"

#include <stdexcept>
#include <utility>

namespace bismo {

AbbeImaging::AbbeImaging(const OpticsConfig& optics,
                         const SourceGeometry& geometry, ThreadPool* pool,
                         std::shared_ptr<sim::WorkspaceSet> workspaces)
    : optics_(optics),
      geometry_(geometry),
      pupil_(optics),
      pool_(pool),
      workspaces_(std::move(workspaces)) {
  if (workspaces_ == nullptr) {
    workspaces_ = std::make_shared<sim::WorkspaceSet>();
  }
  const auto& pts = geometry_.points();
  passbands_.resize(pts.size());
  band_rows_.resize(pts.size());
  auto build = [this, &pts](std::size_t i) {
    passbands_[i] = pupil_.shifted_passband(pts[i].freq_x, pts[i].freq_y);
    band_rows_[i] = sim::occupied_rows(passbands_[i].indices, optics_.mask_dim);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(pts.size(), build);
  } else {
    for (std::size_t i = 0; i < pts.size(); ++i) build(i);
  }
}

sim::BandRef AbbeImaging::component_band(std::size_t c) const {
  const PassBand& band = passbands_[c];
  sim::BandRef ref;
  ref.bins = band.indices.data();
  ref.vals = band.values.empty() ? nullptr : band.values.data();
  ref.nbins = band.indices.size();
  ref.rows = band_rows_[c].data();
  ref.nrows = band_rows_[c].size();
  return ref;
}

double AbbeImaging::collect_active(const RealGrid& j, double cutoff) const {
  const auto& pts = geometry_.points();
  if (j.rows() != geometry_.dim() || j.cols() != geometry_.dim()) {
    throw std::invalid_argument("AbbeImaging::aerial: source shape mismatch");
  }
  // Collect the contributing points first so the pooled pass is dense.
  // The index/weight lists live in the workspace set, so steady-state
  // evaluations reuse their capacity instead of reallocating per call.
  std::vector<std::uint32_t>& active = workspaces_->component_scratch();
  std::vector<double>& weights = workspaces_->weight_scratch();
  active.clear();
  weights.clear();
  active.reserve(pts.size());
  weights.reserve(pts.size());
  double total_weight = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double w = j(pts[i].row, pts[i].col);
    total_weight += w;
    if (w > cutoff) {
      active.push_back(static_cast<std::uint32_t>(i));
      weights.push_back(w);
    }
  }
  return total_weight;
}

AbbeAerial AbbeImaging::aerial(const ComplexGrid& o, const RealGrid& j,
                               double cutoff) const {
  AbbeAerial out;
  out.total_weight = collect_active(j, cutoff);
  if (o.rows() != optics_.mask_dim || o.cols() != optics_.mask_dim) {
    throw std::invalid_argument("AbbeImaging::aerial: spectrum shape mismatch");
  }
  const std::vector<std::uint32_t>& active = workspaces_->component_scratch();
  if (active.empty() || out.total_weight <= 0.0) {
    out.intensity = RealGrid(o.rows(), o.cols(), 0.0);
    return out;
  }
  out.intensity = sim::accumulate_intensity(*this, o, active,
                                            workspaces_->weight_scratch());
  out.intensity *= 1.0 / out.total_weight;
  return out;
}

AbbeAerial AbbeImaging::aerial(const sim::SourceImageCache& images,
                               const RealGrid& j, double cutoff) const {
  AbbeAerial out;
  out.total_weight = collect_active(j, cutoff);
  const std::vector<std::uint32_t>& active = workspaces_->component_scratch();
  if (active.empty() || out.total_weight <= 0.0) {
    out.intensity = RealGrid(optics_.mask_dim, optics_.mask_dim, 0.0);
    return out;
  }
  out.intensity =
      images.intensity(*this, active, workspaces_->weight_scratch());
  out.intensity *= 1.0 / out.total_weight;
  return out;
}

}  // namespace bismo
