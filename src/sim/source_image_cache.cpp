#include "sim/source_image_cache.hpp"

#include <cstring>

#include "parallel/reduction.hpp"
#include "sim/pipeline.hpp"
#include "sim/workspace.hpp"

namespace bismo::sim {

bool SourceImageCache::holds(const RealGrid& key) const {
  return valid_ && kernel_ == &fft::active_kernel() &&
         fused_ == fusion_enabled() && key_.same_shape(key) &&
         std::memcmp(key_.data(), key.data(), key.size() * sizeof(double)) ==
             0;
}

void SourceImageCache::fill(const ImagingModel& model, const ComplexGrid& o,
                            const RealGrid& key) {
  const std::size_t n = model.grid_dim();
  const std::size_t comps = model.components();
  valid_ = false;
  if (images_.size() != comps ||
      (comps > 0 && (images_[0].rows() != n || images_[0].cols() != n))) {
    images_.assign(comps, RealGrid(n, n));
  }
  WorkspaceSet& set = model.workspaces();
  const std::size_t slots = reduction_slots(comps);
  run_slots(model, slots, [&](std::size_t s) {
    // bismo-lint: no-alloc-begin
    const SlotRange range = slot_range(s, slots, comps);
    SimWorkspace& ws = set.at(s);
    ws.ensure(n);
    for (std::size_t c = range.begin; c < range.end; ++c) {
      // The image is the chain's |field|^2 accumulator at weight 1, so it
      // holds exactly the norms the intensity epilogue would weight.
      RealGrid& image = images_[c];
      image.fill(0.0);
      ComplexGrid* dest = set.capturing() ? &set.capture_slot(c) : nullptr;
      ws.forward_field(o, model.component_band(c), &image, 1.0, nullptr,
                       dest);
    }
    // bismo-lint: no-alloc-end
  });
  key_ = key;
  kernel_ = &fft::active_kernel();
  fused_ = fusion_enabled();
  valid_ = true;
}

RealGrid SourceImageCache::intensity(const ImagingModel& model,
                                     const std::vector<std::uint32_t>& comps,
                                     const std::vector<double>& weights) const {
  RealGrid out;
  intensity(model, comps, weights, out);
  return out;
}

void SourceImageCache::intensity(const ImagingModel& model,
                                 const std::vector<std::uint32_t>& comps,
                                 const std::vector<double>& weights,
                                 RealGrid& out) const {
  const std::size_t n = model.grid_dim();
  if (out.rows() != n || out.cols() != n) out.resize(n, n);
  out.fill(0.0);
  if (comps.empty()) return;

  // Same partition, per-slot order and slot-order combine as
  // accumulate_intensity, with each fused |field|^2 epilogue replaced by
  // the identical multiply-add over the stored norm.
  WorkspaceSet& set = model.workspaces();
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t slots = reduction_slots(comps.size());
  run_slots(model, slots, [&](std::size_t s) {
    // bismo-lint: no-alloc-begin
    const SlotRange range = slot_range(s, slots, comps.size());
    SimWorkspace& ws = set.at(s);
    ws.ensure(n);
    RealGrid& acc = ws.intensity_accum();
    acc.fill(0.0);
    for (std::size_t k = range.begin; k < range.end; ++k) {
      kernel.axpy_real(acc.data(), images_[comps[k]].data(), acc.size(),
                       weights[k]);
    }
    // bismo-lint: no-alloc-end
  });
  combine_slot_partials(out, slots, [&](std::size_t s) -> const RealGrid& {
    return set.at(s).intensity_accum();
  });
}

void SourceImageCache::dots(const ImagingModel& model, const double* w,
                            std::vector<double>& out) const {
  out.resize(images_.size());
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t slots = reduction_slots(images_.size());
  run_slots(model, slots, [&](std::size_t s) {
    const SlotRange range = slot_range(s, slots, images_.size());
    for (std::size_t c = range.begin; c < range.end; ++c) {
      out[c] = kernel.dot_real(w, images_[c].data(), images_[c].size());
    }
  });
}

}  // namespace bismo::sim
