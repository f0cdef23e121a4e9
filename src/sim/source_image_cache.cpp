#include "sim/source_image_cache.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "parallel/reduction.hpp"
#include "sim/pipeline.hpp"
#include "sim/workspace.hpp"

namespace bismo::sim {

namespace {

/// Zero values around each segment's band values: the padding
/// FftKernel::xcorr_accumulate reads.
constexpr auto kPad = static_cast<std::uint32_t>(fft::kXcorrPad);

/// First value of the lifted (unwrapped) order of sorted distinct indices
/// on a circle of `n`: the one after the widest circular gap, so the set
/// becomes one increasing run when values below it are moved up by n.
std::uint32_t lift_start(const std::uint32_t* v, std::size_t m,
                         std::size_t n) {
  if (m == 0) return 0;
  std::size_t best = m - 1;
  std::size_t best_gap = v[0] + n - v[m - 1];
  for (std::size_t i = 0; i + 1 < m; ++i) {
    const std::size_t gap = v[i + 1] - v[i];
    if (gap > best_gap) {
      best_gap = gap;
      best = i;
    }
  }
  return v[(best + 1) % m];
}

}  // namespace

bool SourceImageCache::holds(const RealGrid& key) const {
  return valid_ && kernel_ == &fft::active_kernel() && key_.same_shape(key) &&
         std::memcmp(key_.data(), key.data(), key.size() * sizeof(double)) ==
             0;
}

void SourceImageCache::build_layout(const ImagingModel& model) {
  const std::size_t n = model.grid_dim();
  const std::size_t comps = model.components();
  const std::uint32_t* bins0 =
      comps > 0 ? model.component_band(0).bins : nullptr;
  if (model_ == &model && dim_ == n && comps_ == comps &&
      model_bins_ == bins0) {
    return;
  }
  model_ = &model;
  model_bins_ = bins0;
  dim_ = n;
  comps_ = comps;

  // Lift every band to unwrapped coordinates (rows and columns each start
  // after their widest circular gap), so a band that wraps row or column
  // 0 is still one segment per row and the correlation rectangle spans
  // only the band's extent.  Any lift is exact, since every offset is
  // folded mod n below; this one keeps the work and the rectangle small.
  segments_.clear();
  value_order_.clear();
  band_segments_.assign(1, 0);
  band_values_.assign(1, 0);
  padded_values_ = 0;
  std::vector<std::uint8_t> flags(n);
  std::vector<std::uint32_t> distinct;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> lifted;
  std::int64_t row_span = 0;
  std::int64_t col_span = 0;
  const auto un = static_cast<std::uint32_t>(n);
  for (std::size_t c = 0; c < comps; ++c) {
    const BandRef band = model.component_band(c);
    const std::uint32_t row0 = lift_start(band.rows, band.nrows, n);
    std::fill(flags.begin(), flags.end(), 0);
    for (std::size_t i = 0; i < band.nbins; ++i) flags[band.bins[i] % un] = 1;
    distinct.clear();
    for (std::uint32_t k = 0; k < un; ++k) {
      if (flags[k]) distinct.push_back(k);
    }
    const std::uint32_t col0 = lift_start(distinct.data(), distinct.size(), n);
    lifted.clear();
    for (std::size_t i = 0; i < band.nbins; ++i) {
      const std::uint32_t r = band.bins[i] / un;
      const std::uint32_t k = band.bins[i] % un;
      const std::uint64_t lr = r >= row0 ? r : r + un;
      const std::uint64_t lc = k >= col0 ? k : k + un;
      lifted.emplace_back(lr * 2 * n + lc, static_cast<std::uint32_t>(i));
    }
    std::sort(lifted.begin(), lifted.end());
    const std::size_t first = segments_.size();
    for (std::size_t p = 0; p < lifted.size(); ++p) {
      const auto lr = static_cast<std::int32_t>(lifted[p].first / (2 * n));
      const auto lc = static_cast<std::int32_t>(lifted[p].first % (2 * n));
      if (segments_.size() == first || segments_.back().row != lr ||
          segments_.back().col + static_cast<std::int32_t>(
                                     segments_.back().len) != lc) {
        segments_.push_back({lr, lc, 0, static_cast<std::uint32_t>(p)});
      }
      ++segments_.back().len;
      value_order_.push_back(lifted[p].second);
    }
    // Padded value positions: kPad zeros before and after every segment.
    std::uint32_t pos = kPad;
    for (std::size_t s = first; s < segments_.size(); ++s) {
      segments_[s].start = pos;
      pos += segments_[s].len + kPad;
    }
    padded_values_ = std::max<std::size_t>(padded_values_, pos);
    if (!lifted.empty()) {
      const std::int64_t rlo = segments_[first].row;
      const std::int64_t rhi = segments_.back().row;
      std::int64_t clo = segments_[first].col;
      std::int64_t chi = clo;
      for (std::size_t s = first; s < segments_.size(); ++s) {
        clo = std::min<std::int64_t>(clo, segments_[s].col);
        chi = std::max<std::int64_t>(chi, segments_[s].col + segments_[s].len - 1);
      }
      row_span = std::max(row_span, rhi - rlo);
      col_span = std::max(col_span, chi - clo);
    }
    band_segments_.push_back(static_cast<std::uint32_t>(segments_.size()));
    band_values_.push_back(static_cast<std::uint32_t>(value_order_.size()));
  }
  rect_rows_ = static_cast<std::size_t>(row_span) + 1;
  rect_half_ = static_cast<std::int32_t>(col_span);
  const std::size_t width = 2 * static_cast<std::size_t>(rect_half_) + 1;

  // Correlation support: the offsets (dr >= 0, any dc) any segment pair
  // of any band reaches.  Only these cells are ever non-zero.
  std::vector<std::uint8_t> support(rect_rows_ * width, 0);
  for (std::size_t c = 0; c < comps; ++c) {
    for (std::uint32_t a = band_segments_[c]; a < band_segments_[c + 1]; ++a) {
      const Segment& sa = segments_[a];
      for (std::uint32_t b = band_segments_[c]; b < band_segments_[c + 1];
           ++b) {
        const Segment& sb = segments_[b];
        if (sb.row > sa.row) break;
        const std::int32_t lo =
            sa.col - (sb.col + static_cast<std::int32_t>(sb.len) - 1);
        const std::int32_t hi =
            sa.col + static_cast<std::int32_t>(sa.len) - 1 - sb.col;
        std::uint8_t* row =
            support.data() + static_cast<std::size_t>(sa.row - sb.row) * width;
        for (std::int32_t dc = lo; dc <= hi; ++dc) row[dc + rect_half_] = 1;
      }
    }
  }

  // Fold offsets mod n into grid bins; the disk is the support and its
  // mirror.  Each conjugate pair {q, -q} keeps its smaller flat bin.
  const auto wrap = [n](std::int64_t v) {
    const auto sn = static_cast<std::int64_t>(n);
    return static_cast<std::uint32_t>(((v % sn) + sn) % sn);
  };
  const auto bin_of = [&](std::int64_t dr, std::int64_t dc) {
    return wrap(dr) * un + wrap(dc);
  };
  const auto mirror = [&](std::uint32_t b) {
    return bin_of(-static_cast<std::int64_t>(b / un),
                  -static_cast<std::int64_t>(b % un));
  };
  std::vector<std::uint8_t> in_disk(n * n, 0);
  for (std::size_t dr = 0; dr < rect_rows_; ++dr) {
    for (std::int32_t dc = -rect_half_; dc <= rect_half_; ++dc) {
      if (!support[dr * width + static_cast<std::size_t>(dc + rect_half_)]) {
        continue;
      }
      const std::uint32_t b = bin_of(static_cast<std::int64_t>(dr), dc);
      in_disk[b] = 1;
      in_disk[mirror(b)] = 1;
    }
  }
  std::vector<std::int32_t> half_index(n * n, -1);
  half_.clear();
  std::vector<std::uint32_t> half_mirror;
  pair_weight_.clear();
  disk_rows_.clear();
  disk_cols_.clear();
  std::vector<std::uint8_t> col_flags(n, 0);
  for (std::uint32_t b = 0; b < un * un; ++b) {
    if (!in_disk[b]) continue;
    if (disk_rows_.empty() || disk_rows_.back() != b / un) {
      disk_rows_.push_back(b / un);
    }
    col_flags[b % un] = 1;
    const std::uint32_t m = mirror(b);
    if (b > m) continue;
    half_index[b] = static_cast<std::int32_t>(half_.size());
    half_.push_back(b);
    half_mirror.push_back(m);
    pair_weight_.push_back(b == m ? 1.0 : 2.0);
  }
  std::vector<std::uint32_t> slab_col(n, 0);
  for (std::uint32_t k = 0; k < un; ++k) {
    if (!col_flags[k]) continue;
    slab_col[k] = static_cast<std::uint32_t>(disk_cols_.size());
    disk_cols_.push_back(k);
  }
  const auto slab_index = [&](std::uint32_t b) {
    return static_cast<std::uint32_t>((b / un) * disk_cols_.size() +
                                      slab_col[b % un]);
  };
  slab_at_.clear();
  slab_mirror_.clear();
  for (std::size_t t = 0; t < half_.size(); ++t) {
    slab_at_.push_back(slab_index(half_[t]));
    slab_mirror_.push_back(slab_index(half_mirror[t]));
  }

  // A half bin sums every offset that folds onto it: a cell d of the
  // rectangle directly, and for dr > 0 the mirrored offset -d as conj.
  gather_.clear();
  for (std::size_t dr = 0; dr < rect_rows_; ++dr) {
    for (std::int32_t dc = -rect_half_; dc <= rect_half_; ++dc) {
      const std::size_t at = dr * width + static_cast<std::size_t>(dc + rect_half_);
      if (!support[at]) continue;
      const std::uint32_t b = bin_of(static_cast<std::int64_t>(dr), dc);
      if (half_index[b] >= 0) {
        gather_.push_back({static_cast<std::uint32_t>(half_index[b]),
                           static_cast<std::uint32_t>(at), false});
      }
      if (dr > 0 && half_index[mirror(b)] >= 0) {
        gather_.push_back({static_cast<std::uint32_t>(half_index[mirror(b)]),
                           static_cast<std::uint32_t>(at), true});
      }
    }
  }
  std::stable_sort(gather_.begin(), gather_.end(),
                   [](const Gather& x, const Gather& y) { return x.bin < y.bin; });

  plan_ = Fft2dPlan(n, n);
  col_plan_ = Fft1dPlan(n);
}

void SourceImageCache::fill(const ImagingModel& model, const ComplexGrid& o,
                            const RealGrid& key, ImageFill path) {
  valid_ = false;
  build_layout(model);
  const std::size_t n = dim_;
  const std::size_t comps = comps_;
  const std::size_t stride = 2 * half_.size();
  spectra_.resize(comps * stride);
  half_acc_.resize(stride);

  const bool autocorrelation =
      path == ImageFill::kAuto ? image_fill_uses_autocorrelation(model)
                               : path == ImageFill::kAutocorrelation;
  const std::size_t slots = reduction_slots(comps);
  if (slot_scratch_.size() < slots) slot_scratch_.resize(slots);
  const std::size_t rect = rect_rows_ * (2 * static_cast<std::size_t>(rect_half_) + 1);
  for (std::size_t s = 0; s < slots; ++s) {
    // Slot 0's slab and row buffer also serve intensity() and dots().
    SlotScratch& scratch = slot_scratch_[s];
    if (autocorrelation) {
      scratch.rect.resize(rect);
      scratch.vals.resize(padded_values_);
    }
    if (!autocorrelation || s == 0) {
      scratch.slab.resize(n * disk_cols_.size());
      scratch.rows.resize(kRowBlock / 2 * n);
    }
    scratch.fft.resize(plan_.scratch_size());
  }

  WorkspaceSet& set = model.workspaces();
  run_slots(model, slots, [&](std::size_t s) {
    // bismo-lint: no-alloc-begin
    // One point per iteration, each written only from its own band: the
    // spectra do not depend on the slot partition.
    const SlotRange range = slot_range(s, slots, comps);
    SlotScratch& scratch = slot_scratch_[s];
    if (autocorrelation) {
      for (std::size_t c = range.begin; c < range.end; ++c) {
        fill_autocorrelation(model, o, c, scratch);
      }
      return;
    }
    SimWorkspace& ws = set.at(s);
    ws.ensure(n);
    for (std::size_t c = range.begin; c < range.end; ++c) {
      fill_chain(model, o, c, ws, scratch);
    }
    // bismo-lint: no-alloc-end
  });
  key_ = key;
  kernel_ = &fft::active_kernel();
  valid_ = true;
}

// bismo-lint: no-alloc-begin
// Fill bodies: every buffer is sized by fill() before its pooled pass, so
// neither path touches the heap once warmed.
void SourceImageCache::fill_autocorrelation(const ImagingModel& model,
                                            const ComplexGrid& o,
                                            std::size_t c,
                                            SlotScratch& scratch) {
  const BandRef band = model.component_band(c);
  const std::size_t width = 2 * static_cast<std::size_t>(rect_half_) + 1;
  std::complex<double>* rect = scratch.rect.data();
  std::fill_n(rect, scratch.rect.size(), std::complex<double>{});

  // F = o .* pupil over the band, segment by segment, with kPad zeros
  // around every segment.
  const Segment* segs = segments_.data() + band_segments_[c];
  const std::size_t nseg = band_segments_[c + 1] - band_segments_[c];
  std::complex<double>* vals = scratch.vals.data();
  std::fill_n(vals, scratch.vals.size(), std::complex<double>{});
  const std::uint32_t* order = value_order_.data() + band_values_[c];
  for (std::size_t a = 0; a < nseg; ++a) {
    for (std::uint32_t i = 0; i < segs[a].len; ++i, ++order) {
      vals[segs[a].start + i] =
          band.vals != nullptr ? o.data()[band.bins[*order]] * band.vals[*order]
                               : o.data()[band.bins[*order]];
    }
  }

  // rect[dr][dc] = sum F(a) conj F(b) over bin pairs a - b = (dr, dc),
  // dr >= 0: per segment pair (A, B) with row_B <= row_A, the 1-D
  // cross-correlation of their values lands on row row_A - row_B with lag
  // 0 at column offset col_A - col_B.
  const fft::FftKernel& kernel = fft::active_kernel();
  for (std::size_t a = 0; a < nseg; ++a) {
    const Segment& sa = segs[a];
    for (std::size_t b = 0; b < nseg; ++b) {
      const Segment& sb = segs[b];
      if (sb.row > sa.row) break;
      const std::ptrdiff_t lag0 =
          static_cast<std::ptrdiff_t>(sa.row - sb.row) *
              static_cast<std::ptrdiff_t>(width) +
          rect_half_ + (sa.col - sb.col);
      kernel.xcorr_accumulate(vals + sa.start, sa.len, vals + sb.start,
                              sb.len, rect + lag0);
    }
  }

  double* dst = spectra_.data() + c * 2 * half_.size();
  std::fill_n(dst, 2 * half_.size(), 0.0);
  for (const Gather& g : gather_) {
    dst[2 * g.bin] += rect[g.at].real();
    dst[2 * g.bin + 1] += g.conj ? -rect[g.at].imag() : rect[g.at].imag();
  }
  const double inv_n2 = 1.0 / (static_cast<double>(dim_) * static_cast<double>(dim_));
  for (std::size_t i = 0; i < 2 * half_.size(); ++i) dst[i] *= inv_n2;
}

void SourceImageCache::fill_chain(const ImagingModel& model,
                                  const ComplexGrid& o, std::size_t c,
                                  SimWorkspace& ws, SlotScratch& scratch) {
  WorkspaceSet& set = model.workspaces();
  RealGrid& image = ws.intensity_accum();
  image.fill(0.0);
  ComplexGrid* dest = set.capturing() ? &set.capture_slot(c) : nullptr;
  ws.forward_field(o, model.component_band(c), &image, 1.0, dest);
  project(image.data(), scratch);
  double* dst = spectra_.data() + c * 2 * half_.size();
  for (std::size_t t = 0; t < half_.size(); ++t) {
    dst[2 * t] = scratch.slab[slab_at_[t]].real();
    dst[2 * t + 1] = scratch.slab[slab_at_[t]].imag();
  }
}
// bismo-lint: no-alloc-end

template <typename Body>
void SourceImageCache::for_row_blocks(SlotScratch& scratch,
                                      const Body& body) const {
  for (std::size_t row = 0; row < dim_; row += kRowBlock) {
    body(scratch.rows.data(), scratch.fft.data(), row,
         std::min(kRowBlock, dim_ - row));
  }
}

void SourceImageCache::slab_columns(SlotScratch& scratch,
                                    bool inverse) const {
  // bismo-lint: no-alloc-begin
  const std::size_t width = disk_cols_.size();
  col_plan_.transform_columns(scratch.slab.data(), width, width, inverse);
  // bismo-lint: no-alloc-end
}

void SourceImageCache::project(const double* w, SlotScratch& scratch) const {
  // bismo-lint: no-alloc-begin
  // Row transforms per block, kept on the disk columns, then the slab's
  // column transforms.  The rows are real, so row pairs share one complex
  // transform Z = FFT(w_r + i w_r+1) and split as
  // W_r(c) = (Z(c) + conj Z(-c)) / 2,  W_r+1(c) = (Z(c) - conj Z(-c)) / 2i.
  const std::size_t n = dim_;
  const std::size_t width = disk_cols_.size();
  for_row_blocks(scratch, [&](std::complex<double>* buf,
                              std::complex<double>* fft, std::size_t row,
                              std::size_t rows) {
    const std::size_t pairs = (rows + 1) / 2;
    for (std::size_t p = 0; p < pairs; ++p) {
      const double* re = w + (row + 2 * p) * n;
      const double* im = 2 * p + 1 < rows ? re + n : nullptr;
      for (std::size_t c = 0; c < n; ++c) {
        buf[p * n + c] = std::complex<double>(re[c], im != nullptr ? im[c] : 0.0);
      }
    }
    plan_.transform_rows(buf, pairs, /*inverse=*/false, fft);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::complex<double>* z = buf + (r / 2) * n;
      std::complex<double>* to = scratch.slab.data() + (row + r) * width;
      for (std::size_t c = 0; c < width; ++c) {
        const std::uint32_t col = disk_cols_[c];
        const std::complex<double> zc = z[col];
        const std::complex<double> zm = std::conj(z[col == 0 ? 0 : n - col]);
        to[c] = r % 2 == 0 ? 0.5 * (zc + zm)
                           : std::complex<double>(0.5 * (zc - zm).imag(),
                                                  -0.5 * (zc - zm).real());
      }
    }
  });
  slab_columns(scratch, /*inverse=*/false);
  // bismo-lint: no-alloc-end
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
  if (!valid_ || model.grid_dim() != dim_) {
    throw std::logic_error("SourceImageCache::intensity: not filled");
  }
  const std::size_t n = dim_;
  if (out.rows() != n || out.cols() != n) out.resize(n, n);
  // bismo-lint: no-alloc-begin
  if (comps.empty()) {
    out.fill(0.0);
    return;
  }
  const std::size_t stride = 2 * half_.size();
  double* acc = half_acc_.data();
  std::fill_n(acc, stride, 0.0);
  for (std::size_t k = 0; k < comps.size(); ++k) {
    const double w = weights[k];
    const double* p = spectra_.data() + comps[k] * stride;
    for (std::size_t i = 0; i < stride; ++i) acc[i] += w * p[i];
  }
  // The Hermitian spectrum on the disk columns, then the inverse
  // transform: columns on the slab, rows per block.  Only the disk columns
  // of a row are non-zero, and every row transforms to a real row, so row
  // pairs share one complex transform (row r in the real part, r + 1 in
  // the imaginary part).
  SlotScratch& scratch = slot_scratch_[0];
  std::vector<std::complex<double>>& slab = scratch.slab;
  std::fill(slab.begin(), slab.end(), std::complex<double>{});
  for (std::size_t t = 0; t < half_.size(); ++t) {
    const std::complex<double> v(acc[2 * t], acc[2 * t + 1]);
    slab[slab_at_[t]] = v;
    if (slab_mirror_[t] != slab_at_[t]) slab[slab_mirror_[t]] = std::conj(v);
  }
  slab_columns(scratch, /*inverse=*/true);
  const std::size_t width = disk_cols_.size();
  const double inv_n2 = 1.0 / (static_cast<double>(n) * static_cast<double>(n));
  for_row_blocks(scratch, [&](std::complex<double>* buf,
                              std::complex<double>* fft, std::size_t row,
                              std::size_t rows) {
    const std::size_t pairs = (rows + 1) / 2;
    std::fill_n(buf, pairs * n, std::complex<double>{});
    for (std::size_t r = 0; r < rows; ++r) {
      const std::complex<double>* from = slab.data() + (row + r) * width;
      std::complex<double>* to = buf + (r / 2) * n;
      if (r % 2 == 0) {
        for (std::size_t c = 0; c < width; ++c) to[disk_cols_[c]] = from[c];
      } else {
        const std::complex<double> i1(0.0, 1.0);
        for (std::size_t c = 0; c < width; ++c) to[disk_cols_[c]] += i1 * from[c];
      }
    }
    plan_.transform_rows(buf, pairs, /*inverse=*/true, fft);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::complex<double>* from = buf + (r / 2) * n;
      double* to = out.data() + (row + r) * n;
      if (r % 2 == 0) {
        for (std::size_t c = 0; c < n; ++c) to[c] = from[c].real() * inv_n2;
      } else {
        for (std::size_t c = 0; c < n; ++c) to[c] = from[c].imag() * inv_n2;
      }
    }
  });
  // bismo-lint: no-alloc-end
}

void SourceImageCache::dots(const ImagingModel& model, const double* w,
                            std::vector<double>& out) const {
  if (!valid_ || model.grid_dim() != dim_) {
    throw std::logic_error("SourceImageCache::dots: not filled");
  }
  out.resize(comps_);
  // bismo-lint: no-alloc-begin
  // sum_i w[i] P_c[i] = (1/n^2) sum_q P^_c(q) conj W^(q) over the disk;
  // a conjugate pair contributes twice the real part of one term.
  SlotScratch& scratch = slot_scratch_[0];
  project(w, scratch);
  const std::size_t n = dim_;
  const double inv_n2 =
      1.0 / (static_cast<double>(n) * static_cast<double>(n));
  double* pair = half_acc_.data();
  for (std::size_t t = 0; t < half_.size(); ++t) {
    const std::complex<double> v = scratch.slab[slab_at_[t]];
    const double s = pair_weight_[t] * inv_n2;
    pair[2 * t] = s * v.real();
    pair[2 * t + 1] = s * v.imag();
  }
  const std::size_t stride = 2 * half_.size();
  for (std::size_t c = 0; c < comps_; ++c) {
    const double* p = spectra_.data() + c * stride;
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= stride; i += 4) {
      s0 += p[i] * pair[i];
      s1 += p[i + 1] * pair[i + 1];
      s2 += p[i + 2] * pair[i + 2];
      s3 += p[i + 3] * pair[i + 3];
    }
    for (; i < stride; ++i) s0 += p[i] * pair[i];
    out[c] = (s0 + s2) + (s1 + s3);
  }
  // bismo-lint: no-alloc-end
}

}  // namespace bismo::sim
