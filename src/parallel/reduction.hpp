// Deterministic parallel reduction policy.
//
// Accumulating floating-point contributions in parallel is only
// reproducible if the summation tree is fixed.  Every parallel reduction in
// the imaging and gradient engines therefore partitions its work items into
// a *constant* number of slots (independent of the thread-pool width), each
// slot sums its fixed index range in order, and the per-slot partials are
// combined in slot order.  Result: bitwise-identical output for any thread
// count, including serial execution.
//
// The slot-order combine itself is a dense elementwise add over full grids,
// so it runs through the vectorized kernel layer (fft/kernels/) -- the
// combine tree stays fixed, only the per-element arithmetic widens.
#ifndef BISMO_PARALLEL_REDUCTION_HPP
#define BISMO_PARALLEL_REDUCTION_HPP

#include <algorithm>
#include <complex>
#include <cstddef>

#include "fft/kernels/kernel.hpp"
#include "math/grid2d.hpp"

namespace bismo {

/// Fixed slot count for deterministic reductions.  16 comfortably exceeds
/// the core counts this CPU reproduction targets while keeping per-slot
/// accumulator memory negligible.
inline constexpr std::size_t kReductionSlots = 16;

/// Number of slots actually used for `n` work items.
inline std::size_t reduction_slots(std::size_t n) {
  return std::max<std::size_t>(1, std::min(kReductionSlots, n));
}

/// Item range [begin, end) of one reduction slot.
struct SlotRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The static partition every pooled pass shares: slot `slot` of `slots`
/// owns a contiguous, in-order share of `count` items.
inline SlotRange slot_range(std::size_t slot, std::size_t slots,
                            std::size_t count) {
  return {slot * count / slots, (slot + 1) * count / slots};
}

/// Combine per-slot real partials into `out` in slot order: for each
/// s in [0, nslots), out += partial(s).  `partial` returns the slot's
/// accumulator grid (shape must match `out`).
template <typename Partial>
void combine_slot_partials(RealGrid& out, std::size_t nslots,
                           const Partial& partial) {
  const fft::FftKernel& kernel = fft::active_kernel();
  for (std::size_t s = 0; s < nslots; ++s) {
    const RealGrid& p = partial(s);
    kernel.add_real(out.data(), p.data(), out.size());
  }
}

/// Complex-grid counterpart of `combine_slot_partials`.
template <typename Partial>
void combine_slot_partials(ComplexGrid& out, std::size_t nslots,
                           const Partial& partial) {
  const fft::FftKernel& kernel = fft::active_kernel();
  for (std::size_t s = 0; s < nslots; ++s) {
    const ComplexGrid& p = partial(s);
    kernel.add_complex(out.data(), p.data(), out.size());
  }
}

}  // namespace bismo

#endif  // BISMO_PARALLEL_REDUCTION_HPP
