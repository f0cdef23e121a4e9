#include "net/wire.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

namespace bismo::net {
namespace {

// Plausibility caps applied by the reader: a corrupt length field must
// throw, never trigger a multi-gigabyte allocation.
constexpr std::size_t kMaxString = std::size_t{1} << 20;    // 1 MiB
constexpr std::size_t kMaxGridSide = std::size_t{1} << 14;  // 16384 px
constexpr std::size_t kMaxList = std::size_t{1} << 20;

/// Reject a decoded count whose entries, at no fewer than `min_bytes`
/// each, would need more than the bytes left in the payload -- checked
/// before anything is sized from the count.
void check_count_fits(const WireReader& r, std::size_t count,
                      std::size_t min_bytes, const char* message) {
  if (count > r.remaining() / min_bytes) throw WireError(message);
}

template <typename Enum>
Enum decode_enum(WireReader& r, std::uint8_t max_value, const char* what) {
  const std::uint8_t raw = r.u8();
  if (raw > max_value) {
    throw WireError(std::string("wire: out-of-range ") + what + " value " +
                    std::to_string(raw));
  }
  return static_cast<Enum>(raw);
}

void encode_layout(WireWriter& w, const Layout& layout) {
  w.f64(layout.tile_nm());
  w.u32(static_cast<std::uint32_t>(layout.rects().size()));
  for (const Rect& rect : layout.rects()) {
    w.f64(rect.x0);
    w.f64(rect.y0);
    w.f64(rect.x1);
    w.f64(rect.y1);
  }
}

Layout decode_layout(WireReader& r) {
  const double tile_nm = r.f64();
  const std::uint32_t count = r.u32();
  if (count > kMaxList) throw WireError("wire: implausible rect count");
  Layout layout(tile_nm);
  for (std::uint32_t i = 0; i < count; ++i) {
    Rect rect;
    rect.x0 = r.f64();
    rect.y0 = r.f64();
    rect.x1 = r.f64();
    rect.y1 = r.f64();
    try {
      layout.add_rect(rect);
    } catch (const std::exception& e) {
      // Geometry the Layout itself rejects is corrupt wire data.
      throw WireError(std::string("wire: bad layout rect: ") + e.what());
    }
  }
  return layout;
}

void encode_clip(WireWriter& w, const api::ClipSource& clip) {
  w.u8(static_cast<std::uint8_t>(clip.kind));
  w.str(clip.layout_path);
  encode_layout(w, clip.layout);
  w.u8(static_cast<std::uint8_t>(clip.dataset));
  w.u64(clip.seed);
  w.grid(clip.grid);
}

api::ClipSource decode_clip(WireReader& r) {
  api::ClipSource clip;
  clip.kind = decode_enum<api::ClipSource::Kind>(
      r, static_cast<std::uint8_t>(api::ClipSource::Kind::kRawGrid),
      "ClipSource::Kind");
  clip.layout_path = r.str();
  clip.layout = decode_layout(r);
  clip.dataset = decode_enum<DatasetKind>(
      r, static_cast<std::uint8_t>(DatasetKind::kIspd19), "DatasetKind");
  clip.seed = r.u64();
  clip.grid = r.grid();
  return clip;
}

void encode_step(WireWriter& w, const StepRecord& step) {
  w.i32(step.step);
  w.f64(step.loss);
  w.f64(step.l2);
  w.f64(step.pvb);
  w.f64(step.seconds);
}

StepRecord decode_step(WireReader& r) {
  StepRecord step;
  step.step = r.i32();
  step.loss = r.f64();
  step.l2 = r.f64();
  step.pvb = r.f64();
  step.seconds = r.f64();
  return step;
}

void encode_metrics(WireWriter& w, const SolutionMetrics& m) {
  w.f64(m.l2_nm2);
  w.f64(m.pvb_nm2);
  w.u64(m.epe_violations);
  w.u64(m.epe_samples);
  w.f64(m.loss);
}

SolutionMetrics decode_metrics(WireReader& r) {
  SolutionMetrics m;
  m.l2_nm2 = r.f64();
  m.pvb_nm2 = r.f64();
  m.epe_violations = static_cast<std::size_t>(r.u64());
  m.epe_samples = static_cast<std::size_t>(r.u64());
  m.loss = r.f64();
  return m;
}

}  // namespace

void WireWriter::u16(std::uint16_t value) {
  buf_.push_back(static_cast<std::uint8_t>(value & 0xff));
  buf_.push_back(static_cast<std::uint8_t>(value >> 8));
}

void WireWriter::u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

void WireWriter::u64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

void WireWriter::f64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "IEEE-754 double expected");
  std::memcpy(&bits, &value, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& value) {
  if (value.size() > kMaxString) {
    throw WireError("wire: string exceeds the 1 MiB wire cap");
  }
  u32(static_cast<std::uint32_t>(value.size()));
  buf_.insert(buf_.end(), value.begin(), value.end());
}

void WireWriter::grid(const RealGrid& value) {
  if (value.rows() > kMaxGridSide || value.cols() > kMaxGridSide) {
    throw WireError("wire: grid exceeds the wire side cap");
  }
  u32(static_cast<std::uint32_t>(value.rows()));
  u32(static_cast<std::uint32_t>(value.cols()));
  for (std::size_t i = 0; i < value.size(); ++i) f64(value.data()[i]);
}

const std::uint8_t* WireReader::need(std::size_t count) {
  if (count > size_ - pos_) {
    throw WireError("wire: truncated payload (need " + std::to_string(count) +
                    " bytes, have " + std::to_string(size_ - pos_) + ")");
  }
  const std::uint8_t* at = data_ + pos_;
  pos_ += count;
  return at;
}

std::uint8_t WireReader::u8() { return *need(1); }

std::uint16_t WireReader::u16() {
  const std::uint8_t* p = need(2);
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t WireReader::u32() {
  const std::uint8_t* p = need(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= std::uint32_t{p[i]} << (8 * i);
  return value;
}

std::uint64_t WireReader::u64() {
  const std::uint8_t* p = need(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= std::uint64_t{p[i]} << (8 * i);
  return value;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string WireReader::str() {
  const std::uint32_t size = u32();
  if (size > kMaxString) throw WireError("wire: implausible string length");
  const std::uint8_t* p = need(size);
  return std::string(reinterpret_cast<const char*>(p), size);
}

RealGrid WireReader::grid() {
  const std::uint32_t rows = u32();
  const std::uint32_t cols = u32();
  if (rows > kMaxGridSide || cols > kMaxGridSide) {
    throw WireError("wire: implausible grid dimensions");
  }
  if ((rows == 0) != (cols == 0)) {
    throw WireError("wire: degenerate grid shape");
  }
  if (rows == 0) return RealGrid();
  check_count_fits(*this, std::size_t{rows} * cols, sizeof(double),
                   "wire: grid larger than the payload");
  RealGrid value(rows, cols);
  for (std::size_t i = 0; i < value.size(); ++i) value.data()[i] = f64();
  return value;
}

void WireReader::expect_end() const {
  if (!at_end()) {
    throw WireError("wire: " + std::to_string(remaining()) +
                    " trailing bytes after payload");
  }
}

void encode_config(WireWriter& w, const SmoConfig& config) {
  visit_config_fields(config, [&w](const ConfigField&, auto value) {
    using T = decltype(value);
    if constexpr (std::is_same_v<T, double>) {
      w.f64(value);
    } else if constexpr (std::is_same_v<T, int>) {
      w.i32(value);
    } else if constexpr (std::is_same_v<T, std::size_t>) {
      w.u64(value);
    } else {
      static_assert(std::is_enum_v<T>, "unsupported config field type");
      w.u8(static_cast<std::uint8_t>(value));
    }
  });
}

SmoConfig decode_config(WireReader& r) {
  SmoConfig config;
  visit_config_fields(config, [&r](const ConfigField& field, auto& member) {
    using T = std::decay_t<decltype(member)>;
    if constexpr (std::is_same_v<T, double>) {
      member = r.f64();
    } else if constexpr (std::is_same_v<T, int>) {
      member = r.i32();
    } else if constexpr (std::is_same_v<T, std::size_t>) {
      member = static_cast<std::size_t>(r.u64());
    } else {
      member = decode_enum<T>(
          r, static_cast<std::uint8_t>(enum_names(T{}).size() - 1),
          field.path);
    }
  });
  return config;
}

void encode_job_spec(WireWriter& w, const api::JobSpec& spec) {
  w.str(spec.name);
  encode_clip(w, spec.clip);
  w.u8(static_cast<std::uint8_t>(spec.method));
  encode_config(w, spec.config);
  if (spec.config_overrides.size() > kMaxList) {
    throw WireError("wire: implausible override count");
  }
  w.u32(static_cast<std::uint32_t>(spec.config_overrides.size()));
  for (const std::string& pair : spec.config_overrides) w.str(pair);
  w.boolean(spec.evaluate_solution);
}

api::JobSpec decode_job_spec(WireReader& r) {
  api::JobSpec spec;
  spec.name = r.str();
  spec.clip = decode_clip(r);
  spec.method = decode_enum<Method>(
      r, static_cast<std::uint8_t>(Method::kBismoNmn), "Method");
  spec.config = decode_config(r);
  const std::uint32_t overrides = r.u32();
  if (overrides > kMaxList) throw WireError("wire: implausible override count");
  check_count_fits(r, overrides, 4,  // a u32 length each
                   "wire: override count larger than the payload");
  spec.config_overrides.reserve(overrides);
  for (std::uint32_t i = 0; i < overrides; ++i) {
    spec.config_overrides.push_back(r.str());
  }
  spec.evaluate_solution = r.boolean();
  return spec;
}

void encode_job_result(WireWriter& w, const api::JobResult& result) {
  w.str(result.job_name);
  w.str(result.method);
  w.str(result.clip);
  w.str(result.run.method);
  w.grid(result.run.theta_m);
  w.grid(result.run.theta_j);
  if (result.run.trace.size() > kMaxList) {
    throw WireError("wire: implausible trace length");
  }
  w.u32(static_cast<std::uint32_t>(result.run.trace.size()));
  for (const StepRecord& step : result.run.trace) encode_step(w, step);
  w.f64(result.run.wall_seconds);
  w.i64(result.run.gradient_evaluations);
  w.boolean(result.run.cancelled);
  encode_metrics(w, result.before);
  encode_metrics(w, result.after);
  w.f64(result.setup_seconds);
  w.f64(result.total_seconds);
  w.f64(result.queued_ms);
  w.f64(result.run_ms);
  w.boolean(result.workspaces_reused);
  w.u64(result.workspace_evictions);
  w.u64(result.queue_depth);
  w.boolean(result.shed);
  w.u64(result.retries);
  w.str(result.fft_backend);
  w.str(result.error);
}

api::JobResult decode_job_result(WireReader& r) {
  api::JobResult result;
  result.job_name = r.str();
  result.method = r.str();
  result.clip = r.str();
  result.run.method = r.str();
  result.run.theta_m = r.grid();
  result.run.theta_j = r.grid();
  const std::uint32_t steps = r.u32();
  if (steps > kMaxList) throw WireError("wire: implausible trace length");
  check_count_fits(r, steps, 36,  // i32 + 4 x f64 each
                   "wire: trace length larger than the payload");
  result.run.trace.reserve(steps);
  for (std::uint32_t i = 0; i < steps; ++i) {
    result.run.trace.push_back(decode_step(r));
  }
  result.run.wall_seconds = r.f64();
  result.run.gradient_evaluations = static_cast<long>(r.i64());
  result.run.cancelled = r.boolean();
  result.before = decode_metrics(r);
  result.after = decode_metrics(r);
  result.setup_seconds = r.f64();
  result.total_seconds = r.f64();
  result.queued_ms = r.f64();
  result.run_ms = r.f64();
  result.workspaces_reused = r.boolean();
  result.workspace_evictions = static_cast<std::size_t>(r.u64());
  result.queue_depth = static_cast<std::size_t>(r.u64());
  result.shed = r.boolean();
  result.retries = static_cast<std::size_t>(r.u64());
  result.fft_backend = r.str();
  result.error = r.str();
  return result;
}

void encode_job_event(WireWriter& w, const api::JobEvent& event) {
  w.u8(static_cast<std::uint8_t>(event.kind));
  w.u64(event.job_id);
  w.str(event.job_name);
  w.str(event.method);
  w.u8(static_cast<std::uint8_t>(event.status));
  w.u64(event.batch_index);
  w.u64(event.batch_count);
  encode_step(w, event.step);
  w.i32(event.planned_steps);
  w.f64(event.queued_ms);
  w.f64(event.run_ms);
}

api::JobEvent decode_job_event(WireReader& r) {
  api::JobEvent event;
  event.kind = decode_enum<api::JobEvent::Kind>(
      r, static_cast<std::uint8_t>(api::JobEvent::Kind::kFinished),
      "JobEvent::Kind");
  event.job_id = r.u64();
  event.job_name = r.str();
  event.method = r.str();
  event.status = decode_enum<api::JobStatus>(
      r, static_cast<std::uint8_t>(api::JobStatus::kCancelled), "JobStatus");
  event.batch_index = static_cast<std::size_t>(r.u64());
  event.batch_count = static_cast<std::size_t>(r.u64());
  event.step = decode_step(r);
  event.planned_steps = r.i32();
  event.queued_ms = r.f64();
  event.run_ms = r.f64();
  return event;
}

void encode_stats(WireWriter& w, const api::Session::Stats& stats) {
  w.u64(stats.jobs_submitted);
  w.u64(stats.jobs_run);
  w.u64(stats.jobs_cancelled);
  w.u64(stats.workspace_reuses);
  w.u64(stats.workspace_evictions);
  w.u64(stats.lane_pool_reuses);
  w.u64(stats.queue_depth);
  w.u64(stats.jobs_executing);
  w.u64(stats.steals);
  w.u64(stats.coalesced_jobs);
  w.u64(stats.jobs_shed);
  w.u64(stats.jobs_rejected);
}

api::Session::Stats decode_stats(WireReader& r) {
  api::Session::Stats stats;
  stats.jobs_submitted = static_cast<std::size_t>(r.u64());
  stats.jobs_run = static_cast<std::size_t>(r.u64());
  stats.jobs_cancelled = static_cast<std::size_t>(r.u64());
  stats.workspace_reuses = static_cast<std::size_t>(r.u64());
  stats.workspace_evictions = static_cast<std::size_t>(r.u64());
  stats.lane_pool_reuses = static_cast<std::size_t>(r.u64());
  stats.queue_depth = static_cast<std::size_t>(r.u64());
  stats.jobs_executing = static_cast<std::size_t>(r.u64());
  stats.steals = static_cast<std::size_t>(r.u64());
  stats.coalesced_jobs = static_cast<std::size_t>(r.u64());
  stats.jobs_shed = static_cast<std::size_t>(r.u64());
  stats.jobs_rejected = static_cast<std::size_t>(r.u64());
  return stats;
}

bool wire_self_check(std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  try {
    // A spec exercising every clip payload field plus overrides.
    api::JobSpec spec;
    spec.name = "self-check";
    spec.clip = api::ClipSource::generated(DatasetKind::kIccadL, 7);
    spec.method = Method::kBismoCg;
    spec.config.optics.mask_dim = 48;
    spec.config.outer_steps = 2;
    spec.config_overrides = {"lr_mask=0.05", "source_dim=9"};
    spec.evaluate_solution = false;

    WireWriter spec_bytes;
    encode_job_spec(spec_bytes, spec);
    WireReader spec_reader(spec_bytes.bytes());
    const api::JobSpec spec2 = decode_job_spec(spec_reader);
    spec_reader.expect_end();
    WireWriter spec_bytes2;
    encode_job_spec(spec_bytes2, spec2);
    if (spec_bytes.bytes() != spec_bytes2.bytes()) {
      return fail("JobSpec re-encoding differs");
    }
    if (spec2.coalesce_fingerprint() != spec.coalesce_fingerprint()) {
      return fail("JobSpec fingerprint changed across the wire");
    }

    // A result with grids, a trace, and non-finite metric fields.
    api::JobResult result;
    result.job_name = spec.name;
    result.method = "BiSMO-CG";
    result.run.theta_m = RealGrid(4, 4, 0.25);
    result.run.theta_j = RealGrid(3, 3, -1.5);
    result.run.trace = {StepRecord{0, 10.0, 5.0, 5.0, 0.1},
                        StepRecord{1, 8.0, 4.0, 4.0, 0.2}};
    result.before.loss = std::numeric_limits<double>::infinity();
    result.after.l2_nm2 = std::numeric_limits<double>::quiet_NaN();
    result.retries = 2;
    result.fft_backend = "scalar";

    WireWriter result_bytes;
    encode_job_result(result_bytes, result);
    WireReader result_reader(result_bytes.bytes());
    const api::JobResult result2 = decode_job_result(result_reader);
    result_reader.expect_end();
    WireWriter result_bytes2;
    encode_job_result(result_bytes2, result2);
    if (result_bytes.bytes() != result_bytes2.bytes()) {
      return fail("JobResult re-encoding differs");
    }
    if (!(result2.run.theta_m == result.run.theta_m) ||
        !std::isnan(result2.after.l2_nm2)) {
      return fail("JobResult payload changed across the wire");
    }

    api::JobEvent event;
    event.kind = api::JobEvent::Kind::kStep;
    event.job_id = 42;
    event.job_name = spec.name;
    event.status = api::JobStatus::kRunning;
    event.step = StepRecord{3, 7.5, 3.0, 4.5, 0.3};
    WireWriter event_bytes;
    encode_job_event(event_bytes, event);
    WireReader event_reader(event_bytes.bytes());
    const api::JobEvent event2 = decode_job_event(event_reader);
    event_reader.expect_end();
    WireWriter event_bytes2;
    encode_job_event(event_bytes2, event2);
    if (event_bytes.bytes() != event_bytes2.bytes()) {
      return fail("JobEvent re-encoding differs");
    }

    api::Session::Stats stats;
    stats.jobs_submitted = 11;
    stats.coalesced_jobs = 3;
    WireWriter stats_bytes;
    encode_stats(stats_bytes, stats);
    WireReader stats_reader(stats_bytes.bytes());
    const api::Session::Stats stats2 = decode_stats(stats_reader);
    stats_reader.expect_end();
    if (stats2.jobs_submitted != 11 || stats2.coalesced_jobs != 3) {
      return fail("Stats payload changed across the wire");
    }
  } catch (const std::exception& e) {
    return fail(std::string("self-check raised: ") + e.what());
  }
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace bismo::net
