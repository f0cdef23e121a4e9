// In-memory span recorder and the small statistics the benchmark reports.
//
// A span is one timed call the benchmark makes into a BiSMO layer: a name
// ("grad.evaluate.full", "api.submit", ...), start and end on the
// steady clock, the span that caused it, the request (job) it belongs to,
// and numeric attributes taken from what the call returned (JobResult
// counters, encoded byte counts, ...).  Spans are kept in memory and
// written out once when the run ends; the per-layer metrics are derived
// from them (`SpanIndex`).  A disabled Tracer records nothing, so the
// untraced runs that produce the end-to-end metrics pay one branch per
// call site.
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Linear-interpolated percentile `pct` in [0, 100] (0 when empty).
double percentile(std::vector<double> values, double pct);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t job = 0;     ///< request id shared by a request's spans
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<std::pair<std::string, double>> attrs;

  double ms() const { return (end_s - start_s) * 1e3; }
  /// Attribute value, or `fallback` when absent.
  double attr(const std::string& key, double fallback = 0.0) const;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// A fresh span id (spans whose id must be known before they end, such
  /// as a request that is the parent of its submit call).
  std::uint64_t next_id();

  /// Record a finished span; no-op when disabled.
  void record(Span span);

  /// Innermost open Scope on this thread (0 when none).
  static std::uint64_t current();

  std::vector<Span> spans() const;

  /// Write every span as JSON to `path`, each with its self time: its
  /// duration minus that of its child spans (false on I/O error).
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span around one call.  Nested scopes on one thread become child
/// spans of the enclosing scope.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t job,
        std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void attr(const char* key, double value);
  std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Query helpers over a finished span list.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<Span> spans);

  /// Durations (ms) of every span named `name`.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Values of attribute `key` over spans named `name` that carry it.
  std::vector<double> attr_values(const std::string& name,
                                  const std::string& key) const;

  /// Spans named `name`, in recording order.
  std::vector<const Span*> named(const std::string& name) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
