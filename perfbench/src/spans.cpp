#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_map>

#include "io/json.hpp"

namespace perfbench {
namespace {

thread_local std::vector<std::uint64_t> open_scopes;

}  // namespace

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = pct / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Span::attr(const std::string& key, double fallback) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return fallback;
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (span.id == 0) span.id = next_id_++;
  spans_.push_back(std::move(span));
}

std::uint64_t Tracer::current() {
  return open_scopes.empty() ? 0 : open_scopes.back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, double> child_ms;
  for (const Span& s : all) {
    if (s.parent != 0) child_ms[s.parent] += s.ms();
  }
  bismo::JsonWriter w(out, 0);
  w.begin_object();
  w.key("spans").begin_array();
  for (const Span& s : all) {
    w.begin_object();
    w.key("id").value(static_cast<std::size_t>(s.id));
    w.key("parent").value(static_cast<std::size_t>(s.parent));
    w.key("job").value(static_cast<std::size_t>(s.job));
    w.key("name").value(s.name);
    w.key("start_s").value(s.start_s);
    w.key("end_s").value(s.end_s);
    const auto children = child_ms.find(s.id);
    w.key("self_ms").value(s.ms() - (children == child_ms.end()
                                         ? 0.0
                                         : children->second));
    if (!s.attrs.empty()) {
      w.key("attrs").begin_object();
      for (const auto& [k, v] : s.attrs) w.key(k).value(v);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  return static_cast<bool>(out);
}

Scope::Scope(Tracer& tracer, const char* name, std::uint64_t job,
             std::uint64_t parent)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.id = tracer_.next_id();
  span_.parent = parent != 0 ? parent : Tracer::current();
  span_.job = job;
  span_.name = name;
  open_scopes.push_back(span_.id);
  span_.start_s = now_s();
}

Scope::~Scope() {
  if (!tracer_.enabled()) return;
  span_.end_s = now_s();
  open_scopes.pop_back();
  tracer_.record(std::move(span_));
}

void Scope::attr(const char* key, double value) {
  if (tracer_.enabled()) span_.attrs.emplace_back(key, value);
}

SpanIndex::SpanIndex(std::vector<Span> spans) : spans_(std::move(spans)) {}

std::vector<const Span*> SpanIndex::named(const std::string& name) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

std::vector<double> SpanIndex::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span* s : named(name)) out.push_back(s->ms());
  return out;
}

std::vector<double> SpanIndex::attr_values(const std::string& name,
                                           const std::string& key) const {
  std::vector<double> out;
  for (const Span* s : named(name)) {
    for (const auto& [k, v] : s->attrs) {
      if (k == key) {
        out.push_back(v);
        break;
      }
    }
  }
  return out;
}

}  // namespace perfbench
