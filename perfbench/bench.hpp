// Shared pieces of the commit-path benchmark: wall clock, span log, sample
// statistics and the metric record every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Wall-clock nanoseconds since the process's first call. Every timing in
/// the benchmark comes from here (steady_clock, never thread CPU time).
inline std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

/// Quantile with linear interpolation between order statistics (q in
/// [0, 1]). Empty -> 0.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// One span around a call into the program: name, wall start/end, the span
/// that caused it, the consensus index it belongs to and, for an own client
/// transaction, its hash.
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t index = 0;
  srbb::Hash32 tx;
  bool has_tx = false;
};

/// In-memory span log, written out once at exit. Disabled, open() returns
/// -1 and close() does nothing, so the untraced run pays one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  std::int32_t open(const char* name, std::uint64_t index,
                    std::int32_t parent = -1) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.index = index;
    span.parent = parent;
    span.start_ns = now_ns();
    spans_.push_back(span);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void close(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  void close(std::int32_t id, const srbb::Hash32& tx) {
    if (id < 0) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = now_ns();
    span.tx = tx;
    span.has_tx = true;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part its children
  /// cover (children of one parent never overlap: one replay thread).
  std::vector<std::int64_t> self_times() const;

  /// Chrome/Perfetto trace_event JSON ("X" events, one pid, args carry the
  /// index, the parent span and the transaction hash).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Everything one run measured. `metrics` maps a metric name to
/// (value, unit); run.py's BENCHMARK.json decides which are printed.
struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> problems;  // first few check failures

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;           // self-check size: ~10^3 accounts
  std::string span_path;       // where the traced run writes its spans
};

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Hardware threads available to the process (sched affinity), >= 1.
unsigned available_threads();

void run_replay(const Options& options, RunReport& report);
void run_sim(const Options& options, RunReport& report);

}  // namespace perfbench
