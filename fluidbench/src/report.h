#pragma once
// Small reporting helpers shared by the benchmark: order statistics, a
// flat JSON writer, the in-memory span recorder of the traced run, and
// the host block every result carries.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fluidbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide benchmark epoch (first call).
std::int64_t NowNs();
inline double NsToMs(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>& v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Ordered key → value map written as one JSON object. Values are kept as
/// preformatted JSON text, so nested objects and arrays compose.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, std::int64_t v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Raw(const std::string& key, std::string json);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonQuote(const std::string& s);
std::string JsonNumber(double v);

/// One timed interval recorded by the benchmark around its own call into
/// a module. `parent` 0 = root; `request` 0 = not tied to a request.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory and written out at exit. Disabled recorders
/// (untraced runs) drop every call after one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t Add(std::string name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t request = 0);
  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t Open();
  void Close(std::uint64_t id, std::string name, std::int64_t start_ns,
             std::int64_t end_ns, std::uint64_t parent = 0,
             std::uint64_t request = 0);

  /// Self time per span name (duration minus the union of its children's
  /// intervals), with counts and total durations, as a JSON object.
  std::string SelfTimeJson() const;
  /// Every span as a JSON array (capped at `max_spans`, oldest first).
  std::string SpansJson(std::size_t max_spans) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Timer that records `name` into `rec` for its scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t parent = 0)
      : rec_(rec), name_(std::move(name)), parent_(parent),
        id_(rec.enabled() ? rec.Open() : 0), start_(NowNs()) {}
  ~ScopedSpan() { rec_.Close(id_, std::move(name_), start_, NowNs(), parent_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  std::int64_t start_;
};

/// nproc, CPU model, GEMM kernel tier, library thread count, compiler and
/// build type: results from different hosts are never compared.
std::string HostJson();

/// Peak resident set of this process in MiB.
double PeakRssMb();

}  // namespace fluidbench
