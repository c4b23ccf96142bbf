#include "report.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/parallel.h"
#include "core/simd/gemm_kernel.h"

namespace fluidbench {

std::int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  return Raw(key, JsonNumber(v));
}
JsonObject& JsonObject::Int(const std::string& key, std::int64_t v) {
  return Raw(key, std::to_string(v));
}
JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  return Raw(key, JsonQuote(v));
}
JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  return Raw(key, v ? "true" : "false");
}
JsonObject& JsonObject::Raw(const std::string& key, std::string json) {
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(json);
      return *this;
    }
  }
  fields_.emplace_back(key, std::move(json));
  return *this;
}
std::string JsonObject::Dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::uint64_t SpanRecorder::Add(std::string name, std::int64_t start_ns,
                                std::int64_t end_ns, std::uint64_t parent,
                                std::uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  spans_.push_back({id, parent, request, std::move(name), start_ns, end_ns});
  return id;
}

std::uint64_t SpanRecorder::Open() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Close(std::uint64_t id, std::string name,
                         std::int64_t start_ns, std::int64_t end_ns,
                         std::uint64_t parent, std::uint64_t request) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, parent, request, std::move(name), start_ns, end_ns});
}

std::string SpanRecorder::SelfTimeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  struct Agg {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans_) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_ms += NsToMs(s.end_ns - s.start_ns);
    a.self_ms += NsToMs(s.end_ns - s.start_ns - covered);
  }
  JsonObject out;
  for (const auto& [name, a] : by_name) {
    JsonObject o;
    o.Int("count", a.count).Num("total_ms", a.total_ms).Num("self_ms", a.self_ms);
    out.Raw(name, o.Dump());
  }
  return out.Dump();
}

std::string SpanRecorder::SpansJson(std::size_t max_spans) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "[";
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << ", \"name\": " << JsonQuote(s.name)
       << ", \"start_us\": " << JsonNumber(static_cast<double>(s.start_ns) * 1e-3)
       << ", \"end_us\": " << JsonNumber(static_cast<double>(s.end_ns) * 1e-3)
       << "}";
  }
  os << "]";
  return os.str();
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        const auto b = v.find_first_not_of(' ');
        return b == std::string::npos ? v : v.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string HostJson() {
  JsonObject h;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int cpus = sched_getaffinity(0, sizeof allowed, &allowed) == 0 ? CPU_COUNT(&allowed) : -1;
  h.Int("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Int("cpus_allowed", cpus)
      .Str("cpu_model", CpuModel())
      .Str("gemm_kernel", fluid::core::simd::ActiveGemmKernel().name)
      .Int("num_threads", fluid::core::NumThreads())
      .Str("compiler", std::string("g++ ") + __VERSION__)
      .Str("build_type", FLUIDBENCH_BUILD_TYPE);
  return h.Dump();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace fluidbench
