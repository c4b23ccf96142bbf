// fluidbench: the repository's serving benchmark.
//
//   fluidbench --workload <ht_compute|ha_link_mixed|ht_failover>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--out <dir>] [--ha-rates r1,r2,r3]
//
// Each workload builds an in-process fleet (dist::MasterNode +
// dist::WorkerNode partitions on dist link pairs, behind a
// dist::RequestRouter where it has several), drives it from one generator
// thread, checks a seeded sample of replies against local reference
// forwards, and prints one JSON line: the end-to-end metrics (--trace 0)
// or the per-layer metrics of the traced run (--trace 1). The full result,
// with its host block, goes to <out>/<workload>-seed<n>-trace<t>.json;
// the traced run also writes its spans and per-layer self times there.
// See fluidbench/README.md for the workloads and every metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/buffer_pool.h"
#include "fleet.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "replay.h"
#include "report.h"

namespace fluidbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::vector<double> ha_rates;
};

/// Closed-loop depth: the fixed number of requests in flight.
constexpr int kDepth = 64;
/// Setups per run; setup_s is their median.
constexpr int kSetups = 7;
/// Open-loop sends later than this at p99 make the run invalid: it would
/// have measured the generator, not the program.
constexpr double kMaxLagP99Ms = 20.0;
/// Cap on replies checked against a local reference forward.
constexpr std::size_t kMaxChecked = 1500;
/// HA-path replies must agree on top-1 with the fp32 reference at least
/// this often (int8 cut activations are not bit-exact).
constexpr double kMinHaAgreement = 0.9;

struct Workload {
  std::string name;
  FleetSpec fleet;
  Traffic traffic;
  bool open_loop = false;
  double main_share = 0.5;  // of --seconds, closed-loop main pass
  int cycles = 3;           // crash / reattach cycles
  std::int64_t pre = 500, degraded = 2000, recovered = 2000;  // requests
  std::int64_t warmup = 512;
};

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  const LinkSpec paper_link{12.0, 100.0};
  if (name == "ht_compute") {
    w.fleet.mode = ServeMode::kHighThroughput;
    w.fleet.batch.max_batch = 64;
    w.fleet.batch.max_delay = std::chrono::milliseconds(0);
    w.main_share = 0.8;
    w.cycles = 12;
    w.pre = 1000;
    w.degraded = 2000;
    w.recovered = 2000;
    w.warmup = 2048;
  } else if (name == "ht_failover") {
    w.fleet.mode = ServeMode::kHighThroughput;
    w.fleet.link = paper_link;
    w.fleet.batch.max_batch = 64;
    w.fleet.batch.max_delay = std::chrono::milliseconds(0);
    w.main_share = 1.2;
    w.cycles = 20;
    w.pre = 150;
    w.degraded = 1000;
    w.recovered = 400;
  } else if (name == "ha_link_mixed") {
    w.fleet.mode = ServeMode::kHighAccuracy;
    w.fleet.partitions = 2;
    w.fleet.router = true;
    w.fleet.link = paper_link;
    w.fleet.batch.max_batch = 64;
    w.fleet.batch.max_delay = std::chrono::milliseconds(0);
    w.fleet.batch.ha_chunk = 8;
    w.fleet.batch.ha_window = 32;
    w.fleet.batch.queue_capacity = 16384;
    // Admit the whole backlog of an overloaded rung: a Submit that blocks
    // on admission would stall the open-loop generator.
    w.fleet.batch.max_active_reqs = 8192;
    w.traffic.multi_row_share = 0.05;
    w.open_loop = true;
    w.cycles = 30;
    w.pre = 50;
    w.degraded = 150;
    w.recovered = 100;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  return w;
}

struct Pass {
  std::string name;
  std::int64_t first = 0, last = 0;  // record index range [first, last)
  std::int64_t start_ns = 0, end_ns = 0;
  double rate = 0.0;  // open loop: offered rate
};

struct Cycle {
  std::int64_t crash_ns = 0, crashed_ns = 0;
  std::int64_t reattach_ns = 0, drained_ns = 0, reattached_ns = 0, end_ns = 0;
  std::vector<double> reattach_s;  // one per partition
};

struct Summary {
  std::int64_t attempted = 0, failed = 0, completed = 0;
  double p50 = 0, p99 = 0, class_p99[3] = {0, 0, 0};
  std::int64_t class_n[3] = {0, 0, 0};
  double slo_attainment = 0;
  double span_s = 0, rate = 0;
  double lag_p99_ms = 0;
  double in_flight_mean = 0;
  double submit_us_p99 = 0;
  bool within_slo = false;
  bool backlog_growing = false;
};

/// Median over consecutive blocks (in completion order) of at least
/// kBlock samples each of the block's q-quantile, so one descheduled
/// moment on a shared host moves one block, not the figure. With fewer
/// than kBlock samples, the quantile of all of them.
double BlockQuantile(std::vector<std::pair<std::int64_t, double>> done_lat, double q) {
  constexpr std::size_t kBlock = 1000;
  std::sort(done_lat.begin(), done_lat.end());
  const std::size_t blocks = std::max<std::size_t>(1, done_lat.size() / kBlock);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * done_lat.size() / blocks;
    const std::size_t hi = (b + 1) * done_lat.size() / blocks;
    std::vector<double> v;
    for (std::size_t i = lo; i < hi; ++i) v.push_back(done_lat[i].second);
    per_block.push_back(Quantile(v, q));
  }
  return Median(per_block);
}

Summary Summarize(const std::deque<Record>& recs, const Pass& pass) {
  Summary s;
  std::vector<double> lag, inflight, submit;
  std::vector<std::pair<std::int64_t, double>> lat, cls_lat[3];
  std::int64_t within = 0, first_ns = 0, last_ns = 0;
  for (std::int64_t i = pass.first; i < pass.last; ++i) {
    const Record& r = recs[static_cast<std::size_t>(i)];
    ++s.attempted;
    inflight.push_back(static_cast<double>(r.in_flight_at_send));
    submit.push_back(static_cast<double>(r.submit_end_ns - r.submit_ns) * 1e-3);
    if (r.sched_ns != 0) lag.push_back(NsToMs(r.submit_ns - r.sched_ns));
    const std::int64_t start = r.sched_ns != 0 ? r.sched_ns : r.submit_ns;
    if (first_ns == 0 || start < first_ns) first_ns = start;
    if (!r.ok) {
      ++s.failed;
      continue;
    }
    ++s.completed;
    last_ns = std::max(last_ns, r.done_ns);
    const double ms = r.LatencyMs();
    lat.emplace_back(r.done_ns, ms);
    cls_lat[r.cls].emplace_back(r.done_ns, ms);
    if (ms <= kSloMs[r.cls]) ++within;
  }
  s.p50 = BlockQuantile(lat, 0.5);
  s.p99 = BlockQuantile(lat, 0.99);
  s.within_slo = s.failed == 0;
  for (int c = 0; c < 3; ++c) {
    s.class_n[c] = static_cast<std::int64_t>(cls_lat[c].size());
    s.class_p99[c] = BlockQuantile(cls_lat[c], 0.99);
    if (s.class_p99[c] > kSloMs[c]) s.within_slo = false;
  }
  s.slo_attainment =
      s.attempted > 0 ? static_cast<double>(within) / static_cast<double>(s.attempted) : 0;
  s.span_s = NsToMs(last_ns - first_ns) * 1e-3;
  s.rate = s.span_s > 0 ? static_cast<double>(s.completed) / s.span_s : 0;
  s.lag_p99_ms = Quantile(lag, 0.99);
  s.in_flight_mean = Mean(inflight);
  s.submit_us_p99 = Quantile(submit, 0.99);

  // Open loop: backlog (requests in flight at each send) averaged per
  // burst period; growing if the last third of the periods sits well
  // above the first third.
  if (pass.rate > 0 && s.attempted > 0) {
    std::map<std::int64_t, std::pair<double, std::int64_t>> per_period;
    const auto period_ns = static_cast<std::int64_t>(LoadGen::kBurstPeriodMs * 1e6);
    for (std::int64_t i = pass.first; i < pass.last; ++i) {
      const Record& r = recs[static_cast<std::size_t>(i)];
      auto& [sum, n] = per_period[(r.sched_ns - first_ns) / period_ns];
      sum += static_cast<double>(r.in_flight_at_send);
      ++n;
    }
    std::vector<double> means;
    for (const auto& [k, v] : per_period) means.push_back(v.first / static_cast<double>(v.second));
    const std::size_t third = means.size() / 3;
    if (third > 0) {
      double head = 0, tail = 0;
      for (std::size_t i = 0; i < third; ++i) {
        head += means[i];
        tail += means[means.size() - 1 - i];
      }
      head /= static_cast<double>(third);
      tail /= static_cast<double>(third);
      s.backlog_growing = tail > 2.0 * head + static_cast<double>(kDepth);
    }
    if (s.backlog_growing) s.within_slo = false;
  }
  return s;
}

/// Median completion rate over the pass cut into equal windows of about
/// one second each.
double WindowedRate(const std::deque<Record>& recs, const Pass& pass,
                    std::vector<double>* windows_out = nullptr) {
  const std::int64_t span = pass.end_ns - pass.start_ns;
  const std::int64_t windows = span / 1000000000;
  if (windows < 1) return 0.0;
  const double window_s = NsToMs(span) * 1e-3 / static_cast<double>(windows);
  std::vector<double> rates(static_cast<std::size_t>(windows), 0.0);
  for (std::int64_t i = pass.first; i < pass.last; ++i) {
    const Record& r = recs[static_cast<std::size_t>(i)];
    if (!r.ok || r.done_ns < pass.start_ns || r.done_ns >= pass.end_ns) continue;
    const auto w = static_cast<std::size_t>((r.done_ns - pass.start_ns) * windows / span);
    rates[w] += 1.0 / window_s;
  }
  if (windows_out != nullptr) *windows_out = rates;
  return Median(rates);
}

std::int64_t Completions(const std::deque<Record>& recs, std::int64_t t0,
                         std::int64_t t1) {
  std::int64_t n = 0;
  for (const Record& r : recs) {
    if (r.ok && r.done_ns >= t0 && r.done_ns < t1) ++n;
  }
  return n;
}

/// Completions per second over windows [t0, t1) taken together. Per
/// cycle, the closed-loop rates fall into two modes (full or split
/// batches) about equally often, where a median over cycles flips between
/// them.
double PooledRate(const std::deque<Record>& recs,
                  const std::vector<std::pair<std::int64_t, std::int64_t>>& windows) {
  std::int64_t n = 0, ns = 0;
  for (const auto& [t0, t1] : windows) {
    if (t1 <= t0) continue;
    n += Completions(recs, t0, t1);
    ns += t1 - t0;
  }
  return ns > 0 ? static_cast<double>(n) / (NsToMs(ns) * 1e-3) : 0.0;
}

/// Longest gap between consecutive completions from the last one before
/// the crash through the kDepth-th one after it.
double StallMs(const std::deque<Record>& recs, const Cycle& c) {
  std::vector<std::int64_t> done;
  for (const Record& r : recs) {
    if (r.done) done.push_back(r.done_ns);
  }
  std::sort(done.begin(), done.end());
  auto it = std::lower_bound(done.begin(), done.end(), c.crash_ns);
  if (it == done.end()) return 0.0;
  std::int64_t prev = it == done.begin() ? c.crash_ns : *(it - 1);
  std::int64_t gap = 0;
  for (int k = 0; k < kDepth && it != done.end(); ++k, ++it) {
    gap = std::max(gap, *it - prev);
    prev = *it;
  }
  return NsToMs(gap);
}

/// Mean without the lowest and the highest value. The per-cycle stall is
/// bimodal on ha_link_mixed (it depends on whether frames were in flight
/// on the link at the crash), where a median of a few cycles flips between
/// the modes; on ht_failover it has rare outliers that move a plain mean.
double TrimmedMean(std::vector<double> v) {
  if (v.size() < 3) return Mean(v);
  std::sort(v.begin(), v.end());
  return Mean(std::vector<double>(v.begin() + 1, v.end() - 1));
}

std::size_t Argmax(const float* v, std::int64_t n) {
  return static_cast<std::size_t>(std::max_element(v, v + n) - v);
}

struct CheckResult {
  std::int64_t checked_rows = 0, agree_rows = 0;
  std::int64_t exact_checked = 0, exact_mismatch = 0;  // fp32 replies
  std::vector<std::int64_t> bad;  // record indices of wrong fp32 replies
};

/// Reference sub-network for a served_by label: "master:lower50",
/// "worker[0]:upper50", "pipeline:front+back@worker[0]" (the int8 cut
/// pipeline approximates the combined-width fp32 net "full").
std::string ReferenceFor(const std::string& served_by, bool& exact) {
  exact = true;
  if (served_by.rfind("pipeline:", 0) == 0) {
    exact = false;
    return "full";
  }
  const auto colon = served_by.find(':');
  return colon == std::string::npos ? std::string() : served_by.substr(colon + 1);
}

CheckResult CheckReplies(std::deque<Record>& recs, Models& models,
                         const InputPool& inputs) {
  CheckResult out;
  std::vector<Record*> sampled;
  for (Record& r : recs) {
    if (r.ok && r.sampled) sampled.push_back(&r);
  }
  const std::size_t stride = std::max<std::size_t>(1, (sampled.size() + kMaxChecked - 1) / kMaxChecked);
  for (std::size_t s = 0; s < sampled.size(); s += stride) {
    Record& r = *sampled[s];
    bool exact = true;
    const std::string ref = ReferenceFor(r.served_by, exact);
    auto it = models.ref.find(ref);
    const std::int64_t classes = models.cfg.num_classes;
    bool wrong = it == models.ref.end() || r.logits.numel() != r.rows * classes;
    for (int row = 0; !wrong && row < r.rows; ++row) {
      // Per-sample reference: the serve path promises results identical
      // to serving each sample alone.
      core::Tensor want = it->second.ForwardInference(
          inputs.MakeInput(r.input_id + static_cast<std::size_t>(row), 1));
      const float* got = r.logits.data().data() + row * classes;
      ++out.checked_rows;
      if (Argmax(got, classes) == Argmax(want.data().data(), classes)) ++out.agree_rows;
      if (exact && std::memcmp(got, want.data().data(),
                               static_cast<std::size_t>(classes) * sizeof(float)) != 0) {
        wrong = true;
      }
      core::RecycleTensor(std::move(want));
    }
    if (exact) ++out.exact_checked;
    if (wrong) {
      ++out.exact_mismatch;
      out.bad.push_back(r.index);
    }
  }
  return out;
}

double HistogramP99(const std::vector<std::string>& names) {
  fluid::obs::Histogram::Snapshot merged;
  merged.buckets.assign(fluid::obs::Histogram::kBuckets, 0);
  for (const std::string& n : names) {
    const auto* h = fluid::obs::MetricsRegistry::Global().FindHistogram(n);
    if (h == nullptr) continue;
    const auto s = h->Snap();
    merged.count += s.count;
    merged.sum += s.sum;
    merged.max = std::max(merged.max, s.max);
    for (std::size_t i = 0; i < s.buckets.size() && i < merged.buckets.size(); ++i) {
      merged.buckets[i] += s.buckets[i];
    }
  }
  return merged.count > 0 ? merged.Quantile(0.99) : 0.0;
}

std::string ClassHistogram(const char* series, int cls) {
  const char* label[3] = {"high", "normal", "low"};
  return std::string(series) + "{class=\"" + label[cls] + "\"}";
}

std::string MetricsJson(const std::map<std::string, std::pair<double, std::string>>& m) {
  JsonObject o;
  for (const auto& [name, v] : m) {
    JsonObject e;
    e.Num("value", v.first).Str("unit", v.second);
    o.Raw(name, e.Dump());
  }
  return o.Dump();
}

int Run(const Args& args) {
  const Workload w = MakeWorkload(args.workload);
  const bool ha = w.fleet.mode == ServeMode::kHighAccuracy;
  SpanRecorder spans(args.trace);
  const InputPool inputs(args.seed, 256);

  // ---- set-up: model build, fleet start, deploys, warm-up --------------
  std::unique_ptr<Models> models;
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s;
  SpanRecorder no_spans(false);
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    models.reset();
    ScopedSpan span(spans, "phase.setup");
    const std::int64_t t0 = NowNs();
    models = Models::Build();
    fleet = std::make_unique<Fleet>(w.fleet, *models);
    {
      LoadGen warm(*fleet, inputs, args.seed + 1000 + static_cast<std::uint64_t>(i),
                   w.traffic, no_spans);
      // In drained waves of kDepth: a closed loop started cold settles
      // into full or split batches by chance, and the split mode took a
      // third longer.
      for (std::int64_t sent = 0; sent < w.warmup; sent += kDepth) {
        warm.RunClosed(kDepth, kDepth, 0);
        warm.Drain();
      }
    }
    setup_s.push_back(NsToMs(NowNs() - t0) * 1e-3);
  }

  // Peak resident set at the end of each phase, for the result file.
  std::vector<std::pair<std::string, double>> rss_marks;
  auto rss_mark = [&](const std::string& at) { rss_marks.emplace_back(at, PeakRssMb()); };
  rss_mark("setup");
  LoadGen gen(*fleet, inputs, args.seed, w.traffic, spans);
  auto& recs = gen.records();
  const auto S = args.seconds;

  // ---- timed pass ---------------------------------------------------------
  std::vector<Pass> passes;
  FleetCounters before, after;
  // Per-class queue waits and service times of the measured pass, read
  // from the program's histograms (reset when the pass starts).
  double queue_wait_p99[3] = {0, 0, 0}, service_p99 = 0;
  auto read_histograms = [&] {
    for (int c = 0; c < 3; ++c) {
      queue_wait_p99[c] = HistogramP99({ClassHistogram("fluid_sched_queue_wait_ms", c)});
    }
    service_p99 = HistogramP99({ClassHistogram("fluid_sched_service_ms", 0),
                                ClassHistogram("fluid_sched_service_ms", 1),
                                ClassHistogram("fluid_sched_service_ms", 2)});
  };
  std::size_t ref_pass = 0;
  // Peak resident set through set-up and the measured pass. The later
  // phases are left out. The backlog of the overloaded top rung follows
  // how far the host falls behind the offered rate: read after the whole
  // run, the peak spread by a third of its median between runs. The
  // failover cycles added another 6-12 MiB that varied from run to run.
  double peak_rss_mb = 0.0;
  std::int64_t main_start = 0, main_end = 0;
  fluid::obs::MetricsRegistry::Global().Reset();
  if (!ha) {
    ScopedSpan span(spans, "phase.main");
    before = fleet->Counters();
    Pass p{"main"};
    p.first = static_cast<std::int64_t>(recs.size());
    p.start_ns = NowNs();
    gen.RunClosed(kDepth, 0, p.start_ns + static_cast<std::int64_t>(S * w.main_share * 1e9),
                  span.id());
    p.end_ns = NowNs();
    gen.Drain();
    after = fleet->Counters();
    read_histograms();
    p.last = static_cast<std::int64_t>(recs.size());
    main_start = p.start_ns;
    main_end = p.end_ns;
    passes.push_back(p);
    peak_rss_mb = PeakRssMb();
    rss_mark("main");
  } else {
    // Rate ladder; the middle rung is the reference rate.
    ref_pass = 1;
    for (std::size_t k = 0; k < args.ha_rates.size(); ++k) {
      const double rate = args.ha_rates[k];
      const char* names[3] = {"rung_low", "rung_ref", "rung_high"};
      ScopedSpan span(spans, std::string("phase.") + names[k]);
      // Enough requests for >= 10 high-class samples beyond p99 (20% are
      // high class), and at least 0.2 x --seconds of traffic.
      const auto count = std::max<std::int64_t>(5100, static_cast<std::int64_t>(rate * S * 0.2));
      if (k == ref_pass) {
        fluid::obs::MetricsRegistry::Global().Reset();
        before = fleet->Counters();
      }
      Pass p{names[k]};
      p.rate = rate;
      p.first = static_cast<std::int64_t>(recs.size());
      p.start_ns = NowNs();
      gen.RunOpen(rate, count, /*bursty=*/true, span.id());
      p.end_ns = NowNs();
      gen.Drain();
      if (k == ref_pass) {
        after = fleet->Counters();
        read_histograms();
        main_start = p.start_ns;
        main_end = NowNs();
        peak_rss_mb = PeakRssMb();
      }
      p.last = static_cast<std::int64_t>(recs.size());
      passes.push_back(p);
      rss_mark(names[k]);
    }
  }
  // ---- failover cycles: crash every partition's worker, serve degraded,
  // reattach fresh workers on fresh links, serve recovered -------------------
  std::vector<Cycle> cycles;
  {
    ScopedSpan span(spans, "phase.failover");
    for (int c = 0; c < w.cycles; ++c) {
      Cycle cy;
      // The open-loop workload keeps its reference rate through the
      // failure, without bursts: how deep the link queue is at the crash
      // sets the stall, and a burst phase that varied with the seed made
      // it bimodal. The closed-loop ones keep kDepth in flight.
      auto serve = [&](std::int64_t count) {
        if (w.open_loop) {
          gen.RunOpen(args.ha_rates[ref_pass], count, /*bursty=*/false, span.id());
        } else {
          gen.RunClosed(kDepth, count, 0, span.id());
        }
      };
      serve(w.pre);
      // The crash comes right after a reply, from its own thread while
      // traffic goes on, so the gap measured across it starts at the
      // crash and not at a random time since the last reply.
      std::thread crasher([&] {
        gen.AwaitReply();
        cy.crash_ns = NowNs();
        fleet->CrashWorkers();
        cy.crashed_ns = NowNs();
      });
      serve(w.degraded);
      crasher.join();
      spans.Add("phase.crash", cy.crash_ns, cy.crashed_ns, span.id());
      cy.reattach_ns = NowNs();
      // Reattach on an idle fleet, so reattach_s is the re-deploy itself
      // and not a wait for the serving lock behind a chunk in service.
      gen.Drain();
      cy.drained_ns = NowNs();
      cy.reattach_s = fleet->ReattachWorkers();
      cy.reattached_ns = NowNs();
      spans.Add("phase.reattach", cy.drained_ns, cy.reattached_ns, span.id());
      serve(w.recovered);
      cy.end_ns = NowNs();
      gen.Drain();
      cycles.push_back(cy);
    }
  }
  const FleetCounters final_counters = fleet->Counters();
  rss_mark("failover");

  // ---- replays (traced run only) -----------------------------------------
  const Summary main = Summarize(recs, passes[ref_pass]);
  const double chunks = static_cast<double>(after.sched.batches - before.sched.batches);
  const double avg_chunk_rows =
      chunks > 0 ? static_cast<double>(after.sched.coalesced_samples -
                                       before.sched.coalesced_samples) / chunks
                 : 0.0;
  std::map<std::string, double> layer;
  std::map<std::string, double> forward_us;
  std::map<std::string, std::string> gemm_shapes;
  std::vector<std::string> layer_sum_flags;
  if (args.trace) {
    ReplayPlan plan;
    plan.link = w.fleet.link;
    plan.ha = ha;
    const auto chunk_rows = std::max<std::int64_t>(1, std::llround(avg_chunk_rows));
    // HT shards a chunk evenly across the two devices; HA serves each
    // chunk whole, front on the master and back on the worker.
    const std::int64_t shard_rows = ha ? chunk_rows : std::max<std::int64_t>(1, std::llround(avg_chunk_rows / 2));
    for (const std::string& s : fleet->Deployed()) plan.rows[s] = shard_rows;
    const double frames = static_cast<double>(after.wire.frames_sent - before.wire.frames_sent);
    plan.mean_frame_bytes = frames > 0
        ? static_cast<std::int64_t>(static_cast<double>(after.wire.bytes_sent - before.wire.bytes_sent) / frames)
        : 0;
    plan.frame_rows = ha ? static_cast<std::int64_t>(w.fleet.batch.ha_chunk) : shard_rows;
    plan.worker_deployment = ha ? "back" : "upper50";
    RunReplays(*models, plan, inputs, spans, layer, forward_us, gemm_shapes);
    // The ROADMAP's 10% gate on per-layer sums; outside calls skip the
    // Conv2d+LeakyReLU fusion, so a ratio above 1.1 is expected and kept.
    for (const auto& [subnet, rows] : plan.rows) {
      const double ratio = layer["nn." + subnet + ".layer_sum_ratio"];
      if (ratio < 0.9 || ratio > 1.1) {
        layer_sum_flags.push_back(subnet);
        std::fprintf(stderr, "layer sum of %s is %.3f x its forward (outside 0.9-1.1)\n",
                     subnet.c_str(), ratio);
      }
    }
  }

  // Stop serving before checking replies: the checks share the models.
  fleet.reset();
  CheckResult check;
  {
    ScopedSpan span(spans, "phase.check");
    check = CheckReplies(recs, *models, inputs);
  }

  // ---- end-to-end metrics --------------------------------------------------
  std::int64_t attempted = 0, failed = 0;
  for (const Record& r : recs) {
    ++attempted;
    if (!r.ok) ++failed;
  }
  failed += check.exact_mismatch;
  const double agreement = check.checked_rows > 0
      ? static_cast<double>(check.agree_rows) / static_cast<double>(check.checked_rows)
      : 0.0;
  std::vector<double> degraded, recovered, stall, reattach;
  std::vector<std::pair<std::int64_t, std::int64_t>> degraded_windows, recovered_windows;
  for (const Cycle& c : cycles) {
    degraded.push_back(PooledRate(recs, {{c.crashed_ns, c.reattach_ns}}));
    recovered.push_back(PooledRate(recs, {{c.reattached_ns, c.end_ns}}));
    degraded_windows.emplace_back(c.crashed_ns, c.reattach_ns);
    recovered_windows.emplace_back(c.reattached_ns, c.end_ns);
    stall.push_back(StallMs(recs, c));
    reattach.insert(reattach.end(), c.reattach_s.begin(), c.reattach_s.end());
  }
  double max_rate = 0.0;
  double throughput = 0.0;
  std::vector<std::string> rung_notes;
  std::vector<double> window_rates;
  if (ha) {
    throughput = main.rate;
    for (const Pass& p : passes) {
      const Summary s = Summarize(recs, p);
      if (s.within_slo) max_rate = std::max(max_rate, s.rate);
      JsonObject o;
      o.Str("name", p.name).Num("offered_rps", p.rate).Num("achieved_rps", s.rate)
          .Int("attempted", s.attempted).Int("failed", s.failed)
          .Num("p50_ms", s.p50).Num("p99_ms", s.p99)
          .Num("high_p99_ms", s.class_p99[0]).Num("normal_p99_ms", s.class_p99[1])
          .Num("low_p99_ms", s.class_p99[2]).Int("high_n", s.class_n[0])
          .Num("lag_p99_ms", s.lag_p99_ms).Bool("backlog_growing", s.backlog_growing)
          .Bool("within_slo", s.within_slo);
      rung_notes.push_back(o.Dump());
    }
  } else {
    throughput = WindowedRate(recs, passes[0], &window_rates);
    // A closed loop offers exactly what it completes, so its highest rate
    // within SLO is its own completion rate when every class meets its SLO.
    if (main.within_slo) max_rate = main.rate;
  }

  // The lag gate covers every rung whose figures are reported: the
  // reference rung and each rung that passed. A rung that failed its SLOs
  // while the generator ran late still failed.
  double worst_lag = main.lag_p99_ms;
  for (const Pass& p : passes) {
    const Summary s = Summarize(recs, p);
    if (s.within_slo) worst_lag = std::max(worst_lag, s.lag_p99_ms);
  }
  const bool lag_ok = worst_lag <= kMaxLagP99Ms;
  bool correct = check.exact_mismatch == 0 && failed == 0 && check.checked_rows > 0;
  if (ha && agreement < kMinHaAgreement) correct = false;

  std::map<std::string, std::pair<double, std::string>> e2e = {
      {"setup_s", {Median(setup_s), "s"}},
      {"throughput_rps", {throughput, "req/s"}},
      {"latency_p50_ms", {main.p50, "ms"}},
      {"latency_p99_ms", {main.p99, "ms"}},
      {"high_p99_ms", {main.class_p99[0], "ms"}},
      {"low_p99_ms", {main.class_p99[2], "ms"}},
      {"slo_attainment", {main.slo_attainment, "fraction"}},
      {"max_rate_within_slo_rps", {max_rate, "req/s"}},
      {"delivered_share", {attempted > 0 ? 1.0 - static_cast<double>(failed) / static_cast<double>(attempted) : 0.0, "fraction"}},
      {"degraded_rps", {PooledRate(recs, degraded_windows), "req/s"}},
      {"recovered_rps", {PooledRate(recs, recovered_windows), "req/s"}},
      {"failover_stall_ms", {TrimmedMean(stall), "ms"}},
      {"reattach_s", {Median(reattach), "s"}},
      {"peak_rss_mb", {peak_rss_mb, "MiB"}},
      {"top1_agreement", {agreement, "fraction"}},
  };

  // ---- per-layer metrics (traced run) ---------------------------------------
  std::map<std::string, std::pair<double, std::string>> per_layer;
  if (args.trace) {
    const double done = std::max<double>(1.0, static_cast<double>(main.completed));
    const double wall_s = NsToMs(main_end - main_start) * 1e-3;
    auto put = [&](const std::string& k, double v, const char* unit) {
      per_layer[k] = {v, unit};
    };
    put("loadgen.lag_p99_ms", main.lag_p99_ms, "ms");
    put("loadgen.in_flight_mean", main.in_flight_mean, "count");
    std::int64_t routed_min = 0, routed_max = 0, routed_sum = 0;
    for (std::size_t i = 0; i < after.router.partitions.size(); ++i) {
      const std::int64_t r = after.router.partitions[i].routed -
                             (i < before.router.partitions.size() ? before.router.partitions[i].routed : 0);
      routed_min = i == 0 ? r : std::min(routed_min, r);
      routed_max = std::max(routed_max, r);
      routed_sum += r;
    }
    const auto nparts = static_cast<double>(after.router.partitions.size());
    put("dist.router.dispatch_us_p99", w.fleet.router ? main.submit_us_p99 : 0.0, "us");
    put("dist.router.reroutes", static_cast<double>(final_counters.router.rerouted_reqs), "count");
    put("dist.router.partition_imbalance",
        routed_sum > 0 ? static_cast<double>(routed_max - routed_min) / (static_cast<double>(routed_sum) / nparts) : 0.0,
        "fraction");
    put("dist.serving_queue.chunks", chunks, "count");
    put("dist.serving_queue.avg_chunk_rows", avg_chunk_rows, "rows");
    put("dist.serving_queue.preemptions", static_cast<double>(after.sched.preemptions - before.sched.preemptions), "count");
    put("dist.serving_queue.deadline_misses", static_cast<double>(after.sched.deadline_misses - before.sched.deadline_misses), "count");
    put("dist.serving_queue.max_active_seen", static_cast<double>(after.sched.max_active_seen), "count");
    put("dist.serving_queue.queue_wait_p99_ms.high", queue_wait_p99[0], "ms");
    put("dist.serving_queue.queue_wait_p99_ms.normal", queue_wait_p99[1], "ms");
    put("dist.serving_queue.queue_wait_p99_ms.low", queue_wait_p99[2], "ms");
    put("dist.master.submit_us_p99", w.fleet.router ? 0.0 : main.submit_us_p99, "us");
    put("dist.master.service_p99_ms", service_p99, "ms");
    put("dist.master.failovers", static_cast<double>(final_counters.master.failovers), "count");
    put("dist.master.stale_replies", static_cast<double>(final_counters.master.stale_replies), "count");
    const double local = static_cast<double>(after.master.served_local - before.master.served_local);
    const double served = local +
        static_cast<double>(after.master.served_remote - before.master.served_remote) +
        static_cast<double>(after.master.served_pipeline - before.master.served_pipeline);
    put("dist.master.local_share", served > 0 ? local / served : 0.0, "fraction");
    put("dist.transport.bytes_sent_per_req", static_cast<double>(after.wire.bytes_sent - before.wire.bytes_sent) / done, "B");
    put("dist.transport.frames_per_req", static_cast<double>(after.wire.frames_sent - before.wire.frames_sent) / done, "count");
    put("dist.transport.batched_sends", static_cast<double>(after.master_batched_sends - before.master_batched_sends), "count");
    const double gets = static_cast<double>(after.pool.gets - before.pool.gets);
    put("core.buffer_pool.hit_ratio", gets > 0 ? static_cast<double>(after.pool.hits - before.pool.hits) / gets : 0.0, "fraction");
    put("core.buffer_pool.allocs_per_req", static_cast<double>(after.allocs - before.allocs) / done, "count");
    put("core.buffer_pool.bytes_per_req", static_cast<double>(after.alloc_bytes - before.alloc_bytes) / done, "B");
    // Replayed compute per chunk over measured wall time per chunk.
    const double compute_per_chunk = ha ? forward_us["front"] + forward_us["back"]
                                        : forward_us["lower50"] + forward_us["upper50"];
    put("slim.compute_share", chunks > 0 ? compute_per_chunk / (wall_s * 1e6 / chunks) : 0.0, "fraction");
    for (const auto& [k, v] : layer) {
      const char* unit = "us";
      if (k.find("_gflops") != std::string::npos) unit = "GFLOP/s";
      else if (k.find("layer_sum_ratio") != std::string::npos || k.find("speedup") != std::string::npos) unit = "ratio";
      else if (k == "core.parallel.threads") unit = "count";
      else if (k == "dist.message.deploy_bytes") unit = "B";
      else if (k == "dist.transport.rtt_ms") unit = "ms";
      put(k, v, unit);
    }
  }

  // ---- result file ----------------------------------------------------------
  JsonObject result;
  result.Str("workload", w.name).Int("seed", static_cast<std::int64_t>(args.seed))
      .Num("seconds", S).Bool("trace", args.trace).Raw("host", HostJson())
      .Bool("correct", correct).Bool("valid", lag_ok)
      .Int("attempted", attempted).Int("failed", failed)
      .Raw("metrics", MetricsJson(args.trace ? per_layer : e2e));
  if (args.trace) result.Raw("end_to_end", MetricsJson(e2e));
  {
    JsonObject o;
    for (const auto& [k, v] : rss_marks) o.Num(k, v);
    result.Raw("peak_rss_mb_by_phase", o.Dump());
    std::string arr = "[";
    for (std::size_t i = 0; i < setup_s.size(); ++i) arr += (i ? ", " : "") + JsonNumber(setup_s[i]);
    result.Raw("setup_runs_s", arr + "]");
  }
  {
    JsonObject c;
    c.Int("checked_fp32_replies", check.exact_checked)
        .Int("checked_rows", check.checked_rows).Int("exact_mismatches", check.exact_mismatch);
    std::string bad = "[";
    for (std::size_t i = 0; i < check.bad.size() && i < 20; ++i) {
      bad += (i ? ", " : "") + std::to_string(check.bad[i]);
    }
    c.Raw("mismatched_requests", bad + "]");
    result.Raw("checks", c.Dump());
  }
  if (!window_rates.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < window_rates.size(); ++i) arr += (i ? ", " : "") + JsonNumber(window_rates[i]);
    result.Raw("window_rps", arr + "]");
  }
  if (!rung_notes.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < rung_notes.size(); ++i) arr += (i ? ", " : "") + rung_notes[i];
    result.Raw("ladder", arr + "]");
  }
  {
    std::string arr = "[";
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      JsonObject o;
      o.Num("degraded_rps", degraded[i]).Num("recovered_rps", recovered[i])
          .Num("stall_ms", stall[i]).Num("reattach_s", Median(cycles[i].reattach_s));
      arr += (i ? ", " : "") + o.Dump();
    }
    result.Raw("failover_cycles", arr + "]");
  }
  std::vector<std::string> errors;
  for (const Record& r : recs) {
    if (!r.ok && errors.size() < 5) errors.push_back(r.error);
  }
  if (!errors.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < errors.size(); ++i) arr += (i ? ", " : "") + JsonQuote(errors[i]);
    result.Raw("errors", arr + "]");
  }
  if (args.trace) {
    JsonObject shapes;
    for (const auto& [k, v] : gemm_shapes) shapes.Str(k, v);
    result.Raw("gemm_shapes_mxnxk", shapes.Dump());
    std::string flags = "[";
    for (std::size_t i = 0; i < layer_sum_flags.size(); ++i) {
      flags += (i ? ", " : "") + JsonQuote(layer_sum_flags[i]);
    }
    result.Raw("layer_sum_outside_0.9_1.1", flags + "]");
    result.Raw("self_time", spans.SelfTimeJson());
    result.Raw("spans", spans.SpansJson(60000));
  }
  const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  {
    std::ofstream f(stem + ".json");
    f << result.Dump() << "\n";
  }

  if (!lag_ok) {
    std::fprintf(stderr,
                 "invalid run: generator lag p99 %.2f ms exceeds %.1f ms; the "
                 "run measured the generator, not the program\n",
                 worst_lag, kMaxLagP99Ms);
    return 3;
  }
  JsonObject line;
  line.Bool("correct", correct).Int("attempted", attempted).Int("failed", failed)
      .Raw("metrics", MetricsJson(args.trace ? per_layer : e2e));
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
  return 0;
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out_dir = v;
    else if (k == "--ha-rates") {
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) a.ha_rates.push_back(std::strtod(tok.c_str(), nullptr));
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      std::exit(2);
    }
  }
  if (a.workload.empty() || a.seconds <= 0) {
    std::fprintf(stderr, "usage: fluidbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    std::exit(2);
  }
  if (a.workload == "ha_link_mixed" && a.ha_rates.size() != 3) {
    std::fprintf(stderr, "ha_link_mixed needs --ha-rates low,ref,high\n");
    std::exit(2);
  }
  return a;
}

}  // namespace
}  // namespace fluidbench

int main(int argc, char** argv) {
  try {
    return fluidbench::Run(fluidbench::Parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fluidbench: %s\n", e.what());
    return 1;
  }
}
