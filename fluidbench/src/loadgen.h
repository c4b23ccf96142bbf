#pragma once
// The load generator: one generator thread (the caller's) submits, one
// collector thread stamps each reply the moment its future turns ready.
// Closed loop keeps a fixed depth in flight; open loop sends on a seeded
// square-wave-bursty Poisson schedule and records how late each send was.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/tensor.h"
#include "fleet.h"
#include "report.h"

namespace fluidbench {

/// Class SLOs (high / normal / low), milliseconds.
inline constexpr double kSloMs[3] = {250.0, 1000.0, 4000.0};
/// Request deadline as a multiple of its class SLO: an overloaded rung
/// shows as late replies and a growing backlog, not as failures.
inline constexpr int kTimeoutPerSlo = 8;

/// Seeded digit glyphs every request draws its rows from.
class InputPool {
 public:
  InputPool(std::uint64_t seed, std::size_t size);
  std::size_t size() const { return images_.size(); }
  /// Row `r` of a request whose first row is `id` is image (id + r) % size.
  const core::Tensor& image(std::size_t id) const {
    return images_[id % images_.size()];
  }
  /// Pooled [rows, 1, S, S] input for the program.
  core::Tensor MakeInput(std::size_t id, int rows) const;

 private:
  std::vector<core::Tensor> images_;
};

struct Record {
  std::int64_t index = 0;
  int cls = 1;
  int rows = 1;
  std::size_t input_id = 0;
  bool sampled = false;  // logits kept for the reply check
  std::int64_t sched_ns = 0;       // open loop: when it was due
  std::int64_t submit_ns = 0;      // the Submit call
  std::int64_t submit_end_ns = 0;
  std::int64_t done_ns = 0;        // future observed ready
  std::int64_t in_flight_at_send = 0;
  bool done = false;
  bool ok = false;
  std::string error;
  std::string served_by;
  core::Tensor logits;
  std::uint64_t span = 0;  // root span id (traced runs)
  std::uint64_t phase_span = 0;

  /// Closed loop: from the Submit call; open loop: from the due time.
  double LatencyMs() const {
    return NsToMs(done_ns - (sched_ns != 0 ? sched_ns : submit_ns));
  }
};

struct Traffic {
  double multi_row_share = 0.0;  // share of requests with kMultiRows rows
  static constexpr int kMultiRows = 16;
};

class LoadGen {
 public:
  LoadGen(Fleet& fleet, const InputPool& inputs, std::uint64_t seed,
          Traffic traffic, SpanRecorder& spans);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Closed loop: keep `depth` requests in flight, submitting until
  /// `count` requests were sent (count > 0) or `until_ns` passed. Returns
  /// with requests still in flight.
  void RunClosed(int depth, std::int64_t count, std::int64_t until_ns,
                 std::uint64_t phase_span = 0);
  /// Open loop: `count` Poisson sends at average `rate` req/s. With
  /// `bursty`, the rate follows a square wave: kBurst x rate for the first
  /// half of each kBurstPeriodMs, the complement for the second half.
  void RunOpen(double rate, std::int64_t count, bool bursty,
               std::uint64_t phase_span = 0);
  /// Wait until nothing is in flight.
  void Drain();
  /// Wait for the next reply (returns at once if nothing is in flight).
  /// Safe to call from another thread while a Run* call is sending.
  void AwaitReply();

  static constexpr double kBurst = 1.6;
  static constexpr double kBurstPeriodMs = 200.0;

  /// Records in submission order; read only after Drain().
  const std::deque<Record>& records() const { return records_; }
  std::deque<Record>& records() { return records_; }

 private:
  Record& Next(std::uint64_t phase_span);
  void Send(Record& r);
  void CollectLoop();

  Fleet& fleet_;
  const InputPool& inputs_;
  Traffic traffic_;
  SpanRecorder& spans_;
  fluid::core::Rng rng_;
  std::deque<Record> records_;

  struct Pending {
    Record* rec;
    ReplyFuture future;
  };
  std::mutex mu_;
  std::condition_variable cv_;  // a completion, or new work for the collector
  std::vector<Pending> incoming_;
  std::int64_t in_flight_ = 0;
  std::int64_t replies_ = 0;
  bool stop_ = false;
  std::thread collector_;
};

}  // namespace fluidbench
