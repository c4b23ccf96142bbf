#include "loadgen.h"

#include <cmath>
#include <cstring>

#include "core/buffer_pool.h"
#include "data/synthetic_mnist.h"

namespace fluidbench {

namespace {

/// 20% high / 50% normal / 30% low, deterministic per request index.
constexpr int kClassPattern[10] = {0, 1, 2, 1, 2, 1, 0, 1, 2, 1};
/// Share of requests whose replies are kept and checked.
constexpr double kSampleShare = 1.0 / 8.0;

}  // namespace

InputPool::InputPool(std::uint64_t seed, std::size_t size) {
  fluid::core::Rng rng(seed ^ 0x5EEDF00DULL);
  images_.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const auto digit = static_cast<std::int64_t>(rng.UniformInt(10));
    images_.push_back(fluid::data::RenderDigit(digit, seed, i, {}));
  }
}

core::Tensor InputPool::MakeInput(std::size_t id, int rows) const {
  const core::Shape& s = images_[0].shape();
  core::Tensor t = core::AcquireTensor({rows, s[1], s[2], s[3]});
  const std::size_t per = static_cast<std::size_t>(images_[0].numel());
  for (int r = 0; r < rows; ++r) {
    std::memcpy(t.data().data() + static_cast<std::size_t>(r) * per,
                image(id + static_cast<std::size_t>(r)).data().data(),
                per * sizeof(float));
  }
  return t;
}

LoadGen::LoadGen(Fleet& fleet, const InputPool& inputs, std::uint64_t seed,
                 Traffic traffic, SpanRecorder& spans)
    : fleet_(fleet), inputs_(inputs), traffic_(traffic), spans_(spans),
      rng_(seed) {
  collector_ = std::thread(&LoadGen::CollectLoop, this);
}

LoadGen::~LoadGen() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  collector_.join();
}

Record& LoadGen::Next(std::uint64_t phase_span) {
  Record& r = records_.emplace_back();
  r.index = static_cast<std::int64_t>(records_.size()) - 1;
  r.phase_span = phase_span;
  r.cls = kClassPattern[r.index % 10];
  r.input_id = static_cast<std::size_t>(rng_.UniformInt(inputs_.size()));
  r.rows = (traffic_.multi_row_share > 0 &&
            rng_.Uniform() < traffic_.multi_row_share)
               ? Traffic::kMultiRows
               : 1;
  r.sampled = rng_.Uniform() < kSampleShare;
  return r;
}

void LoadGen::Send(Record& r) {
  dist::SubmitOptions opts;
  opts.priority = static_cast<dist::Priority>(r.cls);
  opts.timeout = std::chrono::milliseconds(
      static_cast<std::int64_t>(kSloMs[r.cls]) * kTimeoutPerSlo);
  core::Tensor input = inputs_.MakeInput(r.input_id, r.rows);
  if (spans_.enabled()) r.span = spans_.Open();
  {
    std::lock_guard<std::mutex> lock(mu_);
    r.in_flight_at_send = in_flight_;
    ++in_flight_;
  }
  r.submit_ns = NowNs();
  ReplyFuture f = fleet_.Submit(std::move(input), opts);
  r.submit_end_ns = NowNs();
  spans_.Add(fleet_.submit_layer(), r.submit_ns, r.submit_end_ns, r.span,
             static_cast<std::uint64_t>(r.index + 1));
  {
    std::lock_guard<std::mutex> lock(mu_);
    incoming_.push_back({&r, std::move(f)});
  }
  cv_.notify_all();
}

void LoadGen::RunClosed(int depth, std::int64_t count, std::int64_t until_ns,
                        std::uint64_t phase_span) {
  for (std::int64_t sent = 0;; ++sent) {
    if (count > 0 ? sent >= count : NowNs() >= until_ns) return;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return in_flight_ < depth; });
    }
    Send(Next(phase_span));
  }
}

void LoadGen::RunOpen(double rate, std::int64_t count, bool bursty,
                      std::uint64_t phase_span) {
  const double burst = bursty ? kBurst : 1.0;
  const double trough = std::max(0.1, 2.0 - burst);
  const std::int64_t t0 = NowNs();
  double next_s = 0.0;
  for (std::int64_t i = 0; i < count; ++i) {
    const double in_period = std::fmod(next_s * 1000.0, kBurstPeriodMs);
    const double mult = in_period < kBurstPeriodMs / 2 ? burst : trough;
    next_s += -std::log(1.0 - rng_.Uniform()) / (rate * mult);
    const std::int64_t due = t0 + static_cast<std::int64_t>(next_s * 1e9);
    std::this_thread::sleep_until(
        Clock::now() + std::chrono::nanoseconds(due - NowNs()));
    Record& r = Next(phase_span);
    r.sched_ns = due;
    Send(r);
  }
}

void LoadGen::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void LoadGen::AwaitReply() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::int64_t seen = replies_;
  cv_.wait(lock, [&] { return replies_ != seen || in_flight_ == 0; });
}

void LoadGen::CollectLoop() {
  std::list<Pending> open;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (open.empty()) {
        cv_.wait(lock, [&] { return stop_ || !incoming_.empty(); });
        if (stop_ && incoming_.empty()) return;
      }
      for (auto& p : incoming_) open.push_back(std::move(p));
      incoming_.clear();
    }
    // Block briefly on the oldest reply so an idle collector does not
    // spin, then stamp everything that is ready.
    open.front().future.wait_for(std::chrono::microseconds(500));
    std::int64_t finished = 0;
    for (auto it = open.begin(); it != open.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      Record& r = *it->rec;
      r.done_ns = NowNs();
      auto reply = it->future.get();
      r.ok = reply.ok();
      if (reply.ok()) {
        if (r.sampled) {
          r.logits = std::move(reply->logits);
          r.served_by = std::move(reply->served_by);
        } else {
          core::RecycleTensor(std::move(reply->logits));
        }
      } else {
        r.error = reply.status().ToString();
      }
      r.done = true;
      spans_.Close(r.span, "request", r.submit_ns, r.done_ns, r.phase_span,
                   static_cast<std::uint64_t>(r.index + 1));
      it = open.erase(it);
      ++finished;
    }
    if (finished > 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        in_flight_ -= finished;
        replies_ += finished;
      }
      cv_.notify_all();
    }
  }
}

}  // namespace fluidbench
