#pragma once
// The in-process serving fleet a workload drives: one or more partitions,
// each a dist::MasterNode plus one dist::WorkerNode on its own link pair,
// optionally fronted by a dist::RequestRouter. The benchmark also keeps
// its own fp32 copies of every served sub-network, for reply checks and
// for the per-layer replays.

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer_pool.h"
#include "core/error.h"
#include "dist/master.h"
#include "dist/router.h"
#include "dist/worker.h"
#include "nn/sequential.h"
#include "slim/fluid_model.h"

namespace fluidbench {

namespace dist = fluid::dist;
namespace core = fluid::core;
namespace nn = fluid::nn;
namespace slim = fluid::slim;

/// HA pipeline cut: after conv stage 1 (the paper's split point).
inline constexpr std::int64_t kCutStage = 1;

/// A link of `latency_ms` per frame plus bytes at `bandwidth_mbps`;
/// latency_ms == 0 selects the zero-cost in-memory pair (frames are still
/// encoded and decoded).
struct LinkSpec {
  double latency_ms = 0.0;
  double bandwidth_mbps = 0.0;
  bool zero_cost() const { return latency_ms <= 0.0; }
};
std::pair<dist::TransportPtr, dist::TransportPtr> MakeLink(const LinkSpec& link);

enum class ServeMode { kHighThroughput, kHighAccuracy };

struct FleetSpec {
  ServeMode mode = ServeMode::kHighThroughput;
  std::size_t partitions = 1;
  bool router = false;
  LinkSpec link;
  dist::BatchOptions batch;
};

/// The model weights and the benchmark's reference copies of every
/// sub-network a fleet can serve, by deployment name: "lower50" and
/// "upper50" (HT slices), "front" and "back" (HA halves at kCutStage),
/// and "full" (the combined-width fp32 net the HA pipeline approximates).
struct Models {
  slim::FluidNetConfig cfg;
  std::unique_ptr<slim::FluidModel> fluid;
  std::int64_t width = 0;        // combined width
  std::int64_t upper_width = 0;  // worker-resident slice width
  std::map<std::string, nn::Sequential> ref;

  static std::unique_ptr<Models> Build();
  /// Fresh copy of a reference network (deployments take ownership).
  nn::Sequential Copy(const std::string& name) const;
};

/// Summed serving counters, snapshotted around a timed pass.
struct FleetCounters {
  dist::MasterStats master;
  dist::SchedulerStats sched;
  dist::WireStats wire;  // master + worker endpoints: every byte on a link
  std::int64_t master_batched_sends = 0;
  dist::RouterStats router;
  core::PoolStats pool;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

using ReplyFuture = std::future<core::StatusOr<dist::InferReply>>;

class Fleet {
 public:
  Fleet(const FleetSpec& spec, const Models& models);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const FleetSpec& spec() const { return spec_; }
  /// Submit through the router when there is one, else partition 0's
  /// master.
  ReplyFuture Submit(core::Tensor input, const dist::SubmitOptions& opts);
  /// Name of the layer the benchmark's Submit call enters.
  const char* submit_layer() const {
    return router_ ? "dist.router.dispatch" : "dist.master.submit";
  }

  /// Power-fail every partition's worker (WorkerNode::Crash): each
  /// partition loses one of its two devices.
  void CrashWorkers();
  /// Per partition, start a fresh worker on a fresh link and revive the
  /// master's slot with MasterNode::ReattachWorker. Returns each call's
  /// wall seconds.
  std::vector<double> ReattachWorkers();

  FleetCounters Counters() const;
  /// Names of the sub-networks this fleet deployed (local or remote).
  std::vector<std::string> Deployed() const;

 private:
  struct Partition {
    std::unique_ptr<dist::MasterNode> master;
    std::unique_ptr<dist::WorkerNode> worker;
  };

  FleetSpec spec_;
  const Models& models_;
  std::vector<Partition> parts_;
  std::unique_ptr<dist::RequestRouter> router_;
  int worker_generation_ = 0;
};

}  // namespace fluidbench
