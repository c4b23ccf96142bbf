#pragma once
// Per-layer replays of the traced run. After the timed pass, the
// benchmark calls each module's public functions itself, at the shapes
// the workload actually served, and times every call in a span:
// sub-network forwards (slim), each layer's ForwardInference (nn), the
// GEMM each conv/dense layer lowers to (core.gemm), the thread-count
// effect (core.parallel), the int8 codec (quant), the wire codec
// (dist.message) and a link round trip (dist.transport).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet.h"
#include "loadgen.h"
#include "report.h"

namespace fluidbench {

/// Sub-networks a replay can cover; a workload that did not deploy one
/// reports its metrics as 0.
inline const std::vector<std::string> kReplaySubnets = {"lower50", "upper50",
                                                        "front", "back"};

struct ReplayPlan {
  /// Deployed sub-network → batch rows it served per call.
  std::map<std::string, std::int64_t> rows;
  LinkSpec link;
  /// Mean frame size the workload put on its links.
  std::int64_t mean_frame_bytes = 0;
  /// Representative frame: an int8 HA cut chunk (true) or an fp32 HT
  /// input shard (false), of `frame_rows` rows.
  bool ha = false;
  std::int64_t frame_rows = 1;
  /// The worker's deployment, whose deploy frame size is reported.
  std::string worker_deployment;
};

/// Runs every replay and writes `<layer>.<metric>` values into `out`.
/// Also returns each served sub-network's replayed forward time (µs) in
/// `forward_us`, and the m x n x k of every replayed GEMM in `gemm_shapes`.
void RunReplays(const Models& models, const ReplayPlan& plan,
                const InputPool& inputs, SpanRecorder& spans,
                std::map<std::string, double>& out,
                std::map<std::string, double>& forward_us,
                std::map<std::string, std::string>& gemm_shapes);

}  // namespace fluidbench
