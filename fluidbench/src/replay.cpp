#include "replay.h"

#include <algorithm>
#include <cctype>

#include "core/buffer_pool.h"
#include "core/gemm.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "dist/blueprint.h"
#include "dist/message.h"
#include "nn/checkpoint.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "quant/quantize.h"

namespace fluidbench {

namespace {

constexpr int kWarmReps = 5;
constexpr int kReps = 41;
constexpr int kLinkReps = 9;

/// Median wall time (µs) of `reps` calls of `fn`, each in its own span.
template <typename Fn>
double TimeUs(SpanRecorder& spans, const std::string& name,
              std::uint64_t parent, int reps, Fn&& fn) {
  for (int i = 0; i < kWarmReps; ++i) fn();
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = NowNs();
    fn();
    const std::int64_t t1 = NowNs();
    spans.Add(name, t0, t1, parent);
    us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  return Median(std::move(us));
}

core::Tensor Batch(const InputPool& inputs, std::int64_t rows) {
  return inputs.MakeInput(0, static_cast<int>(rows));
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Time `core::Gemm` at the shape layer `layer` lowers to for input `x`.
double GemmGflops(SpanRecorder& spans, const std::string& name,
                  std::uint64_t parent, nn::Layer& layer, const core::Tensor& x,
                  std::string& shape) {
  std::int64_t m = 0, n = 0, k = 0;
  bool trans_b = false;
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    const std::int64_t h = x.shape()[2], w = x.shape()[3];
    const std::int64_t oh = (h + 2 * conv->pad() - conv->kernel()) / conv->stride() + 1;
    const std::int64_t ow = (w + 2 * conv->pad() - conv->kernel()) / conv->stride() + 1;
    m = conv->out_channels();
    n = x.shape()[0] * oh * ow;
    k = conv->in_channels() * conv->kernel() * conv->kernel();
  } else if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
    m = x.shape()[0];
    n = dense->out_features();
    k = dense->in_features();
    trans_b = true;
  } else {
    return -1.0;
  }
  shape = std::to_string(m) + "x" + std::to_string(n) + "x" + std::to_string(k);
  fluid::core::Rng rng(11);
  std::vector<float> a(static_cast<std::size_t>(m * k)),
      b(static_cast<std::size_t>(k * n)), c(static_cast<std::size_t>(m * n));
  for (float& v : a) v = static_cast<float>(rng.Uniform(-1, 1));
  for (float& v : b) v = static_cast<float>(rng.Uniform(-1, 1));
  const double us = TimeUs(spans, name, parent, kReps, [&] {
    core::Gemm(false, trans_b, m, n, k, 1.0F, a.data(), k, b.data(),
               trans_b ? k : n, 0.0F, c.data(), n);
  });
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) / (us * 1e3);
}

/// Whole-forward, per-layer and per-GEMM replays of one sub-network.
double ReplaySubnet(const std::string& subnet, nn::Sequential& net,
                    const core::Tensor& input, SpanRecorder& spans,
                    std::map<std::string, double>& out,
                    std::map<std::string, std::string>& gemm_shapes) {
  ScopedSpan root(spans, "replay." + subnet + ".forward");
  const double forward_us =
      TimeUs(spans, "slim." + subnet + ".forward", root.id(), kReps, [&] {
        core::RecycleTensor(net.ForwardInference(core::AcquireTensorCopy(input)));
      });
  out["slim." + subnet + ".forward_us"] = forward_us;

  // Layer by layer from outside: each layer's own ForwardInference, on the
  // activation the previous layers produce. This skips Sequential's
  // private Conv2d+LeakyReLU fusion, so the sum can exceed the forward.
  core::Tensor act = input.Clone();
  double layer_sum = 0.0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    nn::Layer& layer = net.layer(i);
    const std::string id = std::to_string(i) + "_" + Lower(layer.Kind());
    const double us = TimeUs(spans, "nn." + subnet + "." + id, root.id(), kReps, [&] {
      core::RecycleTensor(layer.ForwardInference(core::AcquireTensorCopy(act)));
    });
    out["nn." + subnet + "." + id + "_us"] = us;
    layer_sum += us;
    const std::string gemm = "core.gemm." + subnet + "." + std::to_string(i);
    std::string shape;
    const double gflops = GemmGflops(spans, gemm, root.id(), layer, act, shape);
    if (gflops >= 0) {
      out[gemm + "_gflops"] = gflops;
      gemm_shapes[gemm] = shape;
    }
    act = layer.Forward(act, false);
  }
  out["nn." + subnet + ".layer_sum_ratio"] = layer_sum / forward_us;
  return forward_us;
}

}  // namespace

void RunReplays(const Models& models, const ReplayPlan& plan,
                const InputPool& inputs, SpanRecorder& spans,
                std::map<std::string, double>& out,
                std::map<std::string, double>& forward_us,
                std::map<std::string, std::string>& gemm_shapes) {
  // Every name is reported on every workload; a sub-network the workload
  // did not serve keeps 0.
  for (const std::string& s : kReplaySubnets) {
    nn::Sequential net = models.Copy(s);
    core::Tensor x = Batch(inputs, 1);
    if (s == "back") x = models.Copy("front").Forward(x, false);
    for (std::size_t i = 0; i < net.size(); ++i) {
      const std::string id = std::to_string(i) + "_" + Lower(net.layer(i).Kind());
      out["nn." + s + "." + id + "_us"] = 0.0;
      if (dynamic_cast<nn::Conv2d*>(&net.layer(i)) != nullptr ||
          dynamic_cast<nn::Dense*>(&net.layer(i)) != nullptr) {
        out["core.gemm." + s + "." + std::to_string(i) + "_gflops"] = 0.0;
      }
    }
    out["slim." + s + ".forward_us"] = 0.0;
    out["nn." + s + ".layer_sum_ratio"] = 0.0;
  }

  nn::Sequential front = models.Copy("front");
  for (const auto& [subnet, rows] : plan.rows) {
    nn::Sequential net = models.Copy(subnet);
    core::Tensor x = Batch(inputs, rows);
    if (subnet == "back") x = front.Forward(x, false);
    forward_us[subnet] = ReplaySubnet(subnet, net, x, spans, out, gemm_shapes);
  }

  {
    // Thread-count effect on the master-resident slice at the workload's
    // shape: >1 means the library's threads pay off.
    ScopedSpan span(spans, "replay.core.parallel");
    const int threads = fluid::core::NumThreads();
    out["core.parallel.threads"] = threads;
    nn::Sequential net = models.Copy("lower50");
    const auto it = plan.rows.find("lower50");
    const core::Tensor x = Batch(inputs, it != plan.rows.end() ? it->second : 1);
    auto fwd = [&] {
      core::RecycleTensor(net.ForwardInference(core::AcquireTensorCopy(x)));
    };
    fluid::core::SetNumThreads(1);
    const double one = TimeUs(spans, "core.parallel.lower50_1thread", span.id(), kReps, fwd);
    fluid::core::SetNumThreads(threads);
    const double many = TimeUs(spans, "core.parallel.lower50_default", span.id(), kReps, fwd);
    out["core.parallel.subnet_speedup"] = one / many;
  }

  // One HA chunk of cut activations: the int8 codec and, on HA, the frame.
  const core::Tensor cut = front.Forward(Batch(inputs, plan.frame_rows), false);
  {
    ScopedSpan span(spans, "replay.quant");
    fluid::quant::QuantizedTensor q;
    out["quant.quantize_us"] = TimeUs(spans, "quant.quantize", span.id(), kReps, [&] {
      q = fluid::quant::QuantizeTensor(cut);
    });
    out["quant.dequantize_us"] = TimeUs(spans, "quant.dequantize", span.id(), kReps, [&] {
      core::RecycleTensor(fluid::quant::DequantizeTensor(q));
    });
  }
  {
    ScopedSpan span(spans, "replay.dist.message");
    const dist::Message frame =
        plan.ha ? dist::Message::WithQuantBatch(dist::MsgType::kInfer, 1, "back",
                                                fluid::quant::QuantizeTensor(cut))
                : dist::Message::WithBatch(dist::MsgType::kInfer, 1, "upper50",
                                           Batch(inputs, plan.frame_rows));
    std::vector<std::uint8_t> bytes;
    out["dist.message.encode_us"] = TimeUs(spans, "dist.message.encode", span.id(), kReps, [&] {
      bytes = dist::EncodeMessage(frame);
    });
    out["dist.message.decode_us"] = TimeUs(spans, "dist.message.decode", span.id(), kReps, [&] {
      dist::Message m;
      dist::DecodeMessage(bytes, m).ThrowIfError();
      dist::RecycleMessage(std::move(m));
    });

    dist::DeployRequest deploy;
    deploy.name = plan.worker_deployment;
    nn::Sequential net = models.Copy(plan.worker_deployment);
    deploy.state = nn::ExtractState(net);
    if (plan.worker_deployment == "back") {
      deploy.blueprint =
          dist::ModelBlueprint::PipelineBack(models.cfg, models.width, kCutStage);
      deploy.blueprint.quant.int8_wire = true;
    } else {
      deploy.blueprint =
          dist::ModelBlueprint::Standalone(models.cfg, models.upper_width);
    }
    out["dist.message.deploy_bytes"] = static_cast<double>(dist::EncodedSize(
        dist::Message::HeaderOnly(dist::MsgType::kDeploy, 0, deploy.EncodeToTag())));
  }
  {
    // Round trips of the workload's mean frame on a fresh pair with the
    // workload's link settings.
    ScopedSpan span(spans, "replay.dist.transport");
    auto [a, b] = MakeLink(plan.link);
    const std::int64_t overhead =
        dist::EncodedSize(dist::Message::WithTensor(
            dist::MsgType::kInfer, 1, "rtt", core::Tensor::Zeros({1}))) - 4;
    const std::int64_t floats =
        std::max<std::int64_t>(1, (plan.mean_frame_bytes - overhead) / 4);
    const dist::Message frame = dist::Message::WithTensor(
        dist::MsgType::kInfer, 1, "rtt", core::Tensor::Zeros({floats}));
    dist::Message got;
    const auto timeout = std::chrono::milliseconds(5000);
    const double us = TimeUs(
        spans, "dist.transport.round_trip", span.id(),
        plan.link.zero_cost() ? kReps : kLinkReps, [&] {
          a->Send(frame).ThrowIfError();
          b->Recv(got, timeout).ThrowIfError();
          b->Send(got).ThrowIfError();
          a->Recv(got, timeout).ThrowIfError();
        });
    out["dist.transport.rtt_ms"] = us * 1e-3;
    a->Close();
    b->Close();
  }
}

}  // namespace fluidbench
