#include "fleet.h"

#include <chrono>

#include "core/alloc_count.h"
#include "dist/blueprint.h"
#include "nn/checkpoint.h"
#include "report.h"
#include "train/model_zoo.h"

namespace fluidbench {

using namespace std::chrono_literals;

namespace {

/// Fixed model seed: the program under test is the same on every run;
/// only the request inputs follow --seed.
constexpr std::uint64_t kModelSeed = 7;
constexpr auto kDeployTimeout = 10000ms;

void AddStats(dist::MasterStats& a, const dist::MasterStats& b) {
  a.served_local += b.served_local;
  a.served_remote += b.served_remote;
  a.served_pipeline += b.served_pipeline;
  a.failovers += b.failovers;
  a.batches += b.batches;
  a.coalesced_samples += b.coalesced_samples;
  a.stale_replies += b.stale_replies;
  a.reattaches += b.reattaches;
  a.quant_cut_frames += b.quant_cut_frames;
  a.quant_input_frames += b.quant_input_frames;
}

}  // namespace

std::pair<dist::TransportPtr, dist::TransportPtr> MakeLink(const LinkSpec& link) {
  if (link.zero_cost()) return dist::MakeInMemoryPair();
  return dist::MakeEmulatedLinkPair(
      std::chrono::duration<double>(link.latency_ms * 1e-3),
      link.bandwidth_mbps * 1e6 / 8.0);
}

std::unique_ptr<Models> Models::Build() {
  auto m = std::make_unique<Models>();
  m->fluid = std::make_unique<slim::FluidModel>(
      slim::FluidModel::PaperDefault(kModelSeed));
  const auto& family = m->fluid->family();
  const auto combined = family.Combined();
  const auto upper = family.WorkerResident();
  m->cfg = m->fluid->config();
  m->width = combined.range.width();
  m->upper_width = upper.range.width();
  m->ref.emplace("lower50", m->fluid->ExtractSubnet(family.MasterResident()));
  m->ref.emplace("upper50", m->fluid->ExtractSubnet(upper));
  m->ref.emplace("full", m->fluid->ExtractSubnet(combined));
  auto halves =
      fluid::train::SplitConvNet(m->cfg, m->width, m->ref.at("full"), kCutStage);
  m->ref.emplace("front", std::move(halves.front));
  m->ref.emplace("back", std::move(halves.back));
  return m;
}

nn::Sequential Models::Copy(const std::string& name) const {
  const auto& family = fluid->family();
  if (name == "lower50") return fluid->ExtractSubnet(family.MasterResident());
  if (name == "upper50") return fluid->ExtractSubnet(family.WorkerResident());
  nn::Sequential full = fluid->ExtractSubnet(family.Combined());
  if (name == "full") return full;
  auto halves = fluid::train::SplitConvNet(cfg, width, full, kCutStage);
  return name == "front" ? std::move(halves.front) : std::move(halves.back);
}

Fleet::Fleet(const FleetSpec& spec, const Models& models)
    : spec_(spec), models_(models) {
  const bool ha = spec.mode == ServeMode::kHighAccuracy;
  const auto upper_bp =
      dist::ModelBlueprint::Standalone(models.cfg, models.upper_width);
  nn::Sequential upper_net = models.Copy("upper50");
  const nn::StateDict upper_state = nn::ExtractState(upper_net);
  auto back_bp =
      dist::ModelBlueprint::PipelineBack(models.cfg, models.width, kCutStage);
  back_bp.quant.int8_wire = true;  // wire v3 int8 cut activations
  nn::Sequential back_net = models.Copy("back");
  const nn::StateDict back_state = nn::ExtractState(back_net);

  for (std::size_t p = 0; p < spec.partitions; ++p) {
    Partition part;
    part.master = std::make_unique<dist::MasterNode>(models.cfg);
    auto [master_end, worker_end] = MakeLink(spec.link);
    part.worker = std::make_unique<dist::WorkerNode>(
        "w" + std::to_string(p), models.cfg, std::move(worker_end));
    part.worker->Start();
    part.master->AttachWorker(std::move(master_end));

    dist::Plan plan;
    part.master->DeployLocal("lower50", models.Copy("lower50"));
    plan.master_standalone = "lower50";
    if (ha) {
      part.master->DeployLocal("front", models.Copy("front"));
      part.master->DeployToWorker("back", back_bp, back_state, kDeployTimeout)
          .ThrowIfError();
      plan.pipeline_front = "front";
      plan.pipeline_back = "back";
      plan.back_worker = 0;
    } else {
      part.master->DeployToWorker("upper50", upper_bp, upper_state, kDeployTimeout)
          .ThrowIfError();
      plan.worker_standalone = "upper50";
    }
    part.master->SetPlan(plan);
    part.master->SetMode(ha ? fluid::sim::Mode::kHighAccuracy
                            : fluid::sim::Mode::kHighThroughput);
    part.master->StartServing(spec.batch);
    parts_.push_back(std::move(part));
  }
  if (spec.router) {
    dist::RouterOptions ropts;
    ropts.policy = dist::RoutePolicy::kLeastLoaded;
    router_ = std::make_unique<dist::RequestRouter>(ropts);
    for (auto& part : parts_) router_->AddPartition(part.master.get());
  }
}

Fleet::~Fleet() {
  if (router_) router_->Stop();
  for (auto& part : parts_) {
    part.master->StopServing();
    part.worker->Stop();
  }
}

ReplyFuture Fleet::Submit(core::Tensor input, const dist::SubmitOptions& opts) {
  if (router_) return router_->InferAsync(std::move(input), opts);
  return parts_[0].master->InferAsync(std::move(input), opts);
}

void Fleet::CrashWorkers() {
  for (auto& part : parts_) part.worker->Crash();
}

std::vector<double> Fleet::ReattachWorkers() {
  std::vector<double> seconds;
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    Partition& part = parts_[p];
    // The master learns of a death lazily; make sure the slot is marked
    // dead before reviving it.
    if (part.master->WorkerAlive(0)) part.master->ProbeWorkers(100ms);
    part.worker->Stop();
    auto [master_end, worker_end] = MakeLink(spec_.link);
    part.worker = std::make_unique<dist::WorkerNode>(
        "w" + std::to_string(p) + "." + std::to_string(++worker_generation_),
        models_.cfg, std::move(worker_end));
    part.worker->Start();
    const auto t0 = Clock::now();
    part.master->ReattachWorker(0, std::move(master_end), kDeployTimeout)
        .ThrowIfError();
    seconds.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return seconds;
}

FleetCounters Fleet::Counters() const {
  FleetCounters c;
  for (const auto& part : parts_) {
    AddStats(c.master, part.master->stats());
    const dist::WireStats mw = part.master->wire_stats();
    c.master_batched_sends += mw.batched_sends;
    c.wire += mw;
    c.wire += part.worker->wire_stats();
  }
  if (router_) {
    c.sched = router_->scheduler_stats();
    c.router = router_->stats();
  } else {
    c.sched = parts_[0].master->scheduler_stats();
  }
  c.pool = core::PoolStatsSnapshot();
  c.allocs = core::AllocCount();
  c.alloc_bytes = core::AllocBytes();
  return c;
}

std::vector<std::string> Fleet::Deployed() const {
  if (spec_.mode == ServeMode::kHighAccuracy) return {"front", "back", "lower50"};
  return {"lower50", "upper50"};
}

}  // namespace fluidbench
