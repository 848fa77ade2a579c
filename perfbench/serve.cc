// serve-replicated and serve-pipeline: the serving stack, admit -> queue ->
// route -> execute -> audit -> deliver, with pacing off and no faults.
//
// One generator thread keeps one request in flight (a closed loop) against a
// Router over two chips with one serving worker per shard or stage, so at
// most two threads are busy at once. No request waits behind another, which
// would split the latencies into modes by queue position and let the
// scheduler's choices move their median; a request's latency is its own
// path through admit -> queue -> route -> execute -> audit -> deliver.
// Replicated mode serves the t10-serve demo MLP's fc2 and relu slots, two
// fc2 requests to every relu one, with input seeds from a small pool, so the
// per-response audit mostly reuses its cached reference; the latency
// quantiles then fall inside fc2's mode. Pipeline mode serves the 4-op
// pipeline demo model with a fresh seed per request, so every step computes
// its reference and every request crosses the stage handoff.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "perfbench/perfbench.h"
#include "src/core/compiler.h"
#include "src/core/device_program.h"
#include "src/fault/campaign.h"
#include "src/fault/fault_plan.h"
#include "src/ir/parser.h"
#include "src/serve/router.h"
#include "src/util/rng.h"
#include "src/verify/verifier.h"

namespace perfbench {
namespace {

using t10::serve::Request;
using t10::serve::Response;
using t10::serve::Router;

constexpr int kCores = 16;
constexpr int kChips = 2;
constexpr int kOutstanding = 1;
constexpr int kSeedPool = 4;  // Replicated: input seeds per op slot.
// Replicated: the op slots requests cycle through. fc1 is left out: its run
// time has two modes of its own.
constexpr const char* kServedSlots[] = {"fc2", "fc2", "relu"};
constexpr std::int64_t kCensusRequests = 48;
// Request index spaces: census, calibration and warm-up requests never share
// a seed with a timed request, so pipeline requests stay uncached.
constexpr std::int64_t kCensusBase = std::int64_t{1} << 40;
constexpr std::int64_t kCalibrationBase = std::int64_t{2} << 40;
constexpr std::int64_t kWarmupBase = std::int64_t{3} << 40;
constexpr std::int64_t kWarmupRequests = 64;
// Calibration: rounds of one burst per router, alternating which goes first;
// the first runs kBurstSeconds, the second the same requests.
// tracing_overhead is the median over pairs of rounds, one with each router
// first, of traced over untraced time, so that any advantage of going first
// or second cancels within a pair.
constexpr double kCalibrationSeconds = 6.0;
constexpr int kMinCalibrationRounds = 4;
constexpr double kBurstSeconds = 0.25;
constexpr int kLowerRepeats = 200;
constexpr int kChecksumRepeats = 200;
// Shard request ids start at (shard + 1) * 1e9 (ServerOptions), router
// client ids at 0, so trace ids tell the two apart.
constexpr std::uint64_t kShardTraceIds = 1000000000;

// The t10-serve demo models; the activation's flops per element come from
// the seed (ReLU-like 1 to GELU-like 8), which moves the simulated time but
// not the bytes the executor handles.
std::string ModelText(bool pipeline, std::int64_t activation_cost) {
  const std::string cost = std::to_string(activation_cost);
  if (pipeline) {
    return "model serve-pipe-mlp\n"
           "matmul name=fc1 m=16 k=32 n=32 a=x b=w1 c=h1 dtype=f32 weight=w1\n"
           "unary  name=relu shape=16x32 in=h1 out=h2 cost=" +
           cost +
           " dtype=f32\n"
           "matmul name=fc2 m=16 k=32 n=32 a=h2 b=w2 c=h3 dtype=f32 weight=w2\n"
           "matmul name=fc3 m=16 k=32 n=16 a=h3 b=w3 c=y dtype=f32 weight=w3\n";
  }
  return "model serve-mlp\n"
         "matmul name=fc1 m=16 k=32 n=32 a=x b=w1 c=h1 dtype=f32 weight=w1\n"
         "unary  name=relu shape=16x32 in=h1 out=h2 cost=" +
         cost +
         " dtype=f32\n"
         "matmul name=fc2 m=16 k=32 n=16 a=h2 b=w2 c=y dtype=f32 weight=w2\n";
}

struct LoopResult {
  std::vector<double> latencies;
  std::vector<double> submit_seconds;
  double wall_seconds = 0.0;
  std::int64_t reused_keys = 0;  // Requests whose (slot, seed) was seen before.
  std::vector<double> warm_compiles;
};

// Exact values of a sequential census: one request at a time, so routing
// and reference caching are deterministic.
struct Census {
  std::vector<std::uint64_t> checksums;
  std::vector<int> slots;
  std::int64_t bytes_sent = 0, rotation_steps = 0;
  double scratchpad_peak = 0.0;
  std::int64_t handoffs = 0, redirects = 0, hedges = 0;

  void Observe(ExactValues& exact) const {
    std::uint64_t digest = 0;
    for (std::uint64_t checksum : checksums) {
      digest = Mix(digest, checksum);
    }
    exact.Observe("checksums", static_cast<double>(digest >> 11));  // Exact in a double.
    exact.Observe("sim.bytes_sent", static_cast<double>(bytes_sent));
    exact.Observe("sim.rotation_steps", static_cast<double>(rotation_steps));
    exact.Observe("sim.scratchpad_peak_bytes", scratchpad_peak);
    exact.Observe("handoffs", static_cast<double>(handoffs));
    exact.Observe("redirects", static_cast<double>(redirects));
    exact.Observe("hedges", static_cast<double>(hedges));
  }
};

class ServeBench {
 public:
  ServeBench(const Args& args, bool pipeline, Report& report)
      : args_(args), pipeline_(pipeline), report_(report) {
    t10::Rng rng(args.seed);
    activation_cost_ = rng.Uniform(1, 8);
    for (int i = 0; i < kSeedPool; ++i) {
      seed_pool_.push_back(Mix(args.seed, (std::uint64_t{4} << 40) + i));
    }
  }

  // Parses the model and starts the router.
  void Setup(t10::obs::Tracer* tracer) {
    t10::StatusOr<t10::Graph> parsed =
        t10::TryParseModelText(ModelText(pipeline_, activation_cost_));
    if (!parsed.ok()) {
      report_.Fail("serve model: " + parsed.status().ToString());
      return;
    }
    graph_ = std::make_unique<t10::Graph>(*std::move(parsed));
    router_ = StartRouter(tracer);
  }

  std::unique_ptr<Router> StartRouter(t10::obs::Tracer* tracer) {
    t10::serve::RouterOptions options;
    options.num_shards = kChips;
    options.shard.num_workers = 1;
    options.shard.tracer = tracer;
    options.tracer = tracer;
    std::unique_ptr<Router> router =
        pipeline_ ? std::make_unique<Router>(t10::ClusterSpec::Homogeneous(chip_, kChips),
                                             *graph_, options)
                  : std::make_unique<Router>(chip_, *graph_, options);
    if (t10::Status started = router->Start(); !started.ok()) {
      report_.Fail("router start: " + started.ToString());
      return nullptr;
    }
    served_slots_.clear();
    for (const char* name : kServedSlots) {
      for (int slot = 0; slot < router->num_op_slots(); ++slot) {
        if (router->op_slot_name(slot) == name) {
          served_slots_.push_back(slot);
        }
      }
    }
    return router;
  }

  Router* router() { return router_.get(); }
  // Sampled by the generator thread in every closed loop.
  const HostProbe& probe() const { return probe_; }

  Request RequestAt(std::int64_t index) const {
    const std::uint64_t h = Mix(args_.seed, static_cast<std::uint64_t>(index));
    Request request;
    if (pipeline_) {
      request.op_slot = 0;
      request.input_seed = h;
    } else {
      request.op_slot = served_slots_[static_cast<std::size_t>(index) % served_slots_.size()];
      request.input_seed = seed_pool_[(h >> 16) % kSeedPool];
    }
    return request;
  }

  Census RunCensus(Router& router) {
    Census census;
    const t10::serve::RouterStats before = router.stats();
    const std::int64_t bytes0 = CounterValue("sim.machine.bytes_sent");
    const std::int64_t rotations0 = CounterValue("sim.machine.rotation_steps");
    ResetGauge("sim.machine.scratchpad_peak_bytes");
    for (std::int64_t i = 0; i < kCensusRequests; ++i) {
      const Request request = RequestAt(kCensusBase + i);
      const t10::StatusOr<std::int64_t> id = router.Submit(request);
      if (!id.ok()) {
        report_.Fail("census submit: " + id.status().ToString());
        return census;
      }
      router.WaitIdle();
      const std::vector<Response> responses = router.TakeResponses();
      if (responses.size() != 1 || responses[0].id != *id) {
        report_.Fail("census: expected exactly one response per request");
        return census;
      }
      CheckResponse(request, responses[0]);
      seen_keys_.insert(std::make_pair(request.op_slot, request.input_seed));
      census.checksums.push_back(responses[0].checksum);
      census.slots.push_back(request.op_slot);
    }
    const t10::serve::RouterStats after = router.stats();
    census.bytes_sent = CounterValue("sim.machine.bytes_sent") - bytes0;
    census.rotation_steps = CounterValue("sim.machine.rotation_steps") - rotations0;
    census.scratchpad_peak = GaugeValue("sim.machine.scratchpad_peak_bytes");
    census.handoffs = after.handoffs - before.handoffs;
    census.redirects = after.redirects - before.redirects;
    census.hedges = after.hedges - before.hedges;
    return census;
  }

  // Closed loop over request indices first, first+1, ... until
  // `stop(submitted)`; returns once every submitted request is answered.
  // The timed phase also counts attempts and takes warm-compile samples at
  // the probe's sampling points.
  template <class Stop>
  LoopResult ClosedLoop(Router& router, std::int64_t first, bool timed, Stop&& stop) {
    LoopResult result;
    std::map<std::int64_t, Request> in_flight;
    std::int64_t next = first;
    const Clock::time_point start = Clock::now();
    while (true) {
      while (static_cast<int>(in_flight.size()) < kOutstanding &&
             !stop(next - first)) {
        const Request request = RequestAt(next++);
        const Clock::time_point submit_start = Clock::now();
        const t10::StatusOr<std::int64_t> id = router.Submit(request);
        result.submit_seconds.push_back(SecondsSince(submit_start));
        if (timed) {
          ++report_.attempted;
        }
        if (!id.ok()) {
          // Shed or refused: counted as a failure, with no response coming.
          if (timed) {
            ++report_.failed;
          }
          report_.Fail("submit: " + id.status().ToString());
          continue;
        }
        const auto key = std::make_pair(request.op_slot, request.input_seed);
        result.reused_keys += seen_keys_.insert(key).second ? 0 : 1;
        in_flight.emplace(*id, request);
      }
      if (in_flight.empty()) {
        break;
      }
      if (probe_.Due()) {
        for (int r = 0; timed && r < kWarmCompilesPerProbe; ++r) {
          result.warm_compiles.push_back(WarmCompileSeconds());
        }
        probe_.Sample();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      for (Response& response : router.TakeResponses()) {
        auto it = in_flight.find(response.id);
        if (it == in_flight.end()) {
          report_.Fail("response for an unknown or already answered request");
          continue;
        }
        result.latencies.push_back(response.latency_seconds);
        if (!CheckResponse(it->second, response) && timed) {
          ++report_.failed;
        }
        if (outputs_.size() < 64) {
          outputs_.push_back(std::move(response.output.data));
        }
        in_flight.erase(it);
      }
    }
    result.wall_seconds = SecondsSince(start);
    router.WaitIdle();
    if (!router.TakeResponses().empty()) {
      report_.Fail("a request was answered more than once");
    }
    return result;
  }

  // The served graph compiled on one chip, as every shard's epoch 0 does.
  const t10::CompiledModel& Model() {
    if (!compiler_) {
      t10::CompileOptions options;
      options.jobs = 1;
      compiler_ = std::make_unique<t10::Compiler>(chip_, options);
      model_ = compiler_->Compile(*graph_);
    }
    return model_;
  }

  // Cost-model seconds one request occupies the simulated chips.
  double RequestDeviceSeconds(const Router& router, int slot) {
    const t10::CompiledModel& model = Model();
    if (pipeline_) {
      double seconds = router.partition().handoff_seconds;
      for (const t10::CompiledOp& op : model.ops) {
        seconds += op.measured.total_seconds();
      }
      return seconds;
    }
    const std::string name = router.op_slot_name(slot);
    for (const t10::CompiledOp& op : model.ops) {
      if (graph_->op(op.op_index).name() == name) {
        return op.measured.total_seconds();
      }
    }
    report_.Fail("op slot " + name + " not in the compiled model");
    return 0.0;
  }

  // Writes the served graph's on-disk plan cache with one cold compile.
  void PrepareWarmCompiles() {
    std::filesystem::create_directories(CacheDir());
    t10::Compiler compiler(chip_, CacheOptions());
    cold_fingerprint_ = compiler.Compile(*graph_).Fingerprint();
  }

  // One warm recompile of the served graph from that cache, in seconds.
  double WarmCompileSeconds() {
    const Clock::time_point start = Clock::now();
    t10::CompiledModel warm;
    {
      t10::Compiler compiler(chip_, CacheOptions());
      warm = compiler.Compile(*graph_);
    }
    const double seconds = SecondsSince(start);
    if (warm.Fingerprint() != cold_fingerprint_) {
      report_.Fail("served model: warm recompile differs from the cold compile");
    }
    return seconds;
  }

  void DropWarmCompiles() { std::filesystem::remove_all(CacheDir()); }

  // Benchmark-timed LowerPlan of the plans the servers execute (the
  // campaign's PickExecutablePlan over the compiler's search), per call.
  double LowerSeconds() {
    const t10::CompiledModel& model = Model();
    std::vector<t10::IntraOpResult> searches;
    std::vector<const t10::ExecutionPlan*> plans;
    searches.reserve(model.ops.size());
    for (const t10::CompiledOp& op : model.ops) {
      searches.push_back(compiler_->SearchOp(graph_->op(op.op_index)));
      plans.push_back(t10::fault::PickExecutablePlan(searches.back(), &op.active_plan));
    }
    std::int64_t calls = 0;
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < kLowerRepeats; ++r) {
      for (const t10::ExecutionPlan* plan : plans) {
        calls += t10::LowerPlan(*plan).steps.empty() ? 0 : 1;
      }
    }
    return SecondsSince(start) / static_cast<double>(std::max<std::int64_t>(1, calls));
  }

  // Benchmark-timed fault::Checksum over the collected response outputs.
  double ChecksumMibPerSecond() {
    std::int64_t bytes = 0;
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < kChecksumRepeats; ++r) {
      for (const std::vector<float>& output : outputs_) {
        const auto size = static_cast<std::int64_t>(output.size() * sizeof(float));
        checksum_sink_ ^=
            t10::fault::Checksum(reinterpret_cast<const std::byte*>(output.data()), size);
        bytes += size;
      }
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0) / SecondsSince(start);
  }

  double VerifySeconds() {
    const t10::verify::Verifier verifier(chip_);
    const Clock::time_point start = Clock::now();
    const t10::verify::VerifyResult result = verifier.VerifyAll(Model(), *graph_);
    const double seconds = SecondsSince(start);
    if (!result.ok()) {
      report_.Fail("served model: verifier: " + result.Listing());
    }
    return seconds;
  }

 private:
  std::filesystem::path CacheDir() const {
    return std::filesystem::path(args_.workdir) / "serve-cache";
  }

  t10::CompileOptions CacheOptions() const {
    t10::CompileOptions options;
    options.jobs = 1;
    options.plan_cache_dir = CacheDir().string();
    return options;
  }

  // Oracle: OK, bit-identical to the fault-free reference, and the same
  // bytes every time the same (slot, seed) is served.
  bool CheckResponse(const Request& request, const Response& response) {
    if (!response.status.ok() || !response.bit_identical) {
      report_.Fail("request answered " + response.status.ToString() +
                   (response.bit_identical ? "" : " (not bit-identical)"));
      return false;
    }
    const auto key = std::make_pair(request.op_slot, request.input_seed);
    auto [it, inserted] = checksums_.emplace(key, response.checksum);
    if (!inserted && it->second != response.checksum) {
      report_.Fail("the same request was served with different bytes");
      return false;
    }
    return true;
  }

  const Args& args_;
  const bool pipeline_;
  Report& report_;
  const t10::ChipSpec chip_ = t10::ChipSpec::ScaledIpu(kCores);
  std::int64_t activation_cost_ = 1;
  std::vector<int> served_slots_;
  std::vector<std::uint64_t> seed_pool_;
  std::unique_ptr<t10::Graph> graph_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<t10::Compiler> compiler_;
  t10::CompiledModel model_;
  std::set<std::pair<int, std::uint64_t>> seen_keys_;
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> checksums_;
  std::vector<std::vector<float>> outputs_;  // Checksum timing input.
  std::uint64_t checksum_sink_ = 0;
  std::string cold_fingerprint_;
  // One copy per serving worker: in five-seed trials a single copy tracked
  // the serve timings worse (median-latency spread 17% against 4-6%).
  HostProbe probe_{kChips};
};

std::string StageOf(const t10::obs::SpanRecord& span) {
  for (const t10::obs::SpanAttr& attr : span.attrs) {
    if (attr.key == "stage") {
      return attr.value;
    }
  }
  return "";
}

// Per-layer numbers from the traced phase's spans.
void PublishSpanLayers(Report& report, const std::vector<t10::obs::SpanRecord>& spans) {
  const std::map<std::string, SpanTotals> totals = SummarizeSpans(spans);
  auto mean_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_seconds / static_cast<double>(it->second.count) * 1e3;
  };
  report.Set("serve.queue_wait_ms", mean_ms("queue.wait"), "ms");
  report.Set("serve.execute_ms", mean_ms("execute"), "ms");
  report.Set("serve.audit_ms", mean_ms("audit"), "ms");

  // The router's attempt span covers the shard request it started; its
  // self time over that request is the routing and completion plumbing.
  std::map<std::uint64_t, std::pair<double, double>> shard_extent;
  std::map<std::uint64_t, std::vector<const t10::obs::SpanRecord*>> attempts;
  for (const t10::obs::SpanRecord& span : spans) {
    const double end = span.start_seconds + span.duration_seconds;
    if (span.trace_id >= kShardTraceIds) {
      auto [it, inserted] =
          shard_extent.emplace(span.trace_id, std::make_pair(span.start_seconds, end));
      if (!inserted) {
        it->second.first = std::min(it->second.first, span.start_seconds);
        it->second.second = std::max(it->second.second, end);
      }
    } else if (span.name == "router.attempt") {
      attempts[span.trace_id].push_back(&span);
    }
  }
  double attempt_seconds = 0.0, shard_seconds = 0.0, handoff_seconds = 0.0;
  std::int64_t attempt_count = 0, handoff_count = 0;
  for (const auto& [trace, extent] : shard_extent) {
    shard_seconds += extent.second - extent.first;
  }
  for (auto& [trace, list] : attempts) {
    std::sort(list.begin(), list.end(),
              [](const auto* a, const auto* b) { return a->start_seconds < b->start_seconds; });
    for (std::size_t i = 0; i < list.size(); ++i) {
      attempt_seconds += list[i]->duration_seconds;
      ++attempt_count;
      if (i > 0 && !StageOf(*list[i]).empty() && StageOf(*list[i]) != StageOf(*list[i - 1])) {
        handoff_seconds += list[i]->start_seconds -
                           (list[i - 1]->start_seconds + list[i - 1]->duration_seconds);
        ++handoff_count;
      }
    }
  }
  report.Set("router.route_us",
             attempt_count == 0
                 ? 0.0
                 : (attempt_seconds - shard_seconds) / static_cast<double>(attempt_count) * 1e6,
             "us");
  report.Set("router.handoff_ms",
             handoff_count == 0 ? 0.0 : handoff_seconds / static_cast<double>(handoff_count) * 1e3,
             "ms");
}

}  // namespace

Report RunServe(const Args& args, bool pipeline) {
  Report report;
  WorkSummary work;
  work.setup_seconds = NominalSetupSeconds([&] {
    ServeBench throwaway(args, pipeline, report);
    return TimeSeconds([&] { throwaway.Setup(nullptr); });
  });
  ServeBench bench(args, pipeline, report);
  t10::obs::Tracer tracer;
  bench.Setup(args.trace ? &tracer : nullptr);
  if (bench.router() == nullptr) {
    return report;
  }
  Router& router = *bench.router();
  ExactValues exact;
  const Census census = bench.RunCensus(router);
  census.Observe(exact);
  bench.ClosedLoop(router, kWarmupBase, false,
                   [](std::int64_t submitted) { return submitted >= kWarmupRequests; });

  bench.PrepareWarmCompiles();
  const double timed_from = tracer.NowSeconds();
  const Clock::time_point phase_start = Clock::now();
  const LoopResult timed = bench.ClosedLoop(router, 0, true, [&](std::int64_t submitted) {
    return PhaseDone(args, bench.probe(), phase_start, submitted);
  });
  work.rss_peak_mib = PeakRssMiB();
  bench.DropWarmCompiles();

  // A second router with tracing flipped: the census again (exact repeat on
  // an independently started router), then the tracing calibration.
  t10::obs::Tracer other_tracer;
  std::unique_ptr<Router> other = bench.StartRouter(args.trace ? nullptr : &other_tracer);
  if (other == nullptr) {
    return report;
  }
  bench.RunCensus(*other).Observe(exact);
  if (!exact.Deterministic("checksums")) {
    report.Fail("census responses differ between two routers serving the same requests");
  }
  bench.ClosedLoop(*other, kWarmupBase, false,
                   [](std::int64_t submitted) { return submitted >= kWarmupRequests; });

  // Rounds of one burst per router, alternating which goes first, on the
  // same requests. sides[0] is the untraced router.
  Router* sides[2] = {args.trace ? other.get() : &router, args.trace ? &router : other.get()};
  std::vector<double> ratios;
  double side_seconds[2] = {0.0, 0.0};
  std::int64_t first = kCalibrationBase;
  const Clock::time_point calibration_start = Clock::now();
  for (int round = 0; round < kMinCalibrationRounds || round % 2 == 1 ||
                      SecondsSince(calibration_start) < kCalibrationSeconds;
       ++round) {
    const int lead = round % 2;
    const Clock::time_point burst_start = Clock::now();
    const LoopResult led = bench.ClosedLoop(*sides[lead], first, false, [&](std::int64_t) {
      return SecondsSince(burst_start) >= kBurstSeconds;
    });
    const auto requests = static_cast<std::int64_t>(led.latencies.size());
    const LoopResult followed =
        bench.ClosedLoop(*sides[1 - lead], first, false,
                         [&](std::int64_t submitted) { return submitted >= requests; });
    side_seconds[lead] += led.wall_seconds;
    side_seconds[1 - lead] += followed.wall_seconds;
    if (lead == 1) {
      ratios.push_back(side_seconds[1] / side_seconds[0]);
      side_seconds[0] = side_seconds[1] = 0.0;
    }
    first += requests;
  }
  if (t10::Status stopped = other->Shutdown(); !stopped.ok()) {
    report.Fail("calibration router shutdown: " + stopped.ToString());
  }
  other.reset();

  if (args.trace) {
    std::vector<t10::obs::SpanRecord> spans;
    for (t10::obs::SpanRecord& span : tracer.FinishedSpans()) {
      const double end = span.start_seconds + span.duration_seconds;
      if (span.start_seconds >= timed_from && end <= timed_from + timed.wall_seconds) {
        spans.push_back(std::move(span));
      }
    }
    PublishSpanLayers(report, spans);
    report.Set("serve.submit_us", Mean(timed.submit_seconds) * 1e6, "us");
    report.Set("serve.audit.reuse_ratio",
               static_cast<double>(timed.reused_keys) /
                   static_cast<double>(timed.submit_seconds.size()),
               "ratio");
    report.Set("core.lower.ms", bench.LowerSeconds() * 1e3, "ms");
    report.Set("fault.checksum.mib_per_s", bench.ChecksumMibPerSecond(), "MiB/s");
    report.Set("verify.ms", bench.VerifySeconds() * 1e3, "ms");
    exact.Publish(report, "redirects", "router.redirects", 1.0, "count");
    exact.Publish(report, "hedges", "router.hedges", 1.0, "count");
    exact.Publish(report, "handoffs", "router.handoffs", 1.0, "count");
    exact.Publish(report, "sim.bytes_sent", "sim.bytes_sent", 1.0, "B");
    exact.Publish(report, "sim.rotation_steps", "sim.rotation_steps", 1.0, "count");
    exact.Publish(report, "sim.scratchpad_peak_bytes", "sim.scratchpad_peak_kib", 1.0 / 1024.0,
                  "KiB");
  } else {
    work.item_seconds = timed.latencies;
    work.tail_seconds = timed.latencies;
    work.busy_seconds = timed.wall_seconds;
    work.warm_compile_seconds = Median(timed.warm_compiles);
    work.tracing_overhead = Median(ratios);
    work.host_factor = bench.probe().factor();
    PublishWork(report, work);
    double device_seconds = 0.0;
    for (int slot : census.slots) {
      device_seconds += bench.RequestDeviceSeconds(router, slot);
    }
    report.Set("device_us", device_seconds / static_cast<double>(census.slots.size()) * 1e6,
               "us");
    exact.Publish(report, "sim.scratchpad_peak_bytes", "mem_peak_kib", 1.0 / 1024.0, "KiB");
  }
  if (t10::Status stopped = router.Shutdown(); !stopped.ok()) {
    report.Fail("router shutdown: " + stopped.ToString());
  }
  return report;
}

}  // namespace perfbench
