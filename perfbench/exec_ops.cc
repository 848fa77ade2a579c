// exec-ops: the byte-level executor under light transient faults.
//
// FP32 contraction, bmm, elementwise and reduce operators with seeded
// shapes, parsed from text here because every zoo model is FP16 and the
// executor runs FP32 only. Each contraction runs under two plans: the
// compiled active plan (one step, bound by the compute vertex) and the
// supported Pareto plan with the most rotation steps (heavy on slab shifts,
// checksums and retries). One item is one ProgramExecutor::Run of an
// (op, plan, input seed) triple with fault-tolerant execution under a
// FaultInjector seeded per item. Compiles and searches happen in set-up.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>

#include "perfbench/perfbench.h"
#include "src/core/compiler.h"
#include "src/core/device_program.h"
#include "src/core/functional.h"
#include "src/core/program_executor.h"
#include "src/fault/campaign.h"
#include "src/fault/fault_plan.h"
#include "src/ir/parser.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using t10::ExecutionPlan;
using t10::HostTensor;
using t10::ProgramRunStats;
namespace fs = std::filesystem;

constexpr int kCores = 16;
// Contractions run under both plan kinds, pointwise ops have only one-step
// plans.
constexpr int kContractions = 16;
constexpr int kPointwise = 16;
constexpr int kInputSeeds = 2;
// A one-step contraction triple appears this many times per cycle of items,
// every other triple once: pointwise runs are a fifth of the items, one-step
// contractions three fifths and rotating runs a fifth, which puts the p50 in
// the middle of the one-step contractions and the p90 in the middle of the
// rotating runs, away from the gaps between the groups.
constexpr int kOneStepContractionWeight = 3;
// Per transfer event; with bounded retries no run exhausts its budget.
constexpr double kCorruptRate = 0.01;
// Tolerance of the executor against the single-core reference, as in the
// executor's own unit tests.
constexpr double kReferenceTolerance = 1e-3;
constexpr std::int64_t kCalibrationCycles = 3;
constexpr std::int64_t kCalibrationChunk = 16;
constexpr int kLowerRepeats = 20;

// Seeded operator text. Contraction i has 1024 output elements and
// k = 16 + 4i, so the contractions' run times form a continuum rather than
// one narrow group, and a medium-term drift of the host's speed moves the
// percentiles smoothly; every pointwise op has 4096 elements. The seed
// draws the aspect ratios and batch splits, which move the plans, not the
// amount of work.
std::string OpsModelText(std::uint64_t seed) {
  t10::Rng rng(seed);
  std::string text = "model perfbench-exec-ops\n";
  auto pow2 = [](std::int64_t e) { return std::to_string(std::int64_t{1} << e); };
  for (int i = 0; i < kContractions; ++i) {
    const std::string id = std::to_string(i);
    const std::string k = std::to_string(16 + 4 * i);
    if (i % 2 == 0) {
      const std::int64_t m = rng.Uniform(3, 7);
      text += "matmul name=mm" + id + " m=" + pow2(m) + " k=" + k + " n=" + pow2(10 - m) +
              " a=a" + id + " b=b" + id + " c=c" + id + " dtype=f32\n";
    } else {
      const std::int64_t batch = rng.Uniform(1, 3);
      const std::int64_t m = rng.Uniform(2, 8 - batch);
      text += "bmm name=bmm" + id + " batch=" + pow2(batch) + " m=" + pow2(m) + " k=" + k +
              " n=" + pow2(10 - batch - m) + " a=a" + id + " b=b" + id + " c=c" + id +
              " dtype=f32\n";
    }
  }
  for (int i = 0; i < kPointwise; ++i) {
    const std::string id = std::to_string(i);
    const std::int64_t rows = rng.Uniform(4, 8);
    const std::string shape = pow2(rows) + "x" + pow2(12 - rows);
    switch (i % 3) {
      case 0:
        text += "binary name=add" + id + " shape=" + shape + " lhs=x" + id + " rhs=y" + id +
                " out=z" + id + " dtype=f32\n";
        break;
      case 1:
        text += "unary name=act" + id + " shape=" + shape + " in=x" + id + " out=z" + id +
                " dtype=f32\n";
        break;
      default:
        text += "reduce name=sum" + id + " shape=" + shape + " in=x" + id + " out=z" + id +
                " dtype=f32\n";
        break;
    }
  }
  return text;
}

struct PlanCase {
  const ExecutionPlan* plan = nullptr;
  bool contraction = false;
  double device_seconds = 0.0;  // Ground-truth simulated time of the plan.
  double points = 0.0;          // Iteration-space size (MACs for contractions).
  bool rotating = false;        // More than one step.
};

struct Triple {
  int plan_case = 0;
  std::vector<HostTensor> inputs;
  std::vector<float> expected;  // Fault-free executor output.
};

struct ItemResult {
  bool ok = true;  // Run succeeded with the fault-free output's bytes.
  double seconds = 0.0;
  ProgramRunStats stats;
  // sim.machine.* registry deltas of this item.
  std::int64_t sim_bytes_sent = 0, sim_rotation_steps = 0;
  double sim_scratchpad_peak = 0.0;
};

bool SameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class ExecOps {
 public:
  ExecOps(const Args& args, Report& report) : args_(args), report_(report) {}

  void Setup() {
    cases_.clear();
    triples_.clear();
    searches_.clear();
    if (!ParseGraph()) {
      return;
    }
    machine_ = std::make_unique<t10::Machine>(chip_);
    compiler_ = std::make_unique<t10::Compiler>(chip_, CompileOptions());
    compiler_->cost_model();
    model_ = compiler_->Compile(*graph_);
    t10::Machine pristine(chip_);
    for (const t10::CompiledOp& compiled : model_.ops) {
      const t10::Operator& op = graph_->op(compiled.op_index);
      searches_.push_back(std::make_unique<t10::IntraOpResult>(compiler_->SearchOp(op)));
      const ExecutionPlan* active =
          t10::fault::PlanSupported(compiled.active_plan) ? &compiled.active_plan : nullptr;
      const ExecutionPlan* rotating = t10::fault::PickExecutablePlan(*searches_.back(), nullptr);
      std::vector<const ExecutionPlan*> plans;
      if (active != nullptr) {
        plans.push_back(active);
      }
      if (rotating != nullptr &&
          (active == nullptr || rotating->total_steps() > active->total_steps())) {
        plans.push_back(rotating);
      }
      if (plans.empty()) {
        report_.Fail(op.name() + ": no executable plan");
        continue;
      }
      double points = 1.0;
      for (const t10::Axis& axis : op.axes()) {
        points *= static_cast<double>(axis.length);
      }
      for (const ExecutionPlan* plan : plans) {
        cases_.push_back({plan, op.kind() == t10::OpKind::kContraction,
                          plan->Evaluate(compiler_->ground_truth(), chip_).total_seconds(), points,
                          plan->total_steps() > 1});
        for (int s = 0; s < kInputSeeds; ++s) {
          AddTriple(static_cast<int>(cases_.size()) - 1, op, pristine,
                    Mix(args_.seed, 1000 + 7 * compiled.op_index + s));
        }
      }
    }
    order_.clear();
    for (std::size_t t = 0; t < triples_.size(); ++t) {
      const PlanCase& plan_case = cases_[static_cast<std::size_t>(triples_[t].plan_case)];
      const int weight =
          plan_case.contraction && !plan_case.rotating ? kOneStepContractionWeight : 1;
      order_.insert(order_.end(), static_cast<std::size_t>(weight), t);
    }
    t10::Rng rng(args_.seed);
    std::shuffle(order_.begin(), order_.end(), rng.engine());
  }

  // Items per cycle: item i runs triple order_[i % cycle_length()].
  std::size_t cycle_length() const { return order_.size(); }

  ItemResult RunItem(std::int64_t index, t10::obs::Tracer* tracer) {
    const Triple& triple = triples_[order_[static_cast<std::size_t>(index) % order_.size()]];
    const PlanCase& plan_case = cases_[static_cast<std::size_t>(triple.plan_case)];
    t10::fault::FaultSpec spec;
    spec.seed = Mix(args_.seed, static_cast<std::uint64_t>(index));
    spec.corrupt_rate = kCorruptRate;
    t10::fault::FaultInjector injector(spec);
    machine_->AttachFaults(&injector);
    t10::FaultToleranceOptions tolerance;
    tolerance.enabled = true;

    ItemResult result;
    const std::int64_t bytes = CounterValue("sim.machine.bytes_sent");
    const std::int64_t rotations = CounterValue("sim.machine.rotation_steps");
    ResetGauge("sim.machine.scratchpad_peak_bytes");
    const Clock::time_point start = Clock::now();
    t10::ProgramExecutor executor(*machine_, *plan_case.plan, tolerance);
    if (tracer != nullptr) {
      executor.SetTrace(tracer->Root(static_cast<std::uint64_t>(index) + 1, "exec"), nullptr);
    }
    t10::StatusOr<HostTensor> output = executor.Run(triple.inputs, &result.stats);
    result.seconds = SecondsSince(start);
    machine_->AttachFaults(nullptr);
    result.sim_bytes_sent = CounterValue("sim.machine.bytes_sent") - bytes;
    result.sim_rotation_steps = CounterValue("sim.machine.rotation_steps") - rotations;
    result.sim_scratchpad_peak = GaugeValue("sim.machine.scratchpad_peak_bytes");

    if (!output.ok()) {
      result.ok = false;
      report_.Fail("item " + std::to_string(index) + ": " + output.status().ToString());
    } else if (!SameBytes(output->data, triple.expected)) {
      result.ok = false;
      report_.Fail("item " + std::to_string(index) +
                   ": output differs from the fault-free executor output");
    }
    return result;
  }

  const PlanCase& CaseOf(std::int64_t index) const {
    const Triple& triple = triples_[order_[static_cast<std::size_t>(index) % order_.size()]];
    return cases_[static_cast<std::size_t>(triple.plan_case)];
  }

  // Writes the operator graph's on-disk plan cache with one cold compile.
  void PrepareWarmCompiles() {
    fs::create_directories(CacheDir());
    t10::Compiler compiler(chip_, CacheOptions());
    cold_fingerprint_ = compiler.Compile(*graph_).Fingerprint();
  }

  // One warm recompile of the operator graph from that cache, in seconds.
  double WarmCompileSeconds() {
    const Clock::time_point start = Clock::now();
    t10::CompiledModel warm;
    {
      t10::Compiler compiler(chip_, CacheOptions());
      warm = compiler.Compile(*graph_);
    }
    const double seconds = SecondsSince(start);
    if (warm.Fingerprint() != cold_fingerprint_) {
      report_.Fail("exec-ops: warm recompile differs from the cold compile");
    }
    return seconds;
  }

  void DropWarmCompiles() { fs::remove_all(CacheDir()); }

  // Benchmark-timed LowerPlan: mean seconds per call over every plan case.
  double LowerSeconds() {
    const Clock::time_point start = Clock::now();
    std::int64_t calls = 0;
    for (int r = 0; r < kLowerRepeats; ++r) {
      for (const PlanCase& plan_case : cases_) {
        const t10::DeviceProgram program = t10::LowerPlan(*plan_case.plan);
        calls += program.steps.empty() ? 0 : 1;
      }
    }
    return SecondsSince(start) / static_cast<double>(std::max<std::int64_t>(1, calls));
  }

 private:
  static t10::CompileOptions CompileOptions() {
    t10::CompileOptions options;
    options.jobs = 1;
    return options;
  }

  fs::path CacheDir() const { return fs::path(args_.workdir) / "exec-ops-cache"; }

  t10::CompileOptions CacheOptions() const {
    t10::CompileOptions options = CompileOptions();
    options.plan_cache_dir = CacheDir().string();
    return options;
  }

  bool ParseGraph() {
    t10::StatusOr<t10::Graph> parsed = t10::TryParseModelText(OpsModelText(args_.seed));
    if (!parsed.ok()) {
      report_.Fail("exec-ops model: " + parsed.status().ToString());
      return false;
    }
    graph_ = std::make_unique<t10::Graph>(*std::move(parsed));
    return true;
  }

  void AddTriple(int plan_case, const t10::Operator& op, t10::Machine& pristine,
                 std::uint64_t seed) {
    Triple triple;
    triple.plan_case = plan_case;
    for (std::size_t i = 0; i < op.inputs().size(); ++i) {
      triple.inputs.push_back(
          t10::RandomHostTensor(t10::TensorShape(op.axes(), op.inputs()[i]), seed + i));
    }
    t10::StatusOr<HostTensor> clean =
        t10::ProgramExecutor(pristine, *cases_[static_cast<std::size_t>(plan_case)].plan)
            .Run(triple.inputs);
    if (!clean.ok()) {
      report_.Fail(op.name() + ": fault-free run: " + clean.status().ToString());
      return;
    }
    const HostTensor want = t10::ReferenceExecute(op, triple.inputs);
    if (want.shape != clean->shape) {
      report_.Fail(op.name() + ": output shape differs from ReferenceExecute");
      return;
    }
    for (std::size_t i = 0; i < want.data.size(); ++i) {
      if (std::abs(static_cast<double>(want.data[i]) - clean->data[i]) > kReferenceTolerance) {
        report_.Fail(op.name() + ": element " + std::to_string(i) +
                     " differs from ReferenceExecute");
        return;
      }
    }
    triple.expected = std::move(clean->data);
    triples_.push_back(std::move(triple));
  }

  const Args& args_;
  Report& report_;
  const t10::ChipSpec chip_ = t10::ChipSpec::ScaledIpu(kCores);
  std::unique_ptr<t10::Machine> machine_;
  std::unique_ptr<t10::Graph> graph_;
  std::unique_ptr<t10::Compiler> compiler_;
  t10::CompiledModel model_;
  std::vector<std::unique_ptr<t10::IntraOpResult>> searches_;
  std::vector<PlanCase> cases_;
  std::vector<Triple> triples_;
  std::vector<std::size_t> order_;
  std::string cold_fingerprint_;
};

// Exact values of one execution of the census, the first cycle of items.
struct Census {
  // Integer picoseconds: a run's fault penalty is the difference of two
  // machine-lifetime totals, exact only to rounding.
  std::int64_t device_picoseconds = 0;
  std::int64_t peak_core_bytes = 0;
  std::int64_t steps = 0, shift_rounds = 0, retries = 0, rollbacks = 0, checkpoints = 0;
  std::int64_t sim_bytes_sent = 0, sim_rotation_steps = 0;
  double sim_scratchpad_peak = 0.0;

  void Add(const PlanCase& plan_case, const ItemResult& item) {
    const ProgramRunStats& s = item.stats;
    device_picoseconds += std::llround((plan_case.device_seconds + s.fault_penalty_seconds) * 1e12);
    peak_core_bytes = std::max(peak_core_bytes, s.peak_core_bytes);
    steps += s.steps;
    shift_rounds += s.shift_rounds;
    retries += s.retries;
    rollbacks += s.rollbacks;
    checkpoints += s.checkpoints;
    sim_bytes_sent += item.sim_bytes_sent;
    sim_rotation_steps += item.sim_rotation_steps;
    sim_scratchpad_peak = std::max(sim_scratchpad_peak, item.sim_scratchpad_peak);
  }

  void Observe(ExactValues& exact) const {
    exact.Observe("device_picoseconds", static_cast<double>(device_picoseconds));
    exact.Observe("peak_core_bytes", static_cast<double>(peak_core_bytes));
    exact.Observe("steps", static_cast<double>(steps));
    exact.Observe("shift_rounds", static_cast<double>(shift_rounds));
    exact.Observe("retries", static_cast<double>(retries));
    exact.Observe("rollbacks", static_cast<double>(rollbacks));
    exact.Observe("checkpoints", static_cast<double>(checkpoints));
    exact.Observe("sim.bytes_sent", static_cast<double>(sim_bytes_sent));
    exact.Observe("sim.rotation_steps", static_cast<double>(sim_rotation_steps));
    exact.Observe("sim.scratchpad_peak_bytes", sim_scratchpad_peak);
  }
};

}  // namespace

Report RunExecOps(const Args& args) {
  Report report;
  WorkSummary work;
  work.setup_seconds = NominalSetupSeconds([&] {
    ExecOps throwaway(args, report);
    return TimeSeconds([&] { throwaway.Setup(); });
  });
  ExecOps ops(args, report);
  ops.Setup();
  if (!report.correct) {
    return report;
  }
  const auto cycle = static_cast<std::int64_t>(ops.cycle_length());
  ExactValues exact;

  // Warm-up: one cycle, not counted.
  for (std::int64_t i = 0; i < cycle; ++i) {
    ops.RunItem(i, nullptr);
  }
  HostProbe probe;
  ops.PrepareWarmCompiles();
  std::vector<double> warm_compiles;

  t10::obs::Tracer tracer;
  Census timed_census;
  std::vector<ItemResult> timed;
  const Clock::time_point phase_start = Clock::now();
  for (std::int64_t i = 0; i < cycle || !PhaseDone(args, probe, phase_start, i); ++i) {
    if (probe.Due()) {
      for (int r = 0; r < kWarmCompilesPerProbe; ++r) {
        warm_compiles.push_back(ops.WarmCompileSeconds());
      }
      probe.Sample();
    }
    timed.push_back(ops.RunItem(i, args.trace ? &tracer : nullptr));
    ++report.attempted;
    report.failed += timed.back().ok ? 0 : 1;
    if (i < cycle) {
      timed_census.Add(ops.CaseOf(i), timed.back());
    }
  }
  work.rss_peak_mib = PeakRssMiB();
  timed_census.Observe(exact);

  ops.DropWarmCompiles();

  // Tracing calibration: the first kCalibrationCycles cycles again, chunk by
  // chunk untraced and traced, alternating which side goes first; both
  // sides' first cycles repeat the census. tracing_overhead is the median
  // over chunks of traced over untraced time.
  std::vector<double> ratios;
  Census calibration_census[2];
  t10::obs::Tracer calibration_tracer;
  for (std::int64_t first = 0, round = 0; first < kCalibrationCycles * cycle;
       first += kCalibrationChunk, ++round) {
    double side_seconds[2] = {0.0, 0.0};
    for (int side : {static_cast<int>(round % 2), static_cast<int>(1 - round % 2)}) {
      for (std::int64_t i = first; i < first + kCalibrationChunk; ++i) {
        const ItemResult item = ops.RunItem(i, side == 1 ? &calibration_tracer : nullptr);
        side_seconds[side] += item.seconds;
        if (i < cycle) {
          calibration_census[side].Add(ops.CaseOf(i), item);
        }
      }
    }
    ratios.push_back(side_seconds[1] / side_seconds[0]);
    probe.MaybeSample();
  }
  calibration_census[0].Observe(exact);
  calibration_census[1].Observe(exact);

  if (args.trace) {
    double spatial_points = 0.0, spatial_seconds = 0.0;
    double rotating_seconds = 0.0, rotating_bytes = 0.0;
    std::int64_t rotating_items = 0;
    for (std::size_t i = 0; i < timed.size(); ++i) {
      const PlanCase& plan_case = ops.CaseOf(static_cast<std::int64_t>(i));
      if (plan_case.rotating) {
        rotating_seconds += timed[i].seconds;
        rotating_bytes += static_cast<double>(timed[i].stats.bytes_sent_total);
        ++rotating_items;
      } else {
        spatial_points += plan_case.points;
        spatial_seconds += timed[i].seconds;
      }
    }
    report.Set("core.lower.ms", ops.LowerSeconds() * 1e3, "ms");
    report.Set("exec.spatial.macs_per_s", spatial_points / spatial_seconds, "1/s");
    report.Set("exec.rotating.ms", rotating_seconds / static_cast<double>(rotating_items) * 1e3,
               "ms");
    report.Set("exec.shift_bytes_per_s", rotating_bytes / rotating_seconds, "B/s");
    exact.Publish(report, "steps", "exec.steps", 1.0, "count");
    exact.Publish(report, "shift_rounds", "exec.shift_rounds", 1.0, "count");
    exact.Publish(report, "retries", "fault.retries", 1.0, "count");
    exact.Publish(report, "rollbacks", "fault.rollbacks", 1.0, "count");
    exact.Publish(report, "checkpoints", "fault.checkpoints", 1.0, "count");
    if (exact.Deterministic("shift_rounds")) {
      exact.Publish(report, "retries", "fault.retry_ratio", 1.0 / exact.Value("shift_rounds"),
                    "ratio");
    }
    exact.Publish(report, "sim.bytes_sent", "sim.bytes_sent", 1.0, "B");
    exact.Publish(report, "sim.rotation_steps", "sim.rotation_steps", 1.0, "count");
    exact.Publish(report, "sim.scratchpad_peak_bytes", "sim.scratchpad_peak_kib", 1.0 / 1024.0,
                  "KiB");
    return report;
  }

  for (const ItemResult& item : timed) {
    work.item_seconds.push_back(item.seconds);
    work.busy_seconds += item.seconds;
  }
  work.tail_seconds = work.item_seconds;
  work.tracing_overhead = Median(ratios);
  work.warm_compile_seconds = Median(warm_compiles);
  work.host_factor = probe.factor();
  PublishWork(report, work);
  exact.Publish(report, "device_picoseconds", "device_us", 1e-6 / static_cast<double>(cycle),
                "us");
  exact.Publish(report, "peak_core_bytes", "mem_peak_kib", 1.0 / 1024.0, "KiB");
  return report;
}

}  // namespace perfbench
