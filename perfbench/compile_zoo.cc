// compile-zoo: the compiler end to end over the paper's evaluation models.
//
// One item is one pass over EvaluationModels() (BERT-Large, ViT-Base,
// ResNet-18, NeRF): every model is compiled cold on a fresh Compiler that
// writes a fresh on-disk plan cache, then the whole zoo is recompiled warm
// kWarmRounds times, each compile on another fresh Compiler reading that
// cache. The cold compile is dominated by the intra-op search; the warm one
// skips it, so reconcile, memory plan and finalize dominate it. Compiles
// use jobs=1.

#include <filesystem>
#include <map>

#include "perfbench/perfbench.h"
#include "src/core/compiler.h"
#include "src/core/memory_planner.h"
#include "src/core/pass/pass.h"
#include "src/models/zoo.h"
#include "src/util/rng.h"
#include "src/verify/verifier.h"

namespace perfbench {
namespace {

using t10::CompiledModel;
namespace fs = std::filesystem;

// Warm zoo rounds per pass: a pass takes about 3 s, and eight passes yield
// the 100 warm-round samples the p90 needs (RunPass drops the first round
// and about one in seven of the others).
constexpr int kWarmRounds = 16;
// Warm rounds of the untraced/traced calibration.
constexpr int kCalibrationWarmRounds = 12;
constexpr int kMemoryPlanRepeats = 5;

struct ZooModel {
  std::string name;
  t10::Graph graph;
};

// One compile and what the benchmark reads around it.
struct CompileRun {
  CompiledModel model;
  double seconds = 0.0;
  std::map<std::string, SpanTotals> spans;  // Traced compiles only.
  std::int64_t evaluations = 0, pareto_plans = 0, reconcile_steps = 0;
  std::int64_t cache_hits = 0, cache_misses = 0;
};

// Exact values of one cold round or one warm round.
struct RoundValues {
  double device_seconds = 0.0;
  std::int64_t memory_peak = 0;
  std::int64_t evaluations = 0, pareto_plans = 0, reconcile_steps = 0;
  std::int64_t cache_hits = 0, cache_misses = 0;

  void Add(const CompileRun& run) {
    device_seconds += run.model.TotalSeconds();
    memory_peak = std::max(memory_peak, run.model.memory_peak_bytes);
    evaluations += run.evaluations;
    pareto_plans += run.pareto_plans;
    reconcile_steps += run.reconcile_steps;
    cache_hits += run.cache_hits;
    cache_misses += run.cache_misses;
  }
  void ObserveCold(ExactValues& exact) const {
    exact.Observe("device_seconds", device_seconds);
    exact.Observe("memory_peak_bytes", static_cast<double>(memory_peak));
    exact.Observe("search.evaluations", static_cast<double>(evaluations));
    exact.Observe("search.pareto_plans", static_cast<double>(pareto_plans));
    exact.Observe("reconcile.steps", static_cast<double>(reconcile_steps));
  }
  void ObserveWarm(ExactValues& exact) const {
    exact.Observe("cache.hits", static_cast<double>(cache_hits));
    exact.Observe("cache.misses", static_cast<double>(cache_misses));
  }
};

struct PassResult {
  bool complete = false;
  double seconds = 0.0;  // Sum of compile times: the item latency.
  std::vector<double> warm_round_seconds;
  std::int64_t compiles = 0;
  std::int64_t failed = 0;
};

// Traced-layer samples of one model, seconds or counts per compile.
struct LayerSamples {
  std::vector<double> search, evaluations;          // Cold compiles.
  std::vector<double> cache_load, reconcile, finalize;  // Warm compiles.
};

class CompileZoo {
 public:
  CompileZoo(const Args& args, Report& report) : args_(args), report_(report) {}

  // Builds the graphs and fits a cost model, as every fresh Compiler does
  // before its first search.
  void Setup() {
    models_.clear();
    t10::Rng rng(args_.seed);
    for (const t10::ModelInfo& info : t10::EvaluationModels()) {
      // Only NeRF's cold compile costs the same at both of its first two
      // batch sizes; BERT, ViT and ResNet take 2.5-2.8x longer at batch 2,
      // which would make the pass length depend on the seed (README.md).
      std::int64_t batch = info.batch_sizes[0];
      if (info.name == "NeRF") {
        batch = info.batch_sizes[rng.Index(2)];
      }
      models_.push_back({info.name, info.build(batch)});
    }
    t10::CompileOptions options;
    options.jobs = 1;
    const t10::Compiler compiler(chip_, options);
    compiler.cost_model();
  }

  // Warm-up and tracing calibration: the zoo compiled cold, then recompiled
  // warm from its caches model by model, untraced and traced, alternating
  // which goes first. Returns the median over rounds of traced over
  // untraced time of the round's warm compiles, whose pairs sit close
  // enough in time to cancel the host's drift. The cold compiles are the
  // fingerprint reference and the verifier's input. The host probe samples
  // between warm rounds.
  double Calibrate(HostProbe& probe) {
    RoundValues cold;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      const fs::path dir = Dir("calibration", m);
      fs::create_directories(dir);
      CompileRun run = Compile(m, dir, /*traced=*/false);
      cold.Add(run);
      CheckCold(m, run.model);
      reference_models_.push_back(std::move(run.model));
    }
    cold.ObserveCold(exact_);
    std::vector<double> ratios;
    for (int round = 0; round < kCalibrationWarmRounds; ++round) {
      RoundValues warm[2];
      double seconds[2] = {0.0, 0.0};
      for (std::size_t m = 0; m < models_.size(); ++m) {
        const int lead = static_cast<int>((round + m) % 2);
        for (int side : {lead, 1 - lead}) {
          const CompileRun run = Compile(m, Dir("calibration", m), side == 1);
          seconds[side] += run.seconds;
          warm[side].Add(run);
          CheckWarm(m, run.model);
        }
      }
      warm[0].ObserveWarm(exact_);
      warm[1].ObserveWarm(exact_);
      ratios.push_back(seconds[1] / seconds[0]);
      probe.MaybeSample();
    }
    fs::remove_all(args_.workdir);
    Verify();
    return Median(ratios);
  }

  // One timed pass. `stop` is polled after every compile; a pass it cuts
  // short is not an item, but its compiles count as attempts and its
  // finished warm rounds as samples. The host probe samples between warm
  // rounds. The first warm round, which follows the cold compiles, and a
  // round after a probe sample, which follows the probe's sweep, find the
  // caches holding other data, so neither is a sample.
  template <class Stop>
  PassResult RunPass(int pass, bool traced, HostProbe& probe, Stop&& stop) {
    PassResult result;
    const std::string name = "pass" + std::to_string(pass);
    RoundValues cold;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      const fs::path dir = Dir(name, m);
      fs::create_directories(dir);
      const CompileRun run = Compile(m, dir, traced);
      result.seconds += run.seconds;
      ++result.compiles;
      result.failed += CheckCold(m, run.model) ? 0 : 1;
      cold.Add(run);
      if (traced) {
        LayerSamples& s = layers_[m];
        s.search.push_back(run.spans.count(t10::pass_names::kIntraOpSearch) != 0
                               ? run.spans.at(t10::pass_names::kIntraOpSearch).total_seconds
                               : 0.0);
        s.evaluations.push_back(static_cast<double>(run.evaluations));
      }
      if (stop()) {
        fs::remove_all(args_.workdir);
        return result;
      }
    }
    cold.ObserveCold(exact_);
    bool settled = false;
    for (int round = 0; round < kWarmRounds; ++round) {
      double round_seconds = 0.0;
      RoundValues warm;
      for (std::size_t m = 0; m < models_.size(); ++m) {
        const CompileRun run = Compile(m, Dir(name, m), traced);
        round_seconds += run.seconds;
        ++result.compiles;
        result.failed += CheckWarm(m, run.model) ? 0 : 1;
        warm.Add(run);
        if (traced) {
          LayerSamples& s = layers_[m];
          s.cache_load.push_back(SpanSeconds(run, t10::pass_names::kFitCostModel) +
                                 SpanSeconds(run, t10::pass_names::kIntraOpSearch));
          s.reconcile.push_back(SpanSeconds(run, t10::pass_names::kInterOpReconcile));
          s.finalize.push_back(SpanSeconds(run, t10::pass_names::kFinalize));
          hits_ += run.cache_hits;
          misses_ += run.cache_misses;
        }
        if (stop()) {
          fs::remove_all(args_.workdir);
          return result;
        }
      }
      warm.ObserveWarm(exact_);
      if (settled) {
        result.warm_round_seconds.push_back(round_seconds);
      }
      result.seconds += round_seconds;
      settled = !probe.MaybeSample();
    }
    fs::remove_all(args_.workdir);
    result.complete = true;
    return result;
  }

  void PublishLayers() {
    double search = 0.0, evaluations = 0.0, load = 0.0, reconcile = 0.0, finalize = 0.0;
    for (const auto& [m, s] : layers_) {
      search += Mean(s.search);
      evaluations += Mean(s.evaluations);
      load += Mean(s.cache_load);
      reconcile += Mean(s.reconcile);
      finalize += Mean(s.finalize);
    }
    report_.Set("core.search.ms", search * 1e3, "ms");
    report_.Set("core.search.evals_per_s", evaluations / search, "1/s");
    if (exact_.Deterministic("search.evaluations")) {
      exact_.Publish(report_, "search.pareto_plans", "core.search.useful_ratio",
                     1.0 / exact_.Value("search.evaluations"), "ratio");
    }
    report_.Set("core.plan_cache.hit_ratio",
                static_cast<double>(hits_) / static_cast<double>(hits_ + misses_), "ratio");
    report_.Set("core.plan_cache.load_ms", load * 1e3, "ms");
    report_.Set("core.reconcile.ms", reconcile * 1e3, "ms");
    exact_.Publish(report_, "reconcile.steps", "core.reconcile.steps", 1.0, "count");
    report_.Set("core.memory_plan.ms", MemoryPlanSeconds() * 1e3, "ms");
    report_.Set("core.finalize.ms", finalize * 1e3, "ms");
    report_.Set("verify.ms", verify_seconds_ * 1e3, "ms");
  }

  const ExactValues& exact() const { return exact_; }

 private:
  fs::path Dir(const std::string& name, std::size_t m) const {
    return fs::path(args_.workdir) / name / models_[m].name;
  }

  static double SpanSeconds(const CompileRun& run, const char* name) {
    auto it = run.spans.find(name);
    return it == run.spans.end() ? 0.0 : it->second.total_seconds;
  }

  // Compiles model m on a fresh Compiler attached to `cache_dir`; the clock
  // runs from its construction to its destruction, which flushes the plan
  // cache to disk.
  CompileRun Compile(std::size_t m, const fs::path& cache_dir, bool traced) {
    t10::obs::Tracer tracer;
    t10::CompileOptions options;
    options.jobs = 1;
    options.plan_cache_dir = cache_dir.string();
    options.tracer = traced ? &tracer : nullptr;
    CompileRun run;
    const std::int64_t evaluations = CounterValue("compiler.search.evaluations");
    const std::int64_t pareto = CounterValue("compiler.search.pareto_plans");
    const std::int64_t steps = CounterValue("compiler.reconcile.steps");
    const std::int64_t hits = CounterValue("compiler.cache.hits");
    const std::int64_t misses = CounterValue("compiler.cache.misses");
    const Clock::time_point start = Clock::now();
    {
      t10::Compiler compiler(chip_, options);
      run.model = compiler.Compile(models_[m].graph);
    }
    run.seconds = SecondsSince(start);
    run.evaluations = CounterValue("compiler.search.evaluations") - evaluations;
    run.pareto_plans = CounterValue("compiler.search.pareto_plans") - pareto;
    run.reconcile_steps = CounterValue("compiler.reconcile.steps") - steps;
    run.cache_hits = CounterValue("compiler.cache.hits") - hits;
    run.cache_misses = CounterValue("compiler.cache.misses") - misses;
    if (traced) {
      run.spans = SummarizeSpans(tracer.FinishedSpans());
    }
    return run;
  }

  // Oracle: the model fits and every cold compile reproduces the first
  // one's fingerprint.
  bool CheckCold(std::size_t m, const CompiledModel& model) {
    if (!model.fits) {
      report_.Fail(models_[m].name + " does not fit the chip");
      return false;
    }
    std::string fingerprint = model.Fingerprint();
    if (fingerprints_.size() <= m) {
      fingerprints_.push_back(std::move(fingerprint));
    } else if (fingerprint != fingerprints_[m]) {
      report_.Fail(models_[m].name + ": cold compile differs from the first one");
      return false;
    }
    return true;
  }

  // Oracle: a warm recompile is byte-identical to the cold compile.
  bool CheckWarm(std::size_t m, const CompiledModel& model) {
    if (model.Fingerprint() != fingerprints_[m]) {
      report_.Fail(models_[m].name + ": warm recompile differs from the cold compile");
      return false;
    }
    return true;
  }

  void Verify() {
    const t10::verify::Verifier verifier(chip_);
    const Clock::time_point start = Clock::now();
    for (std::size_t m = 0; m < models_.size(); ++m) {
      const t10::verify::VerifyResult result =
          verifier.VerifyAll(reference_models_[m], models_[m].graph);
      if (!result.ok()) {
        report_.Fail(models_[m].name + ": verifier: " + result.Listing());
      }
    }
    verify_seconds_ = SecondsSince(start);
  }

  // Benchmark-timed PlanMemory over the zoo, median of repeats.
  double MemoryPlanSeconds() {
    std::vector<double> samples;
    for (int r = 0; r < kMemoryPlanRepeats; ++r) {
      const Clock::time_point start = Clock::now();
      for (std::size_t m = 0; m < models_.size(); ++m) {
        if (!t10::PlanMemory(reference_models_[m], models_[m].graph, chip_).fits) {
          report_.Fail(models_[m].name + ": PlanMemory does not fit");
        }
      }
      samples.push_back(SecondsSince(start));
    }
    return Median(samples);
  }

  const Args& args_;
  Report& report_;
  const t10::ChipSpec chip_ = t10::ChipSpec::IpuMk2();
  std::vector<ZooModel> models_;
  std::vector<std::string> fingerprints_;
  // Calibration's untraced cold compiles: verifier and PlanMemory inputs.
  std::vector<CompiledModel> reference_models_;
  std::map<std::size_t, LayerSamples> layers_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  double verify_seconds_ = 0.0;
  ExactValues exact_;
};

}  // namespace

Report RunCompileZoo(const Args& args) {
  Report report;
  WorkSummary work;
  work.setup_seconds = NominalSetupSeconds([&] {
    CompileZoo throwaway(args, report);
    return TimeSeconds([&] { throwaway.Setup(); });
  });
  CompileZoo zoo(args, report);
  zoo.Setup();
  HostProbe probe;
  work.tracing_overhead = zoo.Calibrate(probe);

  // Timed phase: passes until PhaseDone, which counts the warm rounds as
  // the p90's samples. `stop` runs after every compile.
  const Clock::time_point phase_start = Clock::now();
  auto stop = [&] {
    return PhaseDone(args, probe, phase_start,
                     static_cast<std::int64_t>(work.tail_seconds.size()));
  };
  for (int pass = 0; !stop(); ++pass) {
    const PassResult result = zoo.RunPass(pass, args.trace, probe, stop);
    report.attempted += result.compiles;
    report.failed += result.failed;
    work.tail_seconds.insert(work.tail_seconds.end(), result.warm_round_seconds.begin(),
                             result.warm_round_seconds.end());
    if (result.complete) {
      work.item_seconds.push_back(result.seconds);
      work.busy_seconds += result.seconds;
    }
    probe.MaybeSample();
  }
  work.rss_peak_mib = PeakRssMiB();
  if (work.item_seconds.empty()) {
    report.Fail("no complete pass in the timed phase");
    return report;
  }

  if (args.trace) {
    zoo.PublishLayers();
    return report;
  }
  work.warm_compile_seconds = Median(work.tail_seconds);
  work.host_factor = probe.factor();
  PublishWork(report, work);
  zoo.exact().Publish(report, "device_seconds", "device_us", 1e6, "us");
  zoo.exact().Publish(report, "memory_peak_bytes", "mem_peak_kib", 1.0 / 1024.0, "KiB");
  return report;
}

}  // namespace perfbench
