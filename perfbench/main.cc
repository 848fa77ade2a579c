// perfbench: one process, one workload per run.
//
//   perfbench --workload <compile-zoo|exec-ops|serve-replicated|serve-pipeline>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (README.md). The last stdout line is the JSON result; progress and
// failures go to stderr. Exit 0 on a completed run (the JSON says whether
// it was correct), 2 on a bad command line.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/perfbench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <compile-zoo|exec-ops|"
               "serve-replicated|serve-pipeline> --seed N --seconds S --trace 0|1 "
               "[--workdir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) {
    return Usage("--seconds must be positive");
  }

  perfbench::Report report;
  if (args.workload == "compile-zoo") {
    report = perfbench::RunCompileZoo(args);
  } else if (args.workload == "exec-ops") {
    report = perfbench::RunExecOps(args);
  } else if (args.workload == "serve-replicated") {
    report = perfbench::RunServe(args, /*pipeline=*/false);
  } else if (args.workload == "serve-pipeline") {
    report = perfbench::RunServe(args, /*pipeline=*/true);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.trace) {
    perfbench::FillMissingPerLayer(report);
  }
  perfbench::PrintReport(report);
  return 0;
}
