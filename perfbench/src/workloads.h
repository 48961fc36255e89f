// The three workloads. Each has a set-up step (run in its own process,
// repeated so its time is a median) and a measured run (another process,
// so peak RSS leaves out the set-up). Both write into `dir`. Between them
// they report every end-to-end metric: set-up reports what its build
// measures (build_s and personalized_error where set-up builds the served
// files), the run the rest.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/bench_util.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  std::string dir;
  double seconds = 10.0;
  bool trace = false;
  int repeats = 3;  // set-up repetitions
};

// Set-up: fills report->info["setup_s"] with one time per repetition and,
// where set-up builds the served files, report->metrics and
// report->layers.
void SetupSummarize(const Args& args, Report* report);
void SetupPersonalized(const Args& args, Report* report);
void SetupSharded(const Args& args, Report* report);

// Measured run: end-to-end metrics, or per-layer metrics when traced.
void RunSummarize(const Args& args, Report* report);
void RunPersonalized(const Args& args, Report* report);
void RunSharded(const Args& args, Report* report);

// Runs every output check on a correct and on a deliberately wrong tiny
// input (files go to `dir`); returns the number of checks that misjudged
// one of them.
int SelfTest(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
