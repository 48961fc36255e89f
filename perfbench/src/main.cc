// The perfbench binary. run.py is its only intended caller:
//
//   perfbench info
//   perfbench selftest --dir D
//   perfbench setup <workload> --seed N --dir D [--repeats K]
//   perfbench run   <workload> --seed N --dir D --seconds T --trace 0|1
//
// `setup` and `run` print one JSON report as their last stdout line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/workloads.h"

namespace {

constexpr char kBuildType[] = PERFBENCH_BUILD_TYPE;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench info | selftest --dir D | "
               "setup <workload> --seed N --dir D [--repeats K] | "
               "run <workload> --seed N --dir D --seconds T --trace 0|1\n");
  return 1;
}

bool ReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(kBuildType, "Release") == 0;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "info") {
    JsonObject info;
    info.Add("build_type", kBuildType)
        .Add("release", ReleaseBuild())
        .Add("compiler", std::string("gcc-compatible ") + __VERSION__)
        .Add("hardware_threads",
             static_cast<uint64_t>(std::thread::hardware_concurrency()));
    std::printf("%s\n", info.str().c_str());
    return 0;
  }
  if (!ReleaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 kBuildType);
    return 3;
  }
  if (command == "selftest") {
    if (argc != 4 || std::string(argv[2]) != "--dir") return Usage();
    const int misjudged = SelfTest(argv[3]);
    std::printf("selftest: %s\n", misjudged == 0 ? "ok" : "FAILED");
    return misjudged == 0 ? 0 : 1;
  }
  if ((command != "setup" && command != "run") || argc < 3) return Usage();

  Args args;
  args.workload = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--repeats") {
      args.repeats = std::atoi(value);
    } else {
      return Usage();
    }
  }
  if (args.dir.empty() || args.repeats < 1 || !(args.seconds > 0.0)) {
    return Usage();
  }

  Report report;
  const bool setup = command == "setup";
  if (args.workload == "summarize") {
    setup ? SetupSummarize(args, &report) : RunSummarize(args, &report);
  } else if (args.workload == "serve-personalized") {
    setup ? SetupPersonalized(args, &report) : RunPersonalized(args, &report);
  } else if (args.workload == "serve-sharded") {
    setup ? SetupSharded(args, &report) : RunSharded(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
