// Workload `serve-personalized`: the paper's use. Set-up summarizes the
// DBLP analog personalized to 100 targets and writes PSB1; the run maps
// the file into a one-worker QueryService and replays a closed loop of
// text batches of RWR/PHP queries about the targets (Zipf popularity, so
// repeats exist): ParseBatchText → QueryService::Answer →
// FormatBatchResponse, as `pegasus query --queries` does. The iterative
// kernels do nearly all of the work.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/checks.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/serving.h"
#include "perfbench/src/workloads.h"
#include "src/core/binary_summary_io.h"
#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/eval/error_eval.h"
#include "src/graph/io.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"
#include "src/serve/query_service.h"
#include "src/serve/text_serving.h"

namespace perfbench {

using pegasus::Graph;
using pegasus::NodeId;
using pegasus::QueryKind;
using pegasus::QueryRequest;

namespace {

constexpr size_t kBatchesPerRound = 24;
constexpr size_t kPrecisionNodes = 64;
// Every kRebuildEvery-th round starts with a rebuild of the served file.
constexpr uint64_t kRebuildEvery = 3;

std::string EdgePath(const Args& a) { return a.dir + "/dblp.edges"; }
std::string TargetPath(const Args& a) { return a.dir + "/dblp.targets"; }
std::string PsbPath(const Args& a) { return a.dir + "/dblp.psb"; }
std::string ExactPath(const Args& a) { return a.dir + "/exact_top10.txt"; }
std::string RebuildPath(const Args& a) { return a.dir + "/dblp.rebuild.psb"; }

pegasus::PegasusConfig Config(uint64_t seed) {
  pegasus::PegasusConfig config;
  config.seed = seed;
  config.num_threads = 1;  // the serial engine, the CLI default
  return config;
}

// Builds the served file again in a forked child: edge file →
// LoadEdgeList → SummarizeGraphToRatio → SummaryView → PSB1 at `path`.
// Returns the child's CPU time in seconds, or -1 when the build failed.
// The child keeps the summarizer's memory out of the serving process's
// peak RSS; the serving process has no threads, so it forks safely.
double RebuildInChild(const Args& args, const std::vector<NodeId>& targets,
                      const std::string& path) {
  const pid_t pid = fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    bool ok = false;
    auto graph = pegasus::LoadEdgeList(EdgePath(args));
    if (graph) {
      auto result = pegasus::SummarizeGraphToRatio(*graph, targets, kRatio,
                                                   Config(args.seed));
      if (result) {
        const pegasus::SummaryView view(result->summary);
        ok = pegasus::SaveSummaryBinary(view.layout(), path).ok();
      }
    }
    std::_Exit(ok ? 0 : 1);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Summary RWR/PHP on the identity (lossless) summary of a small graph must
// match the exact power iteration on the graph itself.
void CheckIdentityAnchor(const Args& args, Report* report) {
  const Graph graph =
      pegasus::MakeDataset(pegasus::DatasetId::kDblp,
                           pegasus::DatasetScale::kTiny, args.seed)
          .graph;
  const pegasus::SummaryView view(pegasus::SummaryGraph::Identity(graph));
  pegasus::IterativeQueryOptions opts;
  opts.max_iterations = 2000;
  for (NodeId q : {NodeId{0}, graph.num_nodes() / 2, graph.num_nodes() - 1}) {
    const double rwr = L1Distance(
        pegasus::SummaryRwrScores(view, q, 0.05, /*weighted=*/true, opts),
        pegasus::ExactRwrScores(graph, q, 0.05, opts));
    const double php = L1Distance(
        pegasus::SummaryPhpScores(view, q, 0.95, /*weighted=*/true, opts),
        pegasus::ExactPhpScores(graph, q, 0.95, opts));
    if (!(rwr <= 1e-9) || !(php <= 1e-9)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "identity summary vs exact at node %u: rwr L1 %.3g, "
                    "php L1 %.3g",
                    q, rwr, php);
      report->FailCheck(buf);
    }
  }
}

}  // namespace

void SetupPersonalized(const Args& args, Report* report) {
  // Input generation is the benchmark's own work and stays untimed;
  // writing the edge file is set-up, and everything after it is the build.
  const Graph generated = PersonalizedGraph(args.seed);
  std::vector<NodeId> targets;
  {
    if (!pegasus::SaveEdgeList(generated, EdgePath(args))) {
      report->FailCheck("cannot write " + EdgePath(args));
      return;
    }
    auto graph = pegasus::LoadEdgeList(EdgePath(args));
    if (!graph) {
      report->FailCheck(graph.status().ToString());
      return;
    }
    targets = PersonalizedTargets(*graph, args.seed);
    WriteNodeList(TargetPath(args), targets);
  }

  const pegasus::PegasusConfig config = Config(args.seed);
  std::vector<double> times, load_ms, summarize_ms, view_ms, encode_ms;
  std::string first_psb;
  Graph graph;
  pegasus::SummarizationResult first;
  for (int rep = 0; rep < args.repeats; ++rep) {
    RotateCpu(static_cast<uint64_t>(rep));
    const double c0 = ProcessCpuSeconds();
    if (!pegasus::SaveEdgeList(generated, EdgePath(args))) {
      report->FailCheck("cannot write " + EdgePath(args));
      return;
    }
    const double t0 = WallSeconds();
    auto loaded = pegasus::LoadEdgeList(EdgePath(args));
    const double t1 = WallSeconds();
    if (!loaded) {
      report->FailCheck(loaded.status().ToString());
      return;
    }
    auto result =
        pegasus::SummarizeGraphToRatio(*loaded, targets, kRatio, config);
    const double t2 = WallSeconds();
    if (!result) {
      report->FailCheck(result.status().ToString());
      return;
    }
    auto view = std::make_unique<pegasus::SummaryView>(result->summary);
    const double t3 = WallSeconds();
    const pegasus::Status saved =
        pegasus::SaveSummaryBinary(view->layout(), PsbPath(args));
    const double t4 = WallSeconds();
    if (!saved) {
      report->FailCheck(saved.ToString());
      return;
    }
    times.push_back(ProcessCpuSeconds() - c0);
    load_ms.push_back((t1 - t0) * 1e3);
    summarize_ms.push_back((t2 - t1) * 1e3);
    view_ms.push_back((t3 - t2) * 1e3);
    encode_ms.push_back((t4 - t3) * 1e3);
    std::string bytes;
    ReadFile(PsbPath(args), &bytes);
    if (rep == 0) {
      first_psb = bytes;
      first = *std::move(result);
      graph = *std::move(loaded);
      const std::string problem = CheckSummaryFile(bytes, graph, kRatio);
      if (!problem.empty()) report->FailCheck(problem);
    } else if (bytes != first_psb ||
               result->merge_stats.merges != first.merge_stats.merges) {
      report->FailCheck("set-up repetitions of one seed differ");
    }
  }

  // Exact reference answers for the precision sample (untimed).
  const std::vector<NodeId> sample =
      PrecisionSample(targets, args.seed, kPrecisionNodes);
  if (!WriteExactTops(ExactPath(args), ExactScoredTops(graph, sample))) {
    report->FailCheck("cannot write " + ExactPath(args));
  }

  report->info.Add("setup_s", times)
      .Add("nodes", static_cast<uint64_t>(graph.num_nodes()))
      .Add("edges", static_cast<uint64_t>(graph.num_edges()))
      .Add("supernodes", static_cast<uint64_t>(first.summary.num_supernodes()))
      .Add("superedges", first.summary.num_superedges());
  report->metrics.Add("personalized_error",
           pegasus::PersonalizedError(
               graph, first.summary,
               pegasus::PersonalWeights::Compute(graph, targets,
                                                 config.alpha)));
  report->layers.Add("graph.load_ms", Median(load_ms))
      .Add("core.summarize_ms", Median(summarize_ms))
      .Add("core.iterations", static_cast<uint64_t>(first.iterations_run))
      .Add("core.merge_evaluations", first.merge_stats.evaluations)
      .Add("core.merges", first.merge_stats.merges)
      .Add("core.merge_accept_ratio",
           first.merge_stats.evaluations
               ? static_cast<double>(first.merge_stats.merges) /
                     static_cast<double>(first.merge_stats.evaluations)
               : 0.0)
      .Add("core.superedges_dropped", first.superedges_dropped)
      .Add("core.view_build_ms", Median(view_ms))
      .Add("core.psb_encode_ms", Median(encode_ms))
      .Add("core.psb_bytes", static_cast<uint64_t>(first_psb.size()));
}

void RunPersonalized(const Args& args, Report* report) {
  std::vector<NodeId> targets;
  if (!ReadNodeList(TargetPath(args), &targets) || targets.empty()) {
    report->FailCheck("missing set-up output " + TargetPath(args));
    return;
  }
  CheckIdentityAnchor(args, report);

  pegasus::QueryService::Options options;
  options.num_threads = 1;  // Executor(1): answers on the calling thread
  pegasus::QueryService service(options);

  // Attach once before the loop, then again at the start of every round
  // (timed, so the samples span the whole run); each attach serves the
  // round that follows it.
  std::vector<double> attach_ms, map_ms, view_us, publish_us;
  std::vector<size_t> attach_slot;
  auto attach = [&](size_t slot) {
    AttachSample sample;
    auto attached =
        Attach(PsbPath(args), targets[0], &service, &sample, report);
    if (attached != nullptr) {
      attach_ms.push_back(sample.total_ms);
      attach_slot.push_back(slot);
      map_ms.push_back(sample.map_ms);
      view_us.push_back(sample.view_us);
      publish_us.push_back(sample.publish_us);
    }
    return attached;
  };
  std::shared_ptr<const pegasus::SummaryView> view = attach(RotateCpu(0));
  if (view == nullptr) return;
  const NodeId n = view->num_nodes();

  // Precision of the fixed sample against exact answers on the input
  // graph, computed at set-up.
  double precision_sum = 0.0;
  size_t precision_count = 0;
  AddPrecision(service, ReadExactTops(ExactPath(args)), &precision_sum,
               &precision_count, report);
  if (precision_count != 2 * std::min(kPrecisionNodes, targets.size())) {
    report->FailCheck("exact reference answers are missing");
  }

  const std::vector<std::string> round =
      PersonalizedRound(targets, args.seed, kBatchesPerRound);
  {
    std::vector<std::vector<QueryRequest>> parsed;
    for (const std::string& text : round) {
      auto batch = pegasus::serve::ParseBatchText(text, n);
      if (batch) parsed.push_back(*batch);
    }
    report->info.Add("repeat_share", RepeatShare(parsed));
  }

  Tracer tracer(args.trace);
  pegasus::KernelScratch scratch;
  ServeStats stats;
  std::vector<double> build_s;
  uint64_t rounds = 0;
  const double start = WallSeconds();
  // Traced runs alternate whole CPU rotations of traced and untraced
  // rounds, and need at least one of each.
  const uint64_t cycle = CpuSlots();
  const uint64_t min_rounds = args.trace ? 2 * cycle : 1;
  for (; rounds < min_rounds || WallSeconds() - start < args.seconds;
       ++rounds) {
    tracer.set_recording((rounds / cycle) % 2 == 1);
    const size_t slot = RotateCpu(rounds);
    if (rounds % kRebuildEvery == 0) {
      const double cpu = RebuildInChild(args, targets, RebuildPath(args));
      if (cpu < 0.0) {
        report->FailCheck("rebuilding the served file failed");
      } else if (!SameFileBytes(RebuildPath(args), PsbPath(args))) {
        report->FailCheck("a rebuild of the served file differs from it");
      } else {
        build_s.push_back(cpu);
      }
    }
    view = attach(slot);
    if (view == nullptr) return;
    for (size_t b = 0; b < round.size(); ++b) {
      ServeScoredBatch(round[b], rounds * round.size() + b, slot, args.trace,
                       service, *view, tracer, &scratch, &stats, report);
    }
  }

  report->info.Add("rounds", rounds)
      .Add("batches", static_cast<uint64_t>(stats.latency_ms.size()))
      .Add("effective_cores",
           stats.busy_s > 0 ? stats.cpu_s / stats.busy_s : 0.0)
      .Add("single_thread_wall_s", stats.busy_s)
      .Add("single_thread_cpu_s", stats.cpu_s)
      .Add("tail_percentile", 90.0);
  if (!args.trace) {
    AddServeMetrics({&stats}, &report->metrics);
    report->metrics
        .Add("top10_precision",
             precision_count ? precision_sum / static_cast<double>(precision_count)
                             : 0.0)
        .Add("attach_ms", CoreAveraged(attach_ms, attach_slot, 50.0))
        .Add("build_s", Mean(build_s))
        .Add("peak_rss_mb", PeakRssMb());
    return;
  }
  const auto cache = service.cache_stats();
  const uint64_t lookups = cache.hits + cache.computations;
  AddServeLayers({&stats}, &report->layers);
  report->layers.Add("core.arena_map_ms", Median(map_ms))
      .Add("query.view_attach_us", Median(view_us))
      .Add("serve.publish_us", Median(publish_us))
      .Add("serve.cache_hits", cache.hits)
      .Add("serve.cache_computations", cache.computations)
      .Add("serve.cache_hit_ratio",
           lookups ? static_cast<double>(cache.hits) /
                         static_cast<double>(lookups)
                   : 0.0)
      .Add("trace.overhead_pct",
           OverheadPercent(stats.traced_ms, stats.untraced_ms));
  tracer.WriteJson(args.dir + "/trace.json");
}

}  // namespace perfbench
