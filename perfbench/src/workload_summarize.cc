// Workload `summarize`: edge-list files on disk → LoadEdgeList →
// SummarizeGraphToRatio (serial engine) → SummaryView → SaveSummaryBinary,
// once per input per pass. The build dominates; each pass then puts the
// summaries it wrote to use: it attaches each file to a one-worker
// QueryService and answers a few batches of RWR/PHP queries about the
// input's targets on it, so the serving figures here are those of freshly
// built summaries.

#include <cmath>
#include <cstdio>
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
#include "src/query/kernel_scratch.h"
#include "src/query/summary_view.h"
#include "src/serve/query_service.h"

namespace perfbench {

using pegasus::Graph;
using pegasus::NodeId;

namespace {

std::string EdgePath(const Args& args, int which) {
  return args.dir + "/" + SummarizeInputName(which) + ".edges";
}
std::string TargetPath(const Args& args, int which) {
  return args.dir + "/" + SummarizeInputName(which) + ".targets";
}
std::string PsbPath(const Args& args, int which) {
  return args.dir + "/" + SummarizeInputName(which) + ".psb";
}
std::string ExactPath(const Args& args, int which) {
  return args.dir + "/" + SummarizeInputName(which) + ".exact_top10.txt";
}

// Every pass answers the next kServeBatches batches of each input's
// TargetRound, so a run covers every target several times while the build
// still dominates each pass. kPrecisionNodes targets per input form the
// precision sample.
constexpr size_t kServeBatches = 4;
constexpr size_t kPrecisionNodes = 16;

// The work counters of one summarization; they must repeat exactly.
struct Counters {
  uint64_t iterations = 0, evaluations = 0, merges = 0, dropped = 0,
           psb_bytes = 0;
  bool operator==(const Counters&) const = default;
  Counters& operator+=(const Counters& o) {
    iterations += o.iterations;
    evaluations += o.evaluations;
    merges += o.merges;
    dropped += o.dropped;
    psb_bytes += o.psb_bytes;
    return *this;
  }
};

pegasus::PegasusConfig Config(uint64_t seed) {
  pegasus::PegasusConfig config;
  config.seed = seed;
  config.num_threads = 1;  // the serial engine, the CLI default
  return config;
}

// Eq. (1) from the library must agree with the benchmark's own pair-by-pair
// evaluation on a small graph built by the same path (generate → edge
// file → LoadEdgeList → targets → summarize).
void CheckErrorAgainstBruteForce(const Args& args, Report* report) {
  for (int which = 0; which < kSummarizeInputs; ++which) {
    const std::string path = args.dir + "/tiny_" + SummarizeInputName(which) +
                             ".edges";
    const Graph generated =
        SummarizeInputGraph(which, args.seed, pegasus::DatasetScale::kTiny);
    if (!pegasus::SaveEdgeList(generated, path)) {
      report->FailCheck("cannot write " + path);
      return;
    }
    auto graph = pegasus::LoadEdgeList(path);
    if (!graph) {
      report->FailCheck(graph.status().ToString());
      return;
    }
    const std::vector<NodeId> targets =
        SummarizeInputTargets(which, *graph, args.seed);
    const auto config = Config(args.seed);
    auto result =
        pegasus::SummarizeGraphToRatio(*graph, targets, kRatio, config);
    if (!result) {
      report->FailCheck(result.status().ToString());
      return;
    }
    const double library = pegasus::PersonalizedError(
        *graph, result->summary,
        pegasus::PersonalWeights::Compute(*graph, targets, config.alpha));
    const double brute = BruteForcePersonalizedError(
        *graph, result->summary, targets, config.alpha);
    if (!(std::fabs(library - brute) <= 1e-9 * std::max(1.0, brute))) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "personalized error %.17g disagrees with brute force "
                    "%.17g on tiny %s",
                    library, brute, SummarizeInputName(which));
      report->FailCheck(buf);
    }
  }
}

}  // namespace

void SetupSummarize(const Args& args, Report* report) {
  std::vector<double> times;
  std::vector<std::string> first(kSummarizeInputs);
  for (int rep = 0; rep < args.repeats; ++rep) {
    RotateCpu(static_cast<uint64_t>(rep));
    const double t0 = ProcessCpuSeconds();
    for (int which = 0; which < kSummarizeInputs; ++which) {
      const Graph graph = SummarizeInputGraph(which, args.seed,
                                              pegasus::DatasetScale::kDefault);
      if (!pegasus::SaveEdgeList(graph, EdgePath(args, which))) {
        report->FailCheck("cannot write " + EdgePath(args, which));
        return;
      }
    }
    times.push_back(ProcessCpuSeconds() - t0);
    for (int which = 0; which < kSummarizeInputs; ++which) {
      std::string bytes;
      ReadFile(EdgePath(args, which), &bytes);
      if (rep == 0) {
        first[which] = std::move(bytes);
      } else if (bytes != first[which]) {
        report->FailCheck("edge file of the same seed differs between "
                          "set-up repetitions");
      }
    }
  }
  // Targets are picked on the graph as the program loads it (LoadEdgeList
  // renumbers nodes in first-appearance order).
  for (int which = 0; which < kSummarizeInputs; ++which) {
    auto graph = pegasus::LoadEdgeList(EdgePath(args, which));
    if (!graph) {
      report->FailCheck(graph.status().ToString());
      return;
    }
    const auto targets = SummarizeInputTargets(which, *graph, args.seed);
    WriteNodeList(TargetPath(args, which), targets);
    report->info.Add(std::string(SummarizeInputName(which)) + "_nodes",
                     static_cast<uint64_t>(graph->num_nodes()));
    report->info.Add(std::string(SummarizeInputName(which)) + "_edges",
                     static_cast<uint64_t>(graph->num_edges()));
    report->info.Add(std::string(SummarizeInputName(which)) + "_targets",
                     static_cast<uint64_t>(targets.size()));
    // Exact reference answers for the precision sample (untimed).
    if (!WriteExactTops(ExactPath(args, which),
                        ExactScoredTops(*graph,
                                        PrecisionSample(targets, args.seed,
                                                        kPrecisionNodes)))) {
      report->FailCheck("cannot write " + ExactPath(args, which));
    }
  }
  report->info.Add("setup_s", times);
}

void RunSummarize(const Args& args, Report* report) {
  std::vector<std::vector<NodeId>> targets(kSummarizeInputs);
  for (int which = 0; which < kSummarizeInputs; ++which) {
    if (!ReadNodeList(TargetPath(args, which), &targets[which])) {
      report->FailCheck("missing set-up output " + TargetPath(args, which));
      return;
    }
  }
  CheckErrorAgainstBruteForce(args, report);

  // One one-worker service per input; each pass re-attaches the file it
  // wrote and answers the same batches.
  std::vector<std::unique_ptr<pegasus::QueryService>> services;
  std::vector<std::vector<std::string>> batches;
  std::vector<std::vector<ExactTop>> exact;
  for (int which = 0; which < kSummarizeInputs; ++which) {
    pegasus::QueryService::Options options;
    options.num_threads = 1;  // Executor(1): answers on the calling thread
    services.push_back(std::make_unique<pegasus::QueryService>(options));
    batches.push_back(TargetRound(targets[which], args.seed + which));
    exact.push_back(ReadExactTops(ExactPath(args, which)));
  }
  std::vector<ServeStats> serve(kSummarizeInputs);
  pegasus::KernelScratch scratch;
  std::vector<double> attach_ms, map_ms, view_us, publish_us;
  std::vector<size_t> attach_slot;
  double precision_sum = 0.0;
  size_t precision_count = 0;

  Tracer tracer(args.trace);
  const auto config = Config(args.seed);
  std::vector<double> pass_s, traced_pass_s, untraced_pass_s;
  std::vector<size_t> pass_slot;
  std::vector<std::string> reference(kSummarizeInputs);
  Counters reference_counters;
  double personalized_error = 0.0;
  double busy_wall = 0.0, busy_cpu = 0.0;

  const double start = WallSeconds();
  // Traced runs alternate whole CPU rotations of traced and untraced
  // passes, and need at least one of each.
  const uint64_t cycle = CpuSlots();
  const uint64_t min_passes = args.trace ? 2 * cycle : 1;
  for (uint64_t pass = 0;
       pass < min_passes || WallSeconds() - start < args.seconds; ++pass) {
    tracer.set_recording((pass / cycle) % 2 == 1);
    const size_t slot = RotateCpu(pass);
    double pass_time = 0.0;
    AttachSample attach_sum;
    Counters counters;
    for (int which = 0; which < kSummarizeInputs; ++which) {
      ++report->attempted;
      const double c0 = ProcessCpuSeconds();
      const double t0 = WallSeconds();
      pegasus::StatusOr<Graph> graph = pegasus::Status::Internal("unset");
      {
        Tracer::Scope span(tracer, "graph.load", pass);
        graph = pegasus::LoadEdgeList(EdgePath(args, which));
      }
      if (!graph) {
        report->FailOp(graph.status().ToString());
        continue;
      }
      pegasus::StatusOr<pegasus::SummarizationResult> result =
          pegasus::Status::Internal("unset");
      {
        Tracer::Scope span(tracer, "core.summarize", pass);
        result = pegasus::SummarizeGraphToRatio(*graph, targets[which], kRatio,
                                                config);
      }
      if (!result) {
        report->FailOp(result.status().ToString());
        continue;
      }
      std::unique_ptr<pegasus::SummaryView> view;
      {
        Tracer::Scope span(tracer, "core.view_build", pass);
        view = std::make_unique<pegasus::SummaryView>(result->summary);
      }
      pegasus::Status saved;
      {
        Tracer::Scope span(tracer, "core.psb_encode", pass);
        saved = pegasus::SaveSummaryBinary(view->layout(), PsbPath(args, which));
      }
      const double t1 = WallSeconds();
      const double c1 = ProcessCpuSeconds();
      busy_wall += t1 - t0;
      busy_cpu += c1 - c0;
      pass_time += c1 - c0;
      if (!saved) {
        report->FailOp(saved.ToString());
        continue;
      }

      // Untimed: checks, and the attach half of the round trip.
      std::string bytes;
      ReadFile(PsbPath(args, which), &bytes);
      Counters c{static_cast<uint64_t>(result->iterations_run),
                 result->merge_stats.evaluations, result->merge_stats.merges,
                 result->superedges_dropped, bytes.size()};
      counters += c;
      std::string problem;
      if (pass == 0) {
        problem = CheckSummaryFile(bytes, *graph, kRatio);
        if (problem.empty()) {
          auto loaded = pegasus::LoadSummaryBinary(PsbPath(args, which));
          problem = loaded ? CheckSameSummary(result->summary, *loaded)
                           : loaded.status().ToString();
        }
        reference[which] = bytes;
        personalized_error += pegasus::PersonalizedError(
            *graph, result->summary,
            pegasus::PersonalWeights::Compute(*graph, targets[which],
                                              config.alpha));
      } else if (bytes != reference[which]) {
        problem = std::string("PSB file of ") + SummarizeInputName(which) +
                  " differs from the first pass of the same seed";
      }
      if (!problem.empty()) {
        report->FailOp(problem);
        continue;
      }
      // Untimed for build_s: the summary put to use.
      AttachSample attach;
      const auto served = Attach(PsbPath(args, which), targets[which][0],
                                 services[which].get(), &attach, report);
      if (served == nullptr) continue;
      attach_sum.total_ms += attach.total_ms;
      attach_sum.map_ms += attach.map_ms;
      attach_sum.view_us += attach.view_us;
      attach_sum.publish_us += attach.publish_us;
      if (served->num_supernodes() != view->num_supernodes()) {
        report->FailCheck("mapped view disagrees with the built view");
      }
      if (pass == 0) {
        AddPrecision(*services[which], exact[which], &precision_sum,
                     &precision_count, report);
      }
      for (size_t i = 0; i < kServeBatches; ++i) {
        const uint64_t batch_id =
            (pass * kSummarizeInputs + which) * kServeBatches + i;
        const std::vector<std::string>& round = batches[which];
        ServeScoredBatch(round[(pass * kServeBatches + i) % round.size()],
                         batch_id, slot, args.trace, *services[which],
                         *served, tracer, &scratch, &serve[which], report);
      }
    }
    attach_ms.push_back(attach_sum.total_ms);
    attach_slot.push_back(slot);
    if (tracer.recording()) {
      map_ms.push_back(attach_sum.map_ms);
      view_us.push_back(attach_sum.view_us);
      publish_us.push_back(attach_sum.publish_us);
    }
    if (pass == 0) {
      reference_counters = counters;
    } else if (!(counters == reference_counters)) {
      report->FailCheck("summarizer work counters differ between passes");
    }
    pass_s.push_back(pass_time);
    pass_slot.push_back(slot);
    (tracer.recording() ? traced_pass_s : untraced_pass_s).push_back(pass_time);
  }

  report->info.Add("passes", static_cast<uint64_t>(pass_s.size()))
      .Add("effective_cores", busy_wall > 0 ? busy_cpu / busy_wall : 0.0)
      .Add("single_thread_wall_s", busy_wall)
      .Add("single_thread_cpu_s", busy_cpu);
  size_t expected_precision = 0;
  for (const auto& e : exact) expected_precision += e.size();
  if (expected_precision == 0 || precision_count != expected_precision) {
    report->FailCheck("exact reference answers are missing");
  }
  if (!args.trace) {
    report->metrics.Add("build_s", CoreAveraged(pass_s, pass_slot, 50.0))
        .Add("personalized_error", personalized_error)
        .Add("attach_ms", CoreAveraged(attach_ms, attach_slot, 50.0))
        .Add("top10_precision",
             precision_count
                 ? precision_sum / static_cast<double>(precision_count)
                 : 0.0)
        .Add("peak_rss_mb", PeakRssMb());
    AddServeMetrics({&serve[0], &serve[1]}, &report->metrics);
    return;
  }
  // Per-layer: per-pass sums over the two inputs, median over traced
  // passes.
  auto per_pass = [&](const char* name, double scale) {
    std::vector<double> out;
    for (const auto& [pass, ms] : tracer.SumMsByRequest(name)) {
      out.push_back(ms * scale);
    }
    return Median(out);
  };
  const Counters& c = reference_counters;
  report->layers.Add("graph.load_ms", per_pass("graph.load", 1.0))
      .Add("core.summarize_ms", per_pass("core.summarize", 1.0))
      .Add("core.iterations", c.iterations)
      .Add("core.merge_evaluations", c.evaluations)
      .Add("core.merges", c.merges)
      .Add("core.merge_accept_ratio",
           c.evaluations ? static_cast<double>(c.merges) /
                               static_cast<double>(c.evaluations)
                         : 0.0)
      .Add("core.superedges_dropped", c.dropped)
      .Add("core.view_build_ms", per_pass("core.view_build", 1.0))
      .Add("core.psb_encode_ms", per_pass("core.psb_encode", 1.0))
      .Add("core.psb_bytes", c.psb_bytes)
      .Add("core.arena_map_ms", Median(map_ms))
      .Add("query.view_attach_us", Median(view_us))
      .Add("serve.publish_us", Median(publish_us));
  AddServeLayers({&serve[0], &serve[1]}, &report->layers);
  pegasus::QueryService::CacheStats cache;
  for (const auto& service : services) {
    cache.hits += service->cache_stats().hits;
    cache.computations += service->cache_stats().computations;
  }
  const uint64_t lookups = cache.hits + cache.computations;
  report->layers.Add("serve.cache_hits", cache.hits)
      .Add("serve.cache_computations", cache.computations)
      .Add("serve.cache_hit_ratio",
           lookups ? static_cast<double>(cache.hits) /
                         static_cast<double>(lookups)
                   : 0.0)
      .Add("trace.overhead_pct", OverheadPercent(traced_pass_s, untraced_pass_s));
  tracer.WriteJson(args.dir + "/trace.json");
}

}  // namespace perfbench
