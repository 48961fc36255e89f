// Workload `serve-sharded`: the paper's distributed multi-query
// application. Set-up writes the Caida analog's edge file, loads it,
// partitions it (RunPartitioner, Louvain) and builds one summary per
// shard, personalized to that shard's nodes (BuildShardSummaries), into
// per-shard PSB files and a manifest. The run starts in-process
// ShardWorkers (one-worker services) behind a Coordinator over loopback,
// attaches the same shard files in-process as the reference the merged
// answers are checked against, and one client thread sends text batches of the
// read-heavy mix (mostly neighbors/hop/degree) with uniform nodes, so
// node-level repeats are rare and wire framing, shard codec, sockets, the
// global-result cache and the scatter/merge do most of the work.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
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
#include "src/core/summary_arena.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"
#include "src/serve/query_service.h"
#include "src/serve/shard_codec.h"
#include "src/serve/text_serving.h"
#include "src/serve/wire.h"
#include "src/shard/coordinator.h"
#include "src/shard/manifest.h"
#include "src/shard/shard_build.h"
#include "src/shard/worker.h"
#include "src/util/rng.h"

namespace perfbench {

using pegasus::Graph;
using pegasus::NodeId;
using pegasus::QueryKind;
using pegasus::QueryRequest;
using pegasus::QueryResult;

namespace {

constexpr size_t kPrecisionNodes = 256;

// A few shards, never more than the machine has cores.
uint32_t NumShards() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min(3u, cores);
}

std::string EdgePath(const Args& a) { return a.dir + "/caida.edges"; }
std::string ManifestPath(const Args& a) { return a.dir + "/manifest.psm"; }
std::string ShardPath(const Args& a, uint32_t s) {
  return a.dir + "/shard_" + std::to_string(s) + ".psb";
}
std::string ExactPath(const Args& a) { return a.dir + "/exact_top10.txt"; }

bool Scored(QueryKind kind) {
  return kind != QueryKind::kNeighbors && kind != QueryKind::kHop;
}

// The benchmark's model of the coordinator's routing: shard s gets every
// scored request and the node-local requests it owns, in request order.
// The run checks it against what the program did (the shards a batch
// contacted, the workers' batch counters, the bytes on the sockets), so
// the model cannot drift from the coordinator unnoticed.
std::vector<std::vector<size_t>> Route(
    const std::vector<QueryRequest>& canonical,
    const pegasus::shard::ShardManifest& manifest) {
  std::vector<std::vector<size_t>> out(manifest.num_shards);
  for (size_t i = 0; i < canonical.size(); ++i) {
    if (Scored(canonical[i].kind)) {
      for (auto& sub : out) sub.push_back(i);
    } else {
      out[manifest.ShardOf(canonical[i].node)].push_back(i);
    }
  }
  return out;
}

// One shard served in-process from its PSB file: the reference the
// merged answers are checked against, and the per-shard timings.
struct LocalShard {
  std::shared_ptr<const pegasus::SummaryView> view;
  std::unique_ptr<pegasus::QueryService> service;
};

}  // namespace

void SetupSharded(const Args& args, Report* report) {
  const Graph generated = ShardedGraph(args.seed);  // untimed generation
  const uint32_t shards = NumShards();
  pegasus::PegasusConfig config;
  config.seed = args.seed;
  config.num_threads = 1;  // the serial engine, the CLI default
  std::vector<double> times, build_s, load_ms, partition_ms, summarize_ms,
      build_ms, view_ms, encode_ms;
  std::string first_files;
  uint64_t psb_bytes = 0;
  double busy_wall = 0.0, busy_cpu = 0.0;
  Graph graph;
  pegasus::Partition partition;
  std::vector<pegasus::SummaryGraph> first_summaries;
  for (int rep = 0; rep < args.repeats; ++rep) {
    RotateCpu(static_cast<uint64_t>(rep));
    const double c0 = ProcessCpuSeconds();
    const double w0 = WallSeconds();
    if (!pegasus::SaveEdgeList(generated, EdgePath(args))) {
      report->FailCheck("cannot write " + EdgePath(args));
      return;
    }
    const double c1 = ProcessCpuSeconds();
    const double t0 = WallSeconds();
    auto loaded = pegasus::LoadEdgeList(EdgePath(args));
    if (!loaded) {
      report->FailCheck(loaded.status().ToString());
      return;
    }
    graph = *std::move(loaded);
    const double t1 = WallSeconds();
    partition = pegasus::shard::RunPartitioner(
        graph, shards, pegasus::shard::PartitionerKind::kLouvain, args.seed);
    const double t2 = WallSeconds();
    auto summaries = pegasus::shard::BuildShardSummaries(
        graph, partition, kRatio * graph.SizeInBits(), config);
    const double t3 = WallSeconds();
    if (!summaries) {
      report->FailCheck(summaries.status().ToString());
      return;
    }
    pegasus::shard::ShardManifest manifest;
    manifest.num_shards = shards;
    manifest.num_nodes = graph.num_nodes();
    manifest.partitioner = pegasus::shard::PartitionerName(
        pegasus::shard::PartitionerKind::kLouvain);
    manifest.node_shard = partition.part_of;
    double view_s = 0.0, encode_s = 0.0;
    for (uint32_t s = 0; s < shards; ++s) {
      const double v0 = WallSeconds();
      const pegasus::SummaryView view((*summaries)[s]);
      const double v1 = WallSeconds();
      const pegasus::Status saved =
          pegasus::SaveSummaryBinary(view.layout(), ShardPath(args, s));
      encode_s += WallSeconds() - v1;
      view_s += v1 - v0;
      auto checksum = pegasus::shard::ChecksumFile(ShardPath(args, s));
      if (!saved || !checksum) {
        report->FailCheck("cannot write shard " + std::to_string(s));
        return;
      }
      manifest.shards.push_back(
          {std::filesystem::path(ShardPath(args, s)).filename().string(),
           *checksum});
    }
    if (!pegasus::shard::SaveManifest(manifest, ManifestPath(args))) {
      report->FailCheck("cannot write " + ManifestPath(args));
      return;
    }
    const double t4 = WallSeconds();
    const double c2 = ProcessCpuSeconds();
    busy_wall += t4 - w0;
    busy_cpu += c2 - c0;
    times.push_back(c2 - c0);
    build_s.push_back(c2 - c1);
    load_ms.push_back((t1 - t0) * 1e3);
    partition_ms.push_back((t2 - t1) * 1e3);
    summarize_ms.push_back((t3 - t2) * 1e3);
    build_ms.push_back((t4 - t2) * 1e3);
    view_ms.push_back(view_s * 1e3);
    encode_ms.push_back(encode_s * 1e3);

    std::string files, bytes;
    psb_bytes = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      ReadFile(ShardPath(args, s), &bytes);
      psb_bytes += bytes.size();
      if (rep == 0) {
        const std::string problem = CheckSummaryFile(bytes, graph, kRatio);
        if (!problem.empty()) {
          report->FailCheck("shard " + std::to_string(s) + ": " + problem);
        }
      }
      files += bytes;
    }
    ReadFile(ManifestPath(args), &bytes);
    files += bytes;
    if (rep == 0) {
      first_files = std::move(files);
      first_summaries = *std::move(summaries);
    } else if (files != first_files) {
      report->FailCheck("shard files of one seed differ between set-up "
                        "repetitions");
    }
  }

  // Untimed: Eq. (1) of every shard against its own node set, and the
  // summarizer's work counters. BuildShardSummaries returns only the
  // summaries, so the counters come from running its documented per-shard
  // call (targets V_i, seed SplitMix64(seed + i + 1)) once more; it must
  // give the same summaries.
  const auto parts = partition.Parts();
  double personalized_error = 0.0;
  uint64_t iterations = 0, evaluations = 0, merges = 0, dropped = 0;
  for (uint32_t s = 0; s < shards && s < first_summaries.size(); ++s) {
    personalized_error += pegasus::PersonalizedError(
        graph, first_summaries[s],
        pegasus::PersonalWeights::Compute(graph, parts[s], config.alpha));
    pegasus::PegasusConfig machine = config;
    machine.seed = pegasus::SplitMix64(config.seed + s + 1);
    auto result = pegasus::SummarizeGraph(graph, parts[s],
                                          kRatio * graph.SizeInBits(), machine);
    if (!result) {
      report->FailCheck(result.status().ToString());
      continue;
    }
    const std::string problem =
        CheckSameSummary(result->summary, first_summaries[s]);
    if (!problem.empty()) {
      report->FailCheck("shard " + std::to_string(s) +
                        " summarized alone differs from BuildShardSummaries: " +
                        problem);
    }
    iterations += static_cast<uint64_t>(result->iterations_run);
    evaluations += result->merge_stats.evaluations;
    merges += result->merge_stats.merges;
    dropped += result->superedges_dropped;
  }

  // Exact RWR answers for the precision sample (untimed).
  pegasus::Rng rng(pegasus::SplitMix64(args.seed ^ 0x3b1d));
  std::vector<ExactTop> exact;
  for (uint64_t q : rng.SampleDistinct(graph.num_nodes(), kPrecisionNodes)) {
    const NodeId node = static_cast<NodeId>(q);
    exact.push_back(
        {"rwr", node, TopK(pegasus::ExactRwrScores(graph, node), kTop)});
  }
  if (!WriteExactTops(ExactPath(args), exact)) {
    report->FailCheck("cannot write " + ExactPath(args));
  }

  report->info.Add("setup_s", times)
      .Add("shards", static_cast<uint64_t>(shards))
      .Add("nodes", static_cast<uint64_t>(graph.num_nodes()))
      .Add("edges", static_cast<uint64_t>(graph.num_edges()))
      .Add("effective_cores", busy_wall > 0 ? busy_cpu / busy_wall : 0.0)
      .Add("single_thread_wall_s", busy_wall)
      .Add("single_thread_cpu_s", busy_cpu);
  report->metrics.Add("build_s", Mean(build_s))
      .Add("personalized_error", personalized_error);
  report->layers.Add("graph.load_ms", Median(load_ms))
      .Add("partition.ms", Median(partition_ms))
      .Add("core.summarize_ms", Median(summarize_ms))
      .Add("core.iterations", iterations)
      .Add("core.merge_evaluations", evaluations)
      .Add("core.merges", merges)
      .Add("core.merge_accept_ratio",
           evaluations ? static_cast<double>(merges) /
                             static_cast<double>(evaluations)
                       : 0.0)
      .Add("core.superedges_dropped", dropped)
      .Add("shard.build_ms", Median(build_ms))
      .Add("core.view_build_ms", Median(view_ms))
      .Add("core.psb_encode_ms", Median(encode_ms))
      .Add("core.psb_bytes", psb_bytes);
}

void RunSharded(const Args& args, Report* report) {
  auto manifest = pegasus::shard::LoadManifest(ManifestPath(args));
  if (!manifest) {
    report->FailCheck(manifest.status().ToString());
    return;
  }
  const uint32_t shards = manifest->num_shards;
  const NodeId n = static_cast<NodeId>(manifest->num_nodes);

  // The fleet: one-worker services behind loopback servers, and the
  // coordinator (declared last, so it disconnects before the workers
  // stop).
  const double f0 = WallSeconds();
  std::vector<std::unique_ptr<pegasus::shard::ShardWorker>> workers;
  std::vector<uint16_t> ports;
  for (uint32_t s = 0; s < shards; ++s) {
    pegasus::shard::ShardWorker::Options options;
    options.service.num_threads = 1;
    auto worker = pegasus::shard::ShardWorker::Start(ManifestPath(args), s,
                                                     options);
    if (!worker) {
      report->FailCheck(worker.status().ToString());
      return;
    }
    ports.push_back((*worker)->port());
    workers.push_back(*std::move(worker));
  }
  auto connected = pegasus::shard::Coordinator::Connect(*manifest, ports);
  if (!connected) {
    report->FailCheck(connected.status().ToString());
    return;
  }
  std::unique_ptr<pegasus::shard::Coordinator> coordinator =
      *std::move(connected);
  report->info.Add("fleet_start_s", WallSeconds() - f0);

  // The same shards in-process, without coordinator or sockets. Each is
  // attached once here (PSB path → Map → view → Publish → first answer
  // about a node it owns); every measured round re-attaches one of them in
  // turn (timed, so the samples span the whole run).
  std::vector<LocalShard> local(shards);
  std::vector<NodeId> probe(shards, 0);
  for (NodeId v = n; v-- > 0;) probe[manifest->ShardOf(v)] = v;
  std::vector<double> attach_ms, map_ms, attach_us, publish_us;
  std::vector<size_t> attach_slot;
  auto attach = [&](uint32_t s, size_t slot) {
    AttachSample sample;
    local[s].view = Attach(ShardPath(args, s), probe[s],
                           local[s].service.get(), &sample, report);
    if (local[s].view == nullptr) return false;
    attach_ms.push_back(sample.total_ms);
    attach_slot.push_back(slot);
    map_ms.push_back(sample.map_ms);
    attach_us.push_back(sample.view_us);
    publish_us.push_back(sample.publish_us);
    return true;
  };
  for (uint32_t s = 0; s < shards; ++s) {
    pegasus::QueryService::Options options;
    options.num_threads = 1;
    local[s].service = std::make_unique<pegasus::QueryService>(options);
    if (!attach(s, RotateCpu(s))) return;
  }

  // Precision of merged RWR answers on the fixed sample.
  double precision_sum = 0.0;
  size_t precision_count = 0;
  for (const ExactTop& exact : ReadExactTops(ExactPath(args))) {
    QueryRequest request;
    request.kind = QueryKind::kRwr;
    request.node = exact.node;
    auto answer = coordinator->Answer({request});
    if (!answer) {
      report->FailCheck("precision sample query failed: " +
                        answer.status().ToString());
      continue;
    }
    precision_sum +=
        PrecisionOf(exact.top, TopK(answer->results[0].scores, kTop), kTop);
    ++precision_count;
  }
  if (precision_count != kPrecisionNodes) {
    report->FailCheck("exact reference answers are missing");
  }

  const std::vector<std::string> round =
      ShardedRound(n, args.seed);
  std::vector<std::vector<QueryRequest>> parsed_round;
  for (const std::string& text : round) {
    auto batch = pegasus::serve::ParseBatchText(text, n);
    if (!batch) {
      report->FailCheck(batch.status().ToString());
      return;
    }
    parsed_round.push_back(*batch);
  }
  report->info.Add("repeat_share", RepeatShare(parsed_round))
      .Add("shards", static_cast<uint64_t>(shards));

  auto worker_cache = [&] {
    pegasus::QueryService::CacheStats total;
    for (const auto& w : workers) {
      const auto c = w->service().cache_stats();
      total.hits += c.hits;
      total.computations += c.computations;
    }
    return total;
  };
  auto worker_batches = [&] {
    uint64_t total = 0;
    for (const auto& w : workers) {
      total += w->service().serving_stats().total_batches;
    }
    return total;
  };
  const size_t frame_header =
      pegasus::serve::EncodeFrame(pegasus::serve::FrameType::kShardBatch, "")
          .size();

  Tracer tracer(args.trace);
  pegasus::KernelScratch scratch;
  std::vector<double> latency_ms, traced_ms, untraced_ms, parse_us, format_us,
      answer_ms, worker_ms, overhead_ms, codec_us, dispatch_us, hop_us,
      rwr_ms, php_ms, service_answer_ms;
  std::vector<uint64_t> wire_bytes_per_round, contacted_per_round;
  std::vector<size_t> latency_slot;
  double busy_s = 0.0, cpu_s = 0.0;
  uint64_t queries = 0;

  // Round 0 checks every answer against the in-process shards; traced
  // rounds do too, since they compute the in-process answers anyway.
  // Other rounds run the per-answer property checks only. Every round
  // also checks that the shards the coordinator reports as contacted are
  // the sub-batches the workers counted, and returns the round's bytes on
  // the sockets and its contacted shards.
  struct RoundCounts {
    uint64_t wire_bytes = 0;
    uint64_t contacted = 0;
  };
  // The whole fleet (client, coordinator fan-out, workers) runs on one CPU
  // per round, rotating like the single-threaded loops: with its threads
  // spread over the vCPUs, throughput halved whenever the host was busy
  // (one vCPU or another was away at each hand-off), while CPU per query
  // moved 15%.
  auto run_round = [&](uint64_t round_index, bool full_check, bool timed) {
    const size_t slot = RotateProcessCpu(round_index);
    const uint64_t wire0 = TcpBytesReceived();
    const uint64_t batches0 = worker_batches();
    uint64_t contacted = 0, modeled_bytes = 0, modeled_sub_batches = 0;
    size_t modeled_batches = 0;
    bool all_ok = true;
    for (size_t b = 0; b < round.size(); ++b) {
      const uint64_t batch_id = round_index * round.size() + b;
      report->attempted += parsed_round[b].size();
      const double c0 = ProcessCpuSeconds();
      const double t0 = WallSeconds();
      auto requests = pegasus::serve::ParseBatchText(round[b], n);
      const double t1 = WallSeconds();
      pegasus::StatusOr<pegasus::shard::Coordinator::BatchResult> merged =
          pegasus::Status::Internal("parse failed");
      if (requests) merged = coordinator->Answer(*requests);
      const double t2 = WallSeconds();
      std::string body;
      if (merged) {
        pegasus::QueryService::BatchResult as_batch;
        as_batch.epoch = *std::max_element(merged->shard_epochs.begin(),
                                           merged->shard_epochs.end());
        as_batch.results = std::move(merged->results);
        body = pegasus::serve::FormatBatchResponse(*requests, as_batch, kTop);
        merged->results = std::move(as_batch.results);
      }
      const double t3 = WallSeconds();
      const double cpu = ProcessCpuSeconds() - c0;
      if (!merged) {
        report->FailOp(merged.status().ToString());
        report->failed += parsed_round[b].size() - 1;
        all_ok = false;
        continue;
      }
      contacted += static_cast<uint64_t>(
          std::count_if(merged->shard_epochs.begin(),
                        merged->shard_epochs.end(),
                        [](uint64_t epoch) { return epoch != 0; }));
      if (timed) {
        busy_s += t3 - t0;
        cpu_s += cpu;
        queries += requests->size();
        latency_ms.push_back((t3 - t0) * 1e3);
        latency_slot.push_back(slot);
        if (args.trace) {
          (tracer.recording() ? traced_ms : untraced_ms)
              .push_back((t3 - t0) * 1e3);
        }
      }

      // Untimed from here on.
      std::istringstream lines(body);
      std::vector<std::string> problems(requests->size());
      for (size_t i = 0; i < requests->size(); ++i) {
        std::string line;
        std::getline(lines, line);
        const QueryRequest& r = (*requests)[i];
        const QueryResult& got = merged->results[i];
        if (r.kind == QueryKind::kHop) {
          problems[i] = CheckHops(got.hops, r.node);
        } else if (Scored(r.kind)) {
          problems[i] = CheckTopKLine(line, got.scores, kTop);
        }
      }
      if (full_check || tracer.recording()) {
        const auto routes = Route(*requests, *manifest);
        std::vector<std::vector<QueryResult>> owner(shards);
        double slowest_ms = 0.0, batch_codec_us = 0.0, self_us = 0.0,
               service_ms = 0.0;
        ++modeled_batches;
        for (uint32_t s = 0; s < shards; ++s) {
          if (routes[s].empty()) continue;
          ++modeled_sub_batches;
          if (merged->shard_epochs[s] == 0) {
            report->FailCheck("routing model sends to shard " +
                              std::to_string(s) +
                              ", which the coordinator did not contact");
          }
          std::vector<QueryRequest> sub;
          for (size_t i : routes[s]) sub.push_back((*requests)[i]);
          const double e0 = WallSeconds();
          const std::string batch_body =
              pegasus::serve::EncodeShardBatchBody(sub);
          auto decoded = pegasus::serve::DecodeShardBatchBody(batch_body);
          const double e1 = WallSeconds();
          auto answered = local[s].service->Answer(sub);
          const double w1 = WallSeconds();
          if (!decoded || !answered) {
            report->FailOp("in-process shard " + std::to_string(s) +
                           " failed");
            continue;
          }
          const std::string partial_body =
              pegasus::serve::EncodeShardPartialBody(answered->epoch,
                                                     answered->results);
          auto partial = pegasus::serve::DecodeShardPartialBody(partial_body);
          const double p1 = WallSeconds();
          if (!partial) report->FailOp(partial.status().ToString());
          modeled_bytes +=
              batch_body.size() + partial_body.size() + 2 * frame_header;
          batch_codec_us += ((e1 - e0) + (p1 - w1)) * 1e6;
          slowest_ms = std::max(slowest_ms, (w1 - e1) * 1e3);
          service_ms += (w1 - e1) * 1e3;
          const int64_t span =
              tracer.Record("shard.worker_answer", batch_id, e1, w1);
          // Direct query-layer calls for the node-level requests; the
          // whole-graph families run once per epoch (global_compute_ms),
          // so their per-request cost inside Answer is serving time.
          double kernels_us = 0.0;
          for (const QueryRequest& r : *decoded) {
            if (Scored(r.kind) && !pegasus::IsNodeQuery(r.kind)) continue;
            auto canonical = pegasus::CanonicalizeRequest(r, n);
            if (!canonical) continue;
            const double k0 = WallSeconds();
            const QueryResult direct =
                pegasus::AnswerQuery(*local[s].view, *canonical, &scratch);
            const double k1 = WallSeconds();
            kernels_us += (k1 - k0) * 1e6;
            if (!tracer.recording()) continue;
            if (r.kind == QueryKind::kHop) {
              hop_us.push_back((k1 - k0) * 1e6);
              tracer.Record("query.hop", batch_id, k0, k1, span);
            } else if (r.kind == QueryKind::kRwr ||
                       r.kind == QueryKind::kPhp) {
              (r.kind == QueryKind::kRwr ? rwr_ms : php_ms)
                  .push_back((k1 - k0) * 1e3);
              tracer.Record(r.kind == QueryKind::kRwr ? "query.rwr"
                                                      : "query.php",
                            batch_id, k0, k1, span);
            }
          }
          self_us += (w1 - e1) * 1e6 - kernels_us;
          owner[s] = std::move(answered->results);
        }
        // Merged answers against the owners' answers.
        std::vector<size_t> cursor(shards, 0);
        for (size_t i = 0; i < requests->size(); ++i) {
          const QueryRequest& r = (*requests)[i];
          if (!Scored(r.kind)) {
            const uint32_t s = manifest->ShardOf(r.node);
            if (owner[s].size() <= cursor[s]) continue;
            if (problems[i].empty()) {
              problems[i] = CheckSameResult(merged->results[i],
                                            owner[s][cursor[s]]);
            }
            ++cursor[s];
            continue;
          }
          std::vector<const std::vector<double>*> parts;
          for (uint32_t s = 0; s < shards; ++s) {
            if (owner[s].size() <= cursor[s]) break;
            parts.push_back(&owner[s][cursor[s]++].scores);
          }
          if (problems[i].empty() && parts.size() == shards) {
            problems[i] = CheckOwnerMerge(merged->results[i].scores, parts,
                                          manifest->node_shard);
          }
        }
        if (tracer.recording() && timed) {
          const int64_t root = tracer.Record("batch", batch_id, t0, t3);
          tracer.Record("serve.parse", batch_id, t0, t1, root);
          tracer.Record("shard.answer", batch_id, t1, t2, root);
          tracer.Record("serve.format", batch_id, t2, t3, root);
          parse_us.push_back((t1 - t0) * 1e6);
          format_us.push_back((t3 - t2) * 1e6);
          answer_ms.push_back((t2 - t1) * 1e3);
          worker_ms.push_back(slowest_ms);
          overhead_ms.push_back((t2 - t1) * 1e3 - slowest_ms);
          codec_us.push_back(batch_codec_us);
          dispatch_us.push_back(self_us);
          service_answer_ms.push_back(service_ms);
        }
      }
      for (const std::string& problem : problems) {
        if (!problem.empty()) report->FailOp(problem);
      }
    }
    RoundCounts counts{TcpBytesReceived() - wire0, contacted};
    if (!all_ok) return counts;
    const uint64_t answered = worker_batches() - batches0;
    if (answered != contacted) {
      report->FailCheck("workers answered " + std::to_string(answered) +
                        " sub-batches in a round, the coordinator reports " +
                        std::to_string(contacted) + " shards contacted");
    }
    if (modeled_batches == round.size() &&
        (modeled_sub_batches != contacted ||
         modeled_bytes != counts.wire_bytes)) {
      report->FailCheck(
          "routing model predicts " + std::to_string(modeled_sub_batches) +
          " sub-batches and " + std::to_string(modeled_bytes) +
          " wire bytes in a round; the program sent " +
          std::to_string(contacted) + " and " +
          std::to_string(counts.wire_bytes));
    }
    return counts;
  };

  tracer.set_recording(false);
  const RoundCounts first_counts =
      run_round(0, /*full_check=*/true, /*timed=*/false);
  wire_bytes_per_round.push_back(first_counts.wire_bytes);
  contacted_per_round.push_back(first_counts.contacted);
  const auto first_round_cache = worker_cache();
  const double start = WallSeconds();
  uint64_t rounds = 1;
  // Round 0 is the check. Traced runs alternate whole CPU rotations of
  // untraced and traced rounds, and need at least one of each.
  const uint64_t cycle = CpuSlots();
  const uint64_t min_rounds = args.trace ? 1 + 2 * cycle : 2;
  for (; rounds < min_rounds || WallSeconds() - start < args.seconds;
       ++rounds) {
    tracer.set_recording(((rounds - 1) / cycle) % 2 == 1);
    if (!attach(static_cast<uint32_t>(rounds % shards),
                RotateProcessCpu(rounds))) {
      return;
    }
    const RoundCounts counts = run_round(rounds, false, true);
    wire_bytes_per_round.push_back(counts.wire_bytes);
    contacted_per_round.push_back(counts.contacted);
  }
  tracer.set_recording(false);

  report->info.Add("rounds", rounds)
      .Add("batches", static_cast<uint64_t>(latency_ms.size()))
      .Add("tail_percentile", 90.0);
  if (!args.trace) {
    report->metrics
        .Add("queries_per_s",
             busy_s > 0 ? static_cast<double>(queries) / busy_s : 0.0)
        .Add("batch_p50_ms", CoreAveraged(latency_ms, latency_slot, 50.0))
        .Add("batch_tail_ms", CoreAveraged(latency_ms, latency_slot, 90.0))
        .Add("cpu_us_per_query",
             queries ? cpu_s * 1e6 / static_cast<double>(queries) : 0.0)
        .Add("top10_precision",
             precision_count ? precision_sum / static_cast<double>(precision_count)
                             : 0.0)
        .Add("attach_ms", CoreAveraged(attach_ms, attach_slot, 50.0))
        .Add("peak_rss_mb", PeakRssMb());
    return;
  }

  // Deterministic counters: the first round from a fresh epoch must
  // produce the same cache counts when replayed after a re-publish, and
  // every round the same wire bytes and contacted shards.
  const auto before = worker_cache();
  for (const auto& w : workers) w->service().Publish(w->service().view());
  run_round(rounds, false, false);
  const auto after = worker_cache();
  if (after.hits - before.hits != first_round_cache.hits ||
      after.computations - before.computations !=
          first_round_cache.computations) {
    report->FailCheck("cache counters of a replayed round differ");
  }
  for (size_t r = 0; r < wire_bytes_per_round.size(); ++r) {
    if (wire_bytes_per_round[r] != wire_bytes_per_round.front() ||
        contacted_per_round[r] != contacted_per_round.front()) {
      report->FailCheck("wire bytes or contacted shards differ between "
                        "rounds");
    }
  }

  std::vector<double> global_ms;
  for (const LocalShard& shard : local) {
    const double g0 = WallSeconds();
    const auto degrees = pegasus::SummaryDegrees(*shard.view);
    const auto pagerank = pegasus::SummaryPageRank(*shard.view);
    const auto clustering = pegasus::SummaryClusteringCoefficients(*shard.view);
    global_ms.push_back((WallSeconds() - g0) * 1e3);
    if (degrees.size() != n || pagerank.size() != n || clustering.size() != n) {
      report->FailCheck("global family answered the wrong size");
    }
  }

  const uint64_t lookups = first_round_cache.hits + first_round_cache.computations;
  report->layers.Add("core.arena_map_ms", Median(map_ms))
      .Add("query.view_attach_us", Median(attach_us))
      .Add("serve.publish_us", Median(publish_us))
      .Add("query.rwr_ms", Median(rwr_ms))
      .Add("query.php_ms", Median(php_ms))
      .Add("serve.answer_ms", Median(service_answer_ms))
      .Add("query.hop_us", Median(hop_us))
      .Add("query.global_compute_ms", Median(global_ms))
      .Add("serve.parse_us", Median(parse_us))
      .Add("serve.format_us", Median(format_us))
      .Add("serve.dispatch_self_us", Median(dispatch_us))
      .Add("serve.codec_us", Median(codec_us))
      .Add("serve.cache_hits", first_round_cache.hits)
      .Add("serve.cache_computations", first_round_cache.computations)
      .Add("serve.cache_hit_ratio",
           lookups ? static_cast<double>(first_round_cache.hits) /
                         static_cast<double>(lookups)
                   : 0.0)
      .Add("shard.answer_ms", Median(answer_ms))
      .Add("shard.worker_answer_ms", Median(worker_ms))
      .Add("shard.overhead_ms", Median(overhead_ms))
      .Add("shard.frame_bytes", wire_bytes_per_round.front())
      .Add("shard.fanout", static_cast<double>(contacted_per_round.front()) /
                               static_cast<double>(round.size()))
      .Add("trace.overhead_pct", OverheadPercent(traced_ms, untraced_ms));
  tracer.WriteJson(args.dir + "/trace.json");
}

}  // namespace perfbench
