#include "perfbench/src/serving.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "perfbench/src/checks.h"
#include "src/core/summary_arena.h"
#include "src/query/exact_queries.h"
#include "src/query/kernel_scratch.h"
#include "src/serve/text_serving.h"

namespace perfbench {

using pegasus::NodeId;
using pegasus::QueryKind;
using pegasus::QueryRequest;

std::shared_ptr<const pegasus::SummaryView> Attach(
    const std::string& path, NodeId probe, pegasus::QueryService* service,
    AttachSample* sample, Report* report) {
  const double t0 = WallSeconds();
  auto arena = pegasus::SummaryArena::Map(path);
  const double t1 = WallSeconds();
  if (!arena) {
    report->FailCheck(arena.status().ToString());
    return nullptr;
  }
  auto view = std::make_shared<const pegasus::SummaryView>(*std::move(arena));
  const double t2 = WallSeconds();
  service->Publish(view);
  const double t3 = WallSeconds();
  auto first = service->AnswerOne(
      {QueryKind::kNeighbors, probe, pegasus::kQueryParamUseDefault, true, {}});
  const double t4 = WallSeconds();
  if (!first) {
    report->FailCheck(first.status().ToString());
    return nullptr;
  }
  sample->total_ms = (t4 - t0) * 1e3;
  sample->map_ms = (t1 - t0) * 1e3;
  sample->view_us = (t2 - t1) * 1e6;
  sample->publish_us = (t3 - t2) * 1e6;
  return view;
}

void ServeScoredBatch(const std::string& text, uint64_t batch_id, size_t slot,
                      bool traced_run, pegasus::QueryService& service,
                      const pegasus::SummaryView& view, Tracer& tracer,
                      pegasus::KernelScratch* scratch, ServeStats* stats,
                      Report* report) {
  const NodeId n = view.num_nodes();
  const uint64_t lines_in_batch = static_cast<uint64_t>(
      std::count(text.begin(), text.end(), '\n'));
  report->attempted += lines_in_batch;
  const double c0 = ProcessCpuSeconds();
  const double t0 = WallSeconds();
  auto requests = pegasus::serve::ParseBatchText(text, n);
  const double t1 = WallSeconds();
  pegasus::StatusOr<pegasus::QueryService::BatchResult> batch =
      pegasus::Status::Internal("parse failed");
  if (requests) batch = service.Answer(*requests);
  const double t2 = WallSeconds();
  std::string body;
  if (batch) {
    body = pegasus::serve::FormatBatchResponse(*requests, *batch, kTop);
  }
  const double t3 = WallSeconds();
  stats->cpu_s += ProcessCpuSeconds() - c0;
  if (!batch) {
    report->FailOp(batch.status().ToString());
    report->failed += lines_in_batch - 1;
    return;
  }
  stats->busy_s += t3 - t0;
  stats->queries += requests->size();
  stats->latency_ms.push_back((t3 - t0) * 1e3);
  stats->slot.push_back(slot);
  if (traced_run) {
    (tracer.recording() ? stats->traced_ms : stats->untraced_ms)
        .push_back((t3 - t0) * 1e3);
  }
  // ParseBatchText keeps the use-default sentinel; the checks and the
  // direct calls below need the parameters Answer resolved.
  auto canonical = pegasus::serve::CanonicalizeBatch(*requests, n);
  if (!canonical) {
    report->FailOp(canonical.status().ToString());
    return;
  }

  // Untimed: every answer's properties and its formatted line.
  std::istringstream lines(body);
  for (size_t i = 0; i < requests->size(); ++i) {
    std::string line;
    std::getline(lines, line);
    const QueryRequest& r = (*canonical)[i];
    std::string problem =
        r.kind == QueryKind::kRwr
            ? CheckRwrScores(batch->results[i].scores, r.node, r.param)
            : CheckPhpScores(batch->results[i].scores, r.node);
    if (problem.empty()) {
      problem = CheckTopKLine(line, batch->results[i].scores, kTop);
    }
    if (!problem.empty()) report->FailOp(problem);
  }

  if (!tracer.recording()) return;
  const int64_t root = tracer.Record("batch", batch_id, t0, t3);
  tracer.Record("serve.parse", batch_id, t0, t1, root);
  tracer.Record("serve.answer", batch_id, t1, t2, root);
  tracer.Record("serve.format", batch_id, t2, t3, root);
  stats->parse_us.push_back((t1 - t0) * 1e6);
  stats->answer_ms.push_back((t2 - t1) * 1e3);
  stats->format_us.push_back((t3 - t2) * 1e6);
  // The same requests as direct kernel calls with a reused scratch;
  // Answer minus these is the serving layer's own time.
  double kernels_ms = 0.0;
  for (size_t i = 0; i < requests->size(); ++i) {
    const QueryRequest& r = (*canonical)[i];
    const double k0 = WallSeconds();
    std::vector<double> scores =
        r.kind == QueryKind::kRwr
            ? pegasus::SummaryRwrScores(view, r.node, r.param, r.weighted,
                                        r.opts, scratch)
            : pegasus::SummaryPhpScores(view, r.node, r.param, r.weighted,
                                        r.opts, scratch);
    const double k1 = WallSeconds();
    tracer.Record(r.kind == QueryKind::kRwr ? "query.rwr" : "query.php",
                  batch_id, k0, k1);
    (r.kind == QueryKind::kRwr ? stats->rwr_ms : stats->php_ms)
        .push_back((k1 - k0) * 1e3);
    kernels_ms += (k1 - k0) * 1e3;
    if (scores != batch->results[i].scores) {
      report->FailOp("direct kernel call disagrees with Answer");
    }
  }
  stats->dispatch_us.push_back(((t2 - t1) * 1e3 - kernels_ms) * 1e3);
}

std::vector<ExactTop> ExactScoredTops(const pegasus::Graph& graph,
                                      const std::vector<NodeId>& sample) {
  std::vector<ExactTop> exact;
  for (NodeId q : sample) {
    exact.push_back({"rwr", q, TopK(pegasus::ExactRwrScores(graph, q), kTop)});
    exact.push_back({"php", q, TopK(pegasus::ExactPhpScores(graph, q), kTop)});
  }
  return exact;
}

void AddPrecision(pegasus::QueryService& service,
                  const std::vector<ExactTop>& exact, double* sum,
                  size_t* count, Report* report) {
  for (const ExactTop& e : exact) {
    QueryRequest request;
    request.kind = e.kind == "rwr" ? QueryKind::kRwr : QueryKind::kPhp;
    request.node = e.node;
    auto answer = service.AnswerOne(request);
    if (!answer) {
      report->FailCheck("precision sample query failed: " +
                        answer.status().ToString());
      continue;
    }
    *sum += PrecisionOf(e.top, TopK(answer->scores, kTop), kTop);
    ++*count;
  }
}

void AddServeMetrics(const std::vector<const ServeStats*>& stats,
                     JsonObject* metrics) {
  double busy_s = 0.0, cpu_s = 0.0, p50 = 0.0, p90 = 0.0;
  uint64_t queries = 0;
  for (const ServeStats* s : stats) {
    busy_s += s->busy_s;
    cpu_s += s->cpu_s;
    queries += s->queries;
    p50 += CoreAveraged(s->latency_ms, s->slot, 50.0);
    p90 += CoreAveraged(s->latency_ms, s->slot, 90.0);
  }
  const double sequences = static_cast<double>(stats.size());
  metrics->Add("queries_per_s",
               busy_s > 0 ? static_cast<double>(queries) / busy_s : 0.0)
      .Add("batch_p50_ms", p50 / sequences)
      .Add("batch_tail_ms", p90 / sequences)
      .Add("cpu_us_per_query",
           queries ? cpu_s * 1e6 / static_cast<double>(queries) : 0.0);
}

void AddServeLayers(const std::vector<const ServeStats*>& stats,
                    JsonObject* layers) {
  ServeStats all;
  for (const ServeStats* s : stats) {
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&all.parse_us, s->parse_us);
    append(&all.answer_ms, s->answer_ms);
    append(&all.format_us, s->format_us);
    append(&all.dispatch_us, s->dispatch_us);
    append(&all.rwr_ms, s->rwr_ms);
    append(&all.php_ms, s->php_ms);
  }
  layers->Add("query.rwr_ms", Median(all.rwr_ms))
      .Add("query.php_ms", Median(all.php_ms))
      .Add("serve.parse_us", Median(all.parse_us))
      .Add("serve.answer_ms", Median(all.answer_ms))
      .Add("serve.format_us", Median(all.format_us))
      .Add("serve.dispatch_self_us", Median(all.dispatch_us));
}

}  // namespace perfbench
