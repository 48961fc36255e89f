// The serving path every workload ends in: a PSB1 file attached to a
// one-worker QueryService, text batches of RWR/PHP queries answered
// through it with every answer checked, and the top-10 precision of its
// answers against exact ones on the input graph.

#ifndef PERFBENCH_SRC_SERVING_H_
#define PERFBENCH_SRC_SERVING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/inputs.h"
#include "src/query/summary_view.h"
#include "src/serve/query_service.h"

namespace perfbench {

// One attach: PSB path → SummaryArena::Map → SummaryView → Publish → first
// answer (a neighbors query about `probe`), warm page cache.
struct AttachSample {
  double total_ms = 0.0;
  double map_ms = 0.0;      // mmap + structure check + KernelPlan
  double view_us = 0.0;     // SummaryView over the arena
  double publish_us = 0.0;  // QueryService::Publish
};
// Attaches `path` to `service` and returns the published view, or nullptr
// after recording a run-wide failure in `report`.
std::shared_ptr<const pegasus::SummaryView> Attach(
    const std::string& path, pegasus::NodeId probe,
    pegasus::QueryService* service, AttachSample* sample, Report* report);

// What a sequence of served batches measured. The traced-only vectors
// fill in batches answered while the tracer records.
struct ServeStats {
  std::vector<double> latency_ms;  // parse → Answer → format, per batch
  std::vector<size_t> slot;        // CPU slot of each batch
  double busy_s = 0.0;             // summed batch wall time
  double cpu_s = 0.0;              // process CPU during batches
  uint64_t queries = 0;
  std::vector<double> traced_ms, untraced_ms;  // traced runs only
  std::vector<double> parse_us, answer_ms, format_us, dispatch_us, rwr_ms,
      php_ms;
};

// Answers one text batch of "rwr <q>" / "php <q>" lines:
// ParseBatchText → QueryService::Answer → FormatBatchResponse (top-K),
// timed. Then, untimed, checks every answer's properties and its formatted
// line; in recorded batches, repeats the requests as direct
// SummaryRwrScores/SummaryPhpScores calls with a reused scratch (they
// must reproduce Answer bit for bit) to split Answer into kernel and
// serving time. Counts the batch's queries as attempted and failed ones
// as failed.
void ServeScoredBatch(const std::string& text, uint64_t batch_id, size_t slot,
                      bool traced_run, pegasus::QueryService& service,
                      const pegasus::SummaryView& view, Tracer& tracer,
                      pegasus::KernelScratch* scratch, ServeStats* stats,
                      Report* report);

// Exact top-K answers of RWR and PHP about each node of `sample` on the
// input graph, for the precision metric.
std::vector<ExactTop> ExactScoredTops(
    const pegasus::Graph& graph, const std::vector<pegasus::NodeId>& sample);

// Adds |top-K ∩ exact top-K| / K of the service's answer for each entry
// of `exact` to *sum and counts it in *count; a failed query is a
// run-wide failure.
void AddPrecision(pegasus::QueryService& service,
                  const std::vector<ExactTop>& exact, double* sum,
                  size_t* count, Report* report);

// The end-to-end serving metrics of one or more batch sequences (one per
// input): queries_per_s and cpu_us_per_query over all of them; batch
// p50 and p90 latency per sequence (per core, averaged over the cores),
// averaged over the sequences.
void AddServeMetrics(const std::vector<const ServeStats*>& stats,
                     JsonObject* metrics);

// The per-layer serving figures of traced batches: medians of parse,
// Answer, format, serving self time and direct kernel calls.
void AddServeLayers(const std::vector<const ServeStats*>& stats,
                    JsonObject* layers);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVING_H_
