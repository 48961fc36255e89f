// Seeded inputs of the three workloads. Everything here is a pure
// function of the workload seed; the program under test only ever sees
// the generated graphs, files and request batches.

#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/datasets.h"
#include "src/graph/graph.h"
#include "src/query/query_engine.h"

namespace perfbench {

// Budget ratio of every summary the benchmark builds.
inline constexpr double kRatio = 0.3;
// Top-K of formatted answers and of the precision metric.
inline constexpr size_t kTop = 10;

// --- summarize -------------------------------------------------------------

// The two summarize inputs. "ego": the Caida analog (small scale),
// personalized to the closed neighborhood of its highest-degree node — a
// personal summary for one user. "scattered": the LastFM analog (default
// scale, heavier degree skew), personalized to 100 nodes drawn uniformly.
inline constexpr int kSummarizeInputs = 2;
const char* SummarizeInputName(int which);
pegasus::Graph SummarizeInputGraph(int which, uint64_t seed,
                                   pegasus::DatasetScale scale);
// Targets chosen on the graph as loaded back from its edge-list file.
std::vector<pegasus::NodeId> SummarizeInputTargets(int which,
                                                   const pegasus::Graph& graph,
                                                   uint64_t seed);

// The queries each summarize pass answers on the summaries it built:
// every target once as "rwr <t>" and once as "php <t>", in seeded order,
// cut into batches of kPersonalizedBatch (the last one filled up from the
// start of the order). Covering every target keeps the set of queries from
// depending on a sample.
std::vector<std::string> TargetRound(
    const std::vector<pegasus::NodeId>& targets, uint64_t seed);

// --- serve-personalized ----------------------------------------------------

// The DBLP analog at small scale (10k nodes) and its 100 scattered
// targets.
pegasus::Graph PersonalizedGraph(uint64_t seed);
std::vector<pegasus::NodeId> PersonalizedTargets(const pegasus::Graph& graph,
                                                 uint64_t seed);
// Queries per personalized batch, and how many of them are RWR (the rest
// are PHP). The 5:3 split is the RWR:PHP ratio (25:15) of the analytics-
// heavy mix in bench/bench_workload_replay.cc, the repository's one
// traffic model. The batch size is an assumption: no source gives one.
inline constexpr size_t kPersonalizedBatch = 8;
inline constexpr size_t kPersonalizedRwr = 5;
// One round of text batches: `batches` batches of kPersonalizedBatch
// queries, kPersonalizedRwr "rwr <q>" and the rest "php <q>" in seeded
// order, q drawn from the targets with Zipf(1) popularity over a seeded
// ranking.
std::vector<std::string> PersonalizedRound(
    const std::vector<pegasus::NodeId>& targets, uint64_t seed,
    size_t batches);
// The fixed precision sample: the first `count` targets in seeded order.
std::vector<pegasus::NodeId> PrecisionSample(
    const std::vector<pegasus::NodeId>& targets, uint64_t seed, size_t count);

// --- serve-sharded ---------------------------------------------------------

// The Caida analog at default scale.
pegasus::Graph ShardedGraph(uint64_t seed);
// Requests per sharded round and per batch. A round holds the read-heavy
// mix of bench/bench_workload_replay.cc exactly, as counts per 100
// requests: 55 neighbors, 10 hop, 15 degree, 8 rwr, 5 php, 4 pagerank,
// 3 clustering. The batch size is an assumption: no source gives one.
inline constexpr size_t kShardedRoundRequests = 100;
inline constexpr size_t kShardedBatch = 20;
// One round: the mix's requests with nodes uniform over V, spread evenly
// over batches of kShardedBatch, each in seeded order.
std::vector<std::string> ShardedRound(pegasus::NodeId num_nodes,
                                      uint64_t seed);

// --- shared ----------------------------------------------------------------

// Share of requests in `batches` whose (family, node, param, weighted)
// already occurred earlier in the same sequence.
double RepeatShare(const std::vector<std::vector<pegasus::QueryRequest>>& batches);

// One exact reference answer: the family ("rwr" or "php"), the query
// node and its exact top-K node ids. Set-up writes them, one per line,
// and the measuring process reads them back.
struct ExactTop {
  std::string kind;
  pegasus::NodeId node = 0;
  std::vector<pegasus::NodeId> top;
};
bool WriteExactTops(const std::string& path, const std::vector<ExactTop>& tops);
std::vector<ExactTop> ReadExactTops(const std::string& path);

bool WriteNodeList(const std::string& path,
                   const std::vector<pegasus::NodeId>& nodes);
bool ReadNodeList(const std::string& path, std::vector<pegasus::NodeId>* nodes);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
