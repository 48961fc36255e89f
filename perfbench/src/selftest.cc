// Self-test of the output checks: every check must accept a correct tiny
// input and reject a deliberately wrong one (one perturbed score, a
// dropped neighbor, a summary over budget, a PSB1 file with a flipped
// byte, a merged sharded answer taken from the wrong shard, ...). A check
// that cannot fail proves nothing about the runs that pass it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/checks.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/workloads.h"
#include "src/core/binary_summary_io.h"
#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/eval/error_eval.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"
#include "src/serve/text_serving.h"
#include "src/shard/shard_build.h"

namespace perfbench {

using pegasus::Graph;
using pegasus::NodeId;
using pegasus::SummaryGraph;

namespace {

class Judge {
 public:
  // `on_good` must be empty (the check accepts a correct input) and
  // `on_bad` non-empty (it rejects the wrong one).
  void Expect(const char* check, const char* wrong_input,
              const std::string& on_good, const std::string& on_bad) {
    if (!on_good.empty()) {
      std::printf("selftest: %-18s REJECTS A CORRECT INPUT: %s\n", check,
                  on_good.c_str());
      ++misjudged_;
    }
    if (on_bad.empty()) {
      std::printf("selftest: %-18s ACCEPTS %s\n", check, wrong_input);
      ++misjudged_;
    } else {
      std::printf("selftest: %-18s rejects %s: %s\n", check, wrong_input,
                  on_bad.c_str());
    }
  }
  int misjudged() const { return misjudged_; }

 private:
  int misjudged_ = 0;
};

std::string WritePsb(const pegasus::SummaryLayout& layout,
                     const std::string& path) {
  std::string bytes;
  if (!pegasus::SaveSummaryBinary(layout, path) || !ReadFile(path, &bytes)) {
    return "";
  }
  return bytes;
}

std::string Nonzero(bool wrong, const char* what) {
  return wrong ? what : "";
}

}  // namespace

int SelfTest(const std::string& dir) {
  Judge judge;
  const uint64_t seed = 1;
  const Graph graph =
      SummarizeInputGraph(0, seed, pegasus::DatasetScale::kTiny);
  const std::vector<NodeId> targets = SummarizeInputTargets(0, graph, seed);
  pegasus::PegasusConfig config;
  config.seed = seed;
  auto result = pegasus::SummarizeGraphToRatio(graph, targets, kRatio, config);
  if (!result) {
    std::printf("selftest: cannot summarize: %s\n",
                result.status().ToString().c_str());
    return 1;
  }
  const SummaryGraph& summary = result->summary;
  const pegasus::SummaryView view(summary);
  const std::string path = dir + "/selftest.psb";
  const std::string good = WritePsb(view.layout(), path);

  // A summary over budget: the lossless identity summary.
  const pegasus::SummaryView identity(SummaryGraph::Identity(graph));
  const std::string over = WritePsb(identity.layout(), dir + "/over.psb");
  judge.Expect("budget", "a summary over budget",
               CheckBudget(good, graph, kRatio),
               CheckBudget(over, graph, kRatio));

  // A PSB1 file with a flipped byte (in the members section).
  std::string flipped = good;
  auto decoded = pegasus::psb::DecodePsb(
      reinterpret_cast<const uint8_t*>(good.data()), good.size(), path, true);
  if (!decoded) {
    std::printf("selftest: cannot decode %s\n", path.c_str());
    return 1;
  }
  flipped[decoded->header.sections[2].offset] ^= 0x01;
  judge.Expect("psb-valid", "a PSB1 file with a flipped byte",
               CheckPsbValid(good), CheckPsbValid(flipped));
  judge.Expect("psb-identical", "a PSB1 file with a flipped byte",
               Nonzero(good != good, "differs"),
               Nonzero(flipped != good, "bytes differ from the first pass"));

  // A well-formed file whose partition lists one node twice.
  pegasus::psb::PsbDecoded doubled = *decoded;
  doubled.members[1] = doubled.members[0];
  const std::string twice = WritePsb(doubled.layout(), dir + "/twice.psb");
  judge.Expect("partition", "a node in two supernodes", CheckPartition(good),
               CheckPartition(twice));

  // Round trip against a summary that lost a superedge.
  SummaryGraph dropped = summary;
  for (pegasus::SupernodeId a : dropped.ActiveSupernodes()) {
    const auto edges = dropped.CanonicalSuperedges(a);
    if (!edges.empty()) {
      (void)dropped.EraseSuperedge(a, edges.front().neighbor);
      break;
    }
  }
  auto loaded = pegasus::LoadSummaryBinary(path);
  judge.Expect("round-trip", "a summary missing a superedge",
               loaded ? CheckSameSummary(summary, *loaded) : "cannot load",
               CheckSameSummary(dropped, summary));

  // Eq. (1): library vs brute force, and brute force of another summary.
  const auto weights =
      pegasus::PersonalWeights::Compute(graph, targets, config.alpha);
  const double library = pegasus::PersonalizedError(graph, summary, weights);
  auto agree = [&](double brute) {
    return Nonzero(std::fabs(library - brute) > 1e-9 * std::max(1.0, brute),
                   "personalized error disagrees");
  };
  judge.Expect(
      "brute-force-error", "the error of a summary missing a superedge",
      agree(BruteForcePersonalizedError(graph, summary, targets, config.alpha)),
      agree(BruteForcePersonalizedError(graph, dropped, targets,
                                        config.alpha)));

  // Score properties, each against one perturbed score.
  const NodeId q = targets.front();
  const std::vector<double> rwr = pegasus::SummaryRwrScores(view, q);
  std::vector<double> rwr_bad = rwr;
  rwr_bad[(q + 1) % rwr_bad.size()] += 0.5;
  judge.Expect("rwr-properties", "one perturbed score",
               CheckRwrScores(rwr, q, 0.05), CheckRwrScores(rwr_bad, q, 0.05));
  const std::vector<double> php = pegasus::SummaryPhpScores(view, q);
  std::vector<double> php_bad = php;
  php_bad[q] = 0.999;
  judge.Expect("php-properties", "one perturbed score", CheckPhpScores(php, q),
               CheckPhpScores(php_bad, q));
  std::vector<uint32_t> hops = pegasus::FastSummaryHopDistances(view, q);
  std::vector<uint32_t> hops_bad = hops;
  hops_bad[q] = 1;
  judge.Expect("hop-origin", "a hop vector with hop[q] = 1", CheckHops(hops, q),
               CheckHops(hops_bad, q));

  // Identity summary vs exact power iteration, L1 <= 1e-9.
  pegasus::IterativeQueryOptions opts;
  opts.max_iterations = 2000;
  const std::vector<double> exact = pegasus::ExactRwrScores(graph, q, 0.05, opts);
  std::vector<double> anchored =
      pegasus::SummaryRwrScores(identity, q, 0.05, true, opts);
  auto within = [&](const std::vector<double>& scores) {
    return Nonzero(!(L1Distance(scores, exact) <= 1e-9), "L1 above 1e-9");
  };
  std::vector<double> anchored_bad = anchored;
  anchored_bad[q] += 1e-6;
  judge.Expect("identity-anchor", "one perturbed score", within(anchored),
               within(anchored_bad));

  // The formatted top-K line against the scores it claims to rank.
  pegasus::QueryRequest request;
  request.kind = pegasus::QueryKind::kRwr;
  request.node = q;
  pegasus::QueryResult answer;
  answer.kind = request.kind;
  answer.scores = rwr;
  std::string line = pegasus::serve::FormatAnswer(request, answer, kTop);
  line.pop_back();  // the newline
  std::vector<double> listed_bad = rwr;
  listed_bad[TopK(rwr, kTop)[3]] *= 0.5;
  judge.Expect("top-k-format", "one perturbed score",
               CheckTopKLine(line, rwr, kTop),
               CheckTopKLine(line, listed_bad, kTop));

  // Sharded: two shards, merged answers vs the owners' answers.
  const pegasus::Partition partition = pegasus::shard::RunPartitioner(
      graph, 2, pegasus::shard::PartitionerKind::kLouvain, seed);
  auto shards = pegasus::shard::BuildShardSummaries(
      graph, partition, kRatio * graph.SizeInBits(), config);
  if (!shards) {
    std::printf("selftest: cannot build shards\n");
    return 1;
  }
  const pegasus::SummaryView view0((*shards)[0]);
  const pegasus::SummaryView view1((*shards)[1]);
  const std::vector<double> part0 = pegasus::SummaryRwrScores(view0, q);
  const std::vector<double> part1 = pegasus::SummaryRwrScores(view1, q);
  const std::vector<uint32_t>& owner = partition.part_of;
  std::vector<double> merged(graph.num_nodes()), wrong;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    merged[v] = owner[v] == 0 ? part0[v] : part1[v];
  }
  wrong = merged;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const double other = owner[v] == 0 ? part1[v] : part0[v];
    if (other != merged[v]) {
      wrong[v] = other;
      break;
    }
  }
  judge.Expect("owner-merge", "a score taken from the wrong shard",
               CheckOwnerMerge(merged, {&part0, &part1}, owner),
               CheckOwnerMerge(wrong, {&part0, &part1}, owner));

  pegasus::QueryResult neighbors;
  neighbors.kind = pegasus::QueryKind::kNeighbors;
  neighbors.neighbors = pegasus::SummaryNeighbors(view0, q);
  pegasus::QueryResult short_answer = neighbors;
  if (!short_answer.neighbors.empty()) short_answer.neighbors.pop_back();
  judge.Expect("owner-route", "a dropped neighbor",
               CheckSameResult(neighbors, neighbors),
               CheckSameResult(short_answer, neighbors));

  return judge.misjudged();
}

}  // namespace perfbench
