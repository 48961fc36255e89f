// Output checks. Each check recomputes what it needs independently of
// the code under measurement (or tests a property every correct answer
// has) and returns an empty string when it holds, or a message naming the
// violation. selftest.cc feeds every check a deliberately wrong input and
// requires it to fail.

#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/summary_graph.h"
#include "src/graph/graph.h"
#include "src/query/query_engine.h"

namespace perfbench {

// Size(Ḡ) = 2|P|·log2|S| + |V|·log2|S|, from the PSB1 header counts of the
// file image `bytes`, must not exceed ratio · 2|E|·log2|V| of the input.
std::string CheckBudget(const std::string& bytes, const pegasus::Graph& graph,
                        double ratio);

// CheckBudget, CheckPartition and CheckPsbValid in that order: the first
// problem, or an empty string.
std::string CheckSummaryFile(const std::string& bytes,
                             const pegasus::Graph& graph, double ratio);

// Every node 0..|V|-1 lies in exactly one supernode's member list, and
// node_to_super agrees with those lists.
std::string CheckPartition(const std::string& bytes);

// ValidatePsb accepts the image.
std::string CheckPsbValid(const std::string& bytes);

// Two summaries describe the same partition (same member sets) and the
// same superedges with the same weights.
std::string CheckSameSummary(const pegasus::SummaryGraph& a,
                             const pegasus::SummaryGraph& b);

// Eq. (1) evaluated pair by pair over all |V|² entries: distances to the
// targets by BFS, π_u = α^-D(u,T), Z = mean π_uπ_v over ordered pairs
// u ≠ v, W_uv = π_uπ_v / Z, Â_uv = 1 iff a superedge joins the two
// supernodes. O(|V|²): small graphs only.
double BruteForcePersonalizedError(const pegasus::Graph& graph,
                                   const pegasus::SummaryGraph& summary,
                                   const std::vector<pegasus::NodeId>& targets,
                                   double alpha);

// RWR: scores non-negative, score[q] >= restart, sum <= 1 + 1e-9.
std::string CheckRwrScores(const std::vector<double>& scores,
                           pegasus::NodeId q, double restart);
// PHP: score[q] == 1 and every score in [0, 1].
std::string CheckPhpScores(const std::vector<double>& scores,
                           pegasus::NodeId q);
// Hop: hop[q] == 0.
std::string CheckHops(const std::vector<uint32_t>& hops, pegasus::NodeId q);

// L1 distance between two score vectors (infinity on a size mismatch).
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);

// One FormatAnswer line for a scored family ("kind(q): id(score) ...")
// against the scores it was formatted from: the listed ids are distinct,
// each printed score is scores[id] at %.6g, the listed scores do not
// increase, no unlisted node scores above the last listed one, and
// min(top, |V|) nodes are listed.
std::string CheckTopKLine(const std::string& line,
                          const std::vector<double>& scores, size_t top);

// A merged scored answer from the coordinator against the owners'
// in-process answers: merged[v] must equal (bit for bit)
// shard_answers[node_shard[v]][v].
std::string CheckOwnerMerge(const std::vector<double>& merged,
                            const std::vector<const std::vector<double>*>&
                                shard_answers,
                            const std::vector<uint32_t>& node_shard);

// A node-local answer (neighbors / hop) equals the owning shard's.
std::string CheckSameResult(const pegasus::QueryResult& got,
                            const pegasus::QueryResult& owner);

// The k highest-scoring node ids, ties broken by ascending id, in rank
// order.
std::vector<pegasus::NodeId> TopK(const std::vector<double>& scores, size_t k);
// |a ∩ b| / k.
double PrecisionOf(const std::vector<pegasus::NodeId>& truth,
                   const std::vector<pegasus::NodeId>& approx, size_t k);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
