#include "perfbench/src/checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "src/core/binary_summary_io.h"
#include "src/core/psb_format.h"

namespace perfbench {

using pegasus::Graph;
using pegasus::NodeId;
using pegasus::SummaryGraph;

namespace {

double Log2OrZero(uint64_t n) {
  return n <= 1 ? 0.0 : std::log2(static_cast<double>(n));
}

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

std::string Fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

}  // namespace

std::string CheckBudget(const std::string& bytes, const Graph& graph,
                        double ratio) {
  auto header = pegasus::psb::ParsePsbHeader(Bytes(bytes), bytes.size(),
                                             bytes.size(), "budget-check");
  if (!header) return "budget: " + header.status().ToString();
  const double s_bits = Log2OrZero(header->num_supernodes);
  const double size = 2.0 * static_cast<double>(header->num_superedges) *
                          s_bits +
                      static_cast<double>(header->num_nodes) * s_bits;
  const double budget = ratio * 2.0 *
                        static_cast<double>(graph.num_edges()) *
                        Log2OrZero(graph.num_nodes());
  if (header->num_nodes != graph.num_nodes()) {
    return "budget: header has " + std::to_string(header->num_nodes) +
           " nodes, graph has " + std::to_string(graph.num_nodes());
  }
  if (size > budget * (1.0 + 1e-12)) {
    return Fmt("budget: summary is %.1f bits, budget %.1f bits", size, budget);
  }
  return "";
}

std::string CheckSummaryFile(const std::string& bytes, const Graph& graph,
                             double ratio) {
  std::string problem = CheckBudget(bytes, graph, ratio);
  if (problem.empty()) problem = CheckPartition(bytes);
  if (problem.empty()) problem = CheckPsbValid(bytes);
  return problem;
}

std::string CheckPartition(const std::string& bytes) {
  auto decoded = pegasus::psb::DecodePsb(Bytes(bytes), bytes.size(),
                                         "partition-check",
                                         /*verify_checksums=*/false);
  if (!decoded) return "partition: " + decoded.status().ToString();
  const uint64_t n = decoded->header.num_nodes;
  const uint64_t s = decoded->header.num_supernodes;
  if (decoded->member_begin.size() != s + 1 || decoded->members.size() != n ||
      decoded->node_to_super.size() != n) {
    return "partition: array sizes disagree with the header";
  }
  std::vector<uint32_t> seen(n, 0);
  for (uint64_t a = 0; a < s; ++a) {
    const uint64_t begin = decoded->member_begin[a];
    const uint64_t end = decoded->member_begin[a + 1];
    if (begin > end || end > n) return "partition: bad member range";
    if (begin == end) {
      return "partition: supernode " + std::to_string(a) + " is empty";
    }
    for (uint64_t i = begin; i < end; ++i) {
      const NodeId u = decoded->members[i];
      if (u >= n) return "partition: member id out of range";
      if (++seen[u] > 1) {
        return "partition: node " + std::to_string(u) +
               " lies in two supernodes";
      }
      if (decoded->node_to_super[u] != a) {
        return "partition: node " + std::to_string(u) +
               " is listed under a supernode node_to_super disagrees with";
      }
    }
  }
  for (uint64_t u = 0; u < n; ++u) {
    if (seen[u] != 1) {
      return "partition: node " + std::to_string(u) + " is in no supernode";
    }
  }
  return "";
}

std::string CheckPsbValid(const std::string& bytes) {
  pegasus::Status s =
      pegasus::ValidatePsb(Bytes(bytes), bytes.size(), "psb-check");
  return s ? "" : "psb: " + s.ToString();
}

std::string CheckSameSummary(const SummaryGraph& a, const SummaryGraph& b) {
  if (a.num_nodes() != b.num_nodes() ||
      a.num_supernodes() != b.num_supernodes() ||
      a.num_superedges() != b.num_superedges()) {
    return "round trip: counts differ";
  }
  // Map each supernode to the smallest member id: a representative both
  // summaries agree on whatever ids they use internally.
  auto rep = [](const SummaryGraph& g) {
    std::vector<NodeId> out(g.id_bound(), std::numeric_limits<NodeId>::max());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      NodeId& r = out[g.supernode_of(u)];
      r = std::min(r, u);
    }
    return out;
  };
  const std::vector<NodeId> ra = rep(a);
  const std::vector<NodeId> rb = rep(b);
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    if (ra[a.supernode_of(u)] != rb[b.supernode_of(u)]) {
      return "round trip: node " + std::to_string(u) +
             " changed supernode";
    }
  }
  auto edges = [](const SummaryGraph& g, const std::vector<NodeId>& r) {
    std::set<std::tuple<NodeId, NodeId, uint32_t>> out;
    for (pegasus::SupernodeId x : g.ActiveSupernodes()) {
      for (const auto& e : g.CanonicalSuperedges(x)) {
        NodeId p = r[x], q = r[e.neighbor];
        if (p > q) std::swap(p, q);
        out.insert({p, q, e.weight});
      }
    }
    return out;
  };
  if (edges(a, ra) != edges(b, rb)) return "round trip: superedges differ";
  return "";
}

double BruteForcePersonalizedError(const Graph& graph,
                                   const SummaryGraph& summary,
                                   const std::vector<NodeId>& targets,
                                   double alpha) {
  const NodeId n = graph.num_nodes();
  constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> dist(n, kInf);
  std::deque<NodeId> queue;
  for (NodeId t : targets) {
    if (dist[t] != 0) {
      dist[t] = 0;
      queue.push_back(t);
    }
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : graph.neighbors(u)) {
      if (dist[v] == kInf) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  uint32_t far = 0;
  for (uint32_t d : dist) {
    if (d != kInf) far = std::max(far, d);
  }
  std::vector<double> pi(n);
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t d = dist[u] == kInf ? far + 1 : dist[u];
    pi[u] = std::pow(alpha, -static_cast<double>(d));
  }
  double ordered = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) ordered += pi[u] * pi[v];
    }
  }
  const double z = ordered / (static_cast<double>(n) * (n - 1.0));
  double error = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) continue;
      const bool real = graph.HasEdge(u, v);
      const bool rebuilt = summary.HasSuperedge(summary.supernode_of(u),
                                                summary.supernode_of(v));
      if (real != rebuilt) error += pi[u] * pi[v] / z;
    }
  }
  return error;
}

std::string CheckRwrScores(const std::vector<double>& scores, NodeId q,
                           double restart) {
  if (q >= scores.size()) return "rwr: query node outside the score vector";
  double sum = 0.0;
  for (size_t v = 0; v < scores.size(); ++v) {
    if (!(scores[v] >= 0.0)) {
      return "rwr: score of node " + std::to_string(v) + " is negative";
    }
    sum += scores[v];
  }
  if (!(scores[q] >= restart)) {
    return Fmt("rwr: score[q] = %.17g below the restart probability %g",
               scores[q], restart);
  }
  if (sum > 1.0 + 1e-9) return Fmt("rwr: scores sum to %.17g > 1", sum);
  return "";
}

std::string CheckPhpScores(const std::vector<double>& scores, NodeId q) {
  if (q >= scores.size()) return "php: query node outside the score vector";
  if (scores[q] != 1.0) return Fmt("php: score[q] = %.17g, not 1", scores[q]);
  for (size_t v = 0; v < scores.size(); ++v) {
    if (!(scores[v] >= 0.0 && scores[v] <= 1.0)) {
      return "php: score of node " + std::to_string(v) + " outside [0, 1]";
    }
  }
  return "";
}

std::string CheckHops(const std::vector<uint32_t>& hops, NodeId q) {
  if (q >= hops.size()) return "hop: query node outside the hop vector";
  if (hops[q] != 0) return "hop: hop[q] = " + std::to_string(hops[q]);
  return "";
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

std::string CheckTopKLine(const std::string& line,
                          const std::vector<double>& scores, size_t top) {
  const size_t colon = line.find(':');
  if (colon == std::string::npos) return "format: no ':' in '" + line + "'";
  std::istringstream in(line.substr(colon + 1));
  std::string token;
  std::vector<NodeId> ids;
  std::vector<char> listed(scores.size(), 0);
  double last = std::numeric_limits<double>::infinity();
  while (in >> token) {
    const size_t open = token.find('(');
    if (open == std::string::npos || token.back() != ')') {
      return "format: bad entry '" + token + "'";
    }
    const unsigned long id = std::strtoul(token.substr(0, open).c_str(),
                                          nullptr, 10);
    if (id >= scores.size()) return "format: id out of range in '" + line + "'";
    if (listed[id]) return "format: id listed twice in '" + line + "'";
    listed[id] = 1;
    ids.push_back(static_cast<NodeId>(id));
    char expect[40];
    std::snprintf(expect, sizeof(expect), "%.6g", scores[id]);
    if (token.substr(open + 1, token.size() - open - 2) != expect) {
      return "format: entry '" + token + "' but score is " + expect;
    }
    if (scores[id] > last) return "format: scores increase in '" + line + "'";
    last = scores[id];
  }
  if (ids.size() != std::min(top, scores.size())) {
    return "format: " + std::to_string(ids.size()) + " entries listed";
  }
  for (size_t v = 0; v < scores.size(); ++v) {
    if (!listed[v] && scores[v] > last) {
      return "format: node " + std::to_string(v) +
             " outscores the last listed entry";
    }
  }
  return "";
}

std::string CheckOwnerMerge(
    const std::vector<double>& merged,
    const std::vector<const std::vector<double>*>& shard_answers,
    const std::vector<uint32_t>& node_shard) {
  if (merged.size() != node_shard.size()) return "merge: wrong answer size";
  for (size_t v = 0; v < merged.size(); ++v) {
    const uint32_t s = node_shard[v];
    if (s >= shard_answers.size() || shard_answers[s]->size() != merged.size()) {
      return "merge: owner answer missing";
    }
    if (std::bit_cast<uint64_t>(merged[v]) !=
        std::bit_cast<uint64_t>((*shard_answers[s])[v])) {
      return "merge: score of node " + std::to_string(v) +
             " differs from its owning shard " + std::to_string(s);
    }
  }
  return "";
}

std::string CheckSameResult(const pegasus::QueryResult& got,
                            const pegasus::QueryResult& owner) {
  if (got.kind != owner.kind) return "route: answer of another family";
  if (got.neighbors != owner.neighbors) {
    return "route: neighbors differ from the owning shard's answer";
  }
  if (got.hops != owner.hops) {
    return "route: hops differ from the owning shard's answer";
  }
  return "";
}

std::vector<NodeId> TopK(const std::vector<double>& scores, size_t k) {
  std::vector<NodeId> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(k),
                    order.end(), [&](NodeId a, NodeId b) {
                      return scores[a] != scores[b] ? scores[a] > scores[b]
                                                    : a < b;
                    });
  order.resize(k);
  return order;
}

double PrecisionOf(const std::vector<NodeId>& truth,
                   const std::vector<NodeId>& approx, size_t k) {
  std::set<NodeId> t(truth.begin(), truth.end());
  size_t common = 0;
  for (NodeId v : approx) common += t.count(v);
  return k == 0 ? 1.0 : static_cast<double>(common) / static_cast<double>(k);
}

}  // namespace perfbench
