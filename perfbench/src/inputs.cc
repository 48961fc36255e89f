#include "perfbench/src/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "src/util/rng.h"

namespace perfbench {

using pegasus::DatasetId;
using pegasus::DatasetScale;
using pegasus::Graph;
using pegasus::NodeId;
using pegasus::Rng;
using pegasus::SplitMix64;

namespace {

// Distinct streams per use of the workload seed.
uint64_t Stream(uint64_t seed, uint64_t salt) {
  return SplitMix64(seed ^ SplitMix64(salt));
}

std::vector<NodeId> Sample(NodeId bound, size_t count, uint64_t seed) {
  Rng rng(seed);
  auto raw = rng.SampleDistinct(bound, std::min<uint64_t>(count, bound));
  std::vector<NodeId> out(raw.begin(), raw.end());
  std::sort(out.begin(), out.end());
  return out;
}

// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Rng& rng) const {
    const double u = rng.UniformDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// The read-heavy mix as counts per kShardedRoundRequests requests.
struct Family {
  const char* name;
  size_t count;
  bool node_rooted;
};
constexpr Family kReadHeavy[] = {
    {"neighbors", 55, true}, {"hop", 10, true},     {"degree", 15, false},
    {"rwr", 8, true},        {"php", 5, true},      {"pagerank", 4, false},
    {"clustering", 3, false}};
constexpr size_t MixTotal() {
  size_t total = 0;
  for (const Family& f : kReadHeavy) total += f.count;
  return total;
}
static_assert(MixTotal() == kShardedRoundRequests);
static_assert(kShardedRoundRequests % kShardedBatch == 0);

}  // namespace

const char* SummarizeInputName(int which) {
  return which == 0 ? "ego" : "scattered";
}

Graph SummarizeInputGraph(int which, uint64_t seed, DatasetScale scale) {
  if (which == 0) {
    return pegasus::MakeDataset(DatasetId::kCaida,
                                scale == DatasetScale::kTiny
                                    ? DatasetScale::kTiny
                                    : DatasetScale::kSmall,
                                seed)
        .graph;
  }
  return pegasus::MakeDataset(DatasetId::kLastFmAsia, scale, seed).graph;
}

std::vector<NodeId> SummarizeInputTargets(int which, const Graph& graph,
                                          uint64_t seed) {
  if (which == 0) {
    NodeId hub = 0;
    for (NodeId u = 1; u < graph.num_nodes(); ++u) {
      if (graph.degree(u) > graph.degree(hub)) hub = u;
    }
    std::vector<NodeId> ego(graph.neighbors(hub).begin(),
                            graph.neighbors(hub).end());
    ego.push_back(hub);
    std::sort(ego.begin(), ego.end());
    return ego;
  }
  return Sample(graph.num_nodes(), 100, Stream(seed, 0x5ca7));
}

std::vector<std::string> TargetRound(const std::vector<NodeId>& targets,
                                     uint64_t seed) {
  Rng rng(Stream(seed, 0x70a3));
  std::vector<std::string> lines;
  for (NodeId t : targets) {
    lines.push_back("rwr " + std::to_string(t));
    lines.push_back("php " + std::to_string(t));
  }
  rng.Shuffle(lines);
  const size_t batches =
      (lines.size() + kPersonalizedBatch - 1) / kPersonalizedBatch;
  std::vector<std::string> out(batches);
  for (size_t i = 0; i < batches * kPersonalizedBatch; ++i) {
    out[i / kPersonalizedBatch] += lines[i % lines.size()] + "\n";
  }
  return out;
}

Graph PersonalizedGraph(uint64_t seed) {
  return pegasus::MakeDataset(DatasetId::kDblp, DatasetScale::kSmall, seed)
      .graph;
}

std::vector<NodeId> PersonalizedTargets(const Graph& graph, uint64_t seed) {
  return Sample(graph.num_nodes(), 100, Stream(seed, 0x7a12));
}

std::vector<std::string> PersonalizedRound(const std::vector<NodeId>& targets,
                                           uint64_t seed, size_t batches) {
  Rng rng(Stream(seed, 0x2f1f));
  std::vector<NodeId> ranked = targets;  // popularity rank -> node
  rng.Shuffle(ranked);
  const Zipf zipf(ranked.size(), 1.0);
  std::vector<std::string> out;
  for (size_t b = 0; b < batches; ++b) {
    std::vector<std::string> lines;
    for (size_t i = 0; i < kPersonalizedBatch; ++i) {
      const NodeId q = ranked[zipf.Sample(rng)];
      lines.push_back((i < kPersonalizedRwr ? "rwr " : "php ") +
                      std::to_string(q));
    }
    rng.Shuffle(lines);
    std::string text;
    for (const std::string& line : lines) text += line + "\n";
    out.push_back(std::move(text));
  }
  return out;
}

std::vector<NodeId> PrecisionSample(const std::vector<NodeId>& targets,
                                    uint64_t seed, size_t count) {
  Rng rng(Stream(seed, 0x9e11));
  std::vector<NodeId> order = targets;
  rng.Shuffle(order);
  order.resize(std::min(count, order.size()));
  return order;
}

Graph ShardedGraph(uint64_t seed) {
  return pegasus::MakeDataset(DatasetId::kCaida, DatasetScale::kDefault, seed)
      .graph;
}

std::vector<std::string> ShardedRound(NodeId num_nodes, uint64_t seed) {
  // The mix's requests in family order, dealt round robin to the batches:
  // every batch gets as even a share of each family as its size allows
  // (7 scored requests in each), so no seed makes a batch much heavier
  // than another.
  Rng rng(Stream(seed, 0x54a2));
  constexpr size_t kBatches = kShardedRoundRequests / kShardedBatch;
  std::vector<std::vector<std::string>> batches(kBatches);
  size_t next = 0;
  for (const Family& f : kReadHeavy) {
    for (size_t i = 0; i < f.count; ++i, ++next) {
      batches[next % kBatches].push_back(
          f.node_rooted
              ? std::string(f.name) + " " +
                    std::to_string(rng.Uniform(num_nodes))
              : std::string(f.name));
    }
  }
  std::vector<std::string> out;
  for (std::vector<std::string>& lines : batches) {
    rng.Shuffle(lines);
    std::string text;
    for (const std::string& line : lines) text += line + "\n";
    out.push_back(std::move(text));
  }
  return out;
}

double RepeatShare(
    const std::vector<std::vector<pegasus::QueryRequest>>& batches) {
  std::set<std::tuple<int, NodeId, double, bool>> seen;
  size_t total = 0, repeats = 0;
  for (const auto& batch : batches) {
    for (const pegasus::QueryRequest& r : batch) {
      ++total;
      if (!seen.insert({static_cast<int>(r.kind), r.node, r.param, r.weighted})
               .second) {
        ++repeats;
      }
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(repeats) / static_cast<double>(total);
}

bool WriteExactTops(const std::string& path,
                    const std::vector<ExactTop>& tops) {
  std::ofstream out(path, std::ios::trunc);
  for (const ExactTop& t : tops) {
    out << t.kind << " " << t.node;
    for (NodeId v : t.top) out << " " << v;
    out << "\n";
  }
  return static_cast<bool>(out);
}

std::vector<ExactTop> ReadExactTops(const std::string& path) {
  std::vector<ExactTop> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    ExactTop t;
    uint64_t v = 0;
    if (!(fields >> t.kind >> v)) continue;
    t.node = static_cast<NodeId>(v);
    while (fields >> v) t.top.push_back(static_cast<NodeId>(v));
    out.push_back(std::move(t));
  }
  return out;
}

bool WriteNodeList(const std::string& path, const std::vector<NodeId>& nodes) {
  std::ofstream out(path, std::ios::trunc);
  for (NodeId v : nodes) out << v << "\n";
  return static_cast<bool>(out);
}

bool ReadNodeList(const std::string& path, std::vector<NodeId>* nodes) {
  std::ifstream in(path);
  if (!in) return false;
  nodes->clear();
  uint64_t v = 0;
  while (in >> v) nodes->push_back(static_cast<NodeId>(v));
  return in.eof();
}

}  // namespace perfbench
