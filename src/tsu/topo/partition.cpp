#include "tsu/topo/partition.hpp"

#include <algorithm>
#include <unordered_map>

namespace tsu::topo {

namespace {

// splitmix64 finalizer: cheap, stateless, well-mixed over dense NodeIds.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// kBlock's contiguous ranges; also the fallback for ids a greedy table
// does not cover.
std::size_t block_shard(NodeId node, std::size_t shards,
                        std::size_t node_count) noexcept {
  const std::size_t count = node_count == 0 ? 1 : node_count;
  const std::size_t clamped = std::min<std::size_t>(node, count - 1);
  return std::min(clamped * shards / count, shards - 1);
}

}  // namespace

const char* to_string(PartitionScheme scheme) noexcept {
  switch (scheme) {
    case PartitionScheme::kHash: return "hash";
    case PartitionScheme::kBlock: return "block";
    case PartitionScheme::kGreedyCut: return "greedy_cut";
  }
  return "?";
}

std::optional<PartitionScheme> partition_scheme_from_string(
    std::string_view name) noexcept {
  if (name == "hash") return PartitionScheme::kHash;
  if (name == "block") return PartitionScheme::kBlock;
  if (name == "greedy_cut") return PartitionScheme::kGreedyCut;
  return std::nullopt;
}

SwitchPartition::SwitchPartition(std::size_t shards, PartitionScheme scheme,
                                 std::size_t node_count)
    : shards_(shards == 0 ? 1 : shards),
      scheme_(scheme),
      node_count_(node_count) {}

std::size_t SwitchPartition::shard_of(NodeId node) const noexcept {
  if (shards_ <= 1) return 0;
  if (scheme_ == PartitionScheme::kGreedyCut && node < table_.size())
    return table_[node];
  if (scheme_ == PartitionScheme::kHash)
    return static_cast<std::size_t>(splitmix64(node) % shards_);
  // kBlock (and the greedy fallback for ids beyond the table): equal
  // contiguous ranges over [0, node_count_).
  return block_shard(node, shards_, node_count_);
}

std::size_t SwitchPartition::cut_weight(
    const std::vector<SwitchAffinity>& edges) const {
  std::size_t cut = 0;
  for (const SwitchAffinity& edge : edges)
    if (shard_of(edge.a) != shard_of(edge.b)) cut += edge.weight;
  return cut;
}

SwitchPartition make_greedy_cut_partition(
    std::size_t shards, std::size_t node_count,
    const std::vector<SwitchAffinity>& edges) {
  SwitchPartition partition(shards, PartitionScheme::kGreedyCut, node_count);
  if (partition.shards() <= 1 || node_count == 0) return partition;

  const std::size_t count = partition.shards();
  // Balanced capacity: the cut is minimized subject to even switch
  // counts, so no shard's controller carries most of the switches.
  const std::size_t capacity = (node_count + count - 1) / count;

  // Adjacency of the affinity graph (merged parallel edges).
  std::vector<std::vector<std::pair<NodeId, std::size_t>>> adjacent(
      node_count);
  std::vector<std::size_t> degree(node_count, 0);
  for (const SwitchAffinity& edge : edges) {
    if (edge.a >= node_count || edge.b >= node_count || edge.a == edge.b)
      continue;
    adjacent[edge.a].emplace_back(edge.b, edge.weight);
    adjacent[edge.b].emplace_back(edge.a, edge.weight);
    degree[edge.a] += edge.weight;
    degree[edge.b] += edge.weight;
  }

  // Heaviest switches place first (their edges are the expensive ones to
  // cut); NodeId breaks ties so the result is deterministic.
  std::vector<NodeId> order(node_count);
  for (NodeId v = 0; v < node_count; ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (degree[a] != degree[b]) return degree[a] > degree[b];
    return a < b;
  });

  constexpr std::uint32_t kUnassigned = ~0u;
  std::vector<std::uint32_t> table(node_count, kUnassigned);
  std::vector<std::size_t> load(count, 0);
  std::vector<std::size_t> attraction(count, 0);
  for (const NodeId v : order) {
    // Attraction: affinity weight towards already-placed neighbours.
    std::fill(attraction.begin(), attraction.end(), 0);
    for (const auto& [peer, weight] : adjacent[v])
      if (table[peer] != kUnassigned) attraction[table[peer]] += weight;
    // Best open shard by (attraction, then load, then index) - isolated
    // switches land on the least-loaded shard, keeping the balance tight.
    std::size_t best = count;
    for (std::size_t s = 0; s < count; ++s) {
      if (load[s] >= capacity) continue;
      if (best == count || attraction[s] > attraction[best] ||
          (attraction[s] == attraction[best] && load[s] < load[best]))
        best = s;
    }
    if (best == count) best = block_shard(v, count, node_count);  // all full
    table[v] = static_cast<std::uint32_t>(best);
    if (best < count) ++load[best];
  }

  partition.table_ = std::move(table);
  return partition;
}

}  // namespace tsu::topo
