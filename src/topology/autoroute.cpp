#include "topology/autoroute.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace kar::topo {

std::string switch_label(SwitchId id) { return "SW" + std::to_string(id); }

std::vector<std::string> bfs_core_path(const Topology& topo, NodeId src_edge,
                                       NodeId dst_edge) {
  std::vector<NodeId> parent(topo.node_count(), kInvalidNode);
  std::vector<bool> seen(topo.node_count(), false);
  std::queue<NodeId> frontier;
  seen[src_edge] = true;
  frontier.push(src_edge);
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop();
    if (cur == dst_edge) break;
    // Edge nodes other than the endpoints do not forward.
    if (cur != src_edge && topo.kind(cur) == NodeKind::kEdgeNode) continue;
    for (const LinkId link_id : topo.ports(cur)) {
      const NodeId next = topo.link(link_id).other(cur);
      if (!seen[next]) {
        seen[next] = true;
        parent[next] = cur;
        frontier.push(next);
      }
    }
  }
  if (!seen[dst_edge]) {
    throw std::logic_error("bfs_core_path: endpoints not connected");
  }
  std::vector<std::string> path;
  for (NodeId cur = parent[dst_edge]; cur != src_edge; cur = parent[cur]) {
    path.push_back(topo.name(cur));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace kar::topo
