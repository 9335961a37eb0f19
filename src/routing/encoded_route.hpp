// The encoded form of a KAR route: the route ID plus the basis it was
// built from (for inspection, tests and header sizing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rns/biguint.hpp"
#include "topology/graph.hpp"

namespace kar::routing {

/// One (switch, output-port) assignment inside a route ID. The 64-bit
/// switch ID leads so the struct packs into 16 bytes: every memoised
/// encoding holds a vector of these.
struct PortAssignment {
  topo::SwitchId switch_id = 0;
  topo::NodeId node = topo::kInvalidNode;
  topo::PortIndex port = 0;
};
static_assert(sizeof(PortAssignment) == 16,
              "PortAssignment must stay padding-free");

/// A fully encoded KAR route. Produced by the Controller; consumed by edge
/// nodes (who stamp `route_id` into packet headers).
struct EncodedRoute {
  rns::BigUint route_id;
  /// Every switch participating in the route ID: the primary path first
  /// (ingress to egress order), then protection assignments.
  std::vector<PortAssignment> assignments;
  /// Number of assignments that belong to the primary path.
  std::size_t primary_count = 0;
  topo::NodeId src_edge = topo::kInvalidNode;
  topo::NodeId dst_edge = topo::kInvalidNode;
  /// Maximum bit length of any route ID over this basis (paper Eq. 9).
  std::size_t bit_length = 0;

  /// Header bytes needed to carry the route ID (rounded up).
  [[nodiscard]] std::size_t route_id_bytes() const {
    return (bit_length + 7) / 8;
  }

  /// The switch IDs in the basis, assignment order.
  [[nodiscard]] std::vector<std::uint64_t> switch_ids() const {
    std::vector<std::uint64_t> out;
    out.reserve(assignments.size());
    for (const auto& a : assignments) out.push_back(a.switch_id);
    return out;
  }

  /// The residues (output ports) in the basis, assignment order.
  [[nodiscard]] std::vector<std::uint64_t> ports() const {
    std::vector<std::uint64_t> out;
    out.reserve(assignments.size());
    for (const auto& a : assignments) out.push_back(a.port);
    return out;
  }
};

}  // namespace kar::routing
