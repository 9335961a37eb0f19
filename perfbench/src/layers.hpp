// The two metric sets a run prints: the end-to-end set (untraced runs) and
// the per-layer set (traced runs). Every workload prints the whole set;
// README.md says which workload each metric is meant to be read on.
#pragma once

#include <map>
#include <string>

#include "harness.hpp"

namespace perfbench {

/// End-to-end metrics. The rate and latency slots are filled by each
/// workload from its own operations; a tail is the workload's fixed high
/// percentile (README.md, "End-to-end metrics").
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double rate_per_s = 0.0;    ///< Operations completed per wall second.
  double op_p50_ms = 0.0;     ///< The workload's main operation.
  double op_tail_ms = 0.0;
  double write_p50_ms = 0.0;  ///< Its state-changing operation.
  double write_tail_ms = 0.0;
};

void report_end_to_end(const EndToEnd& e2e, Report& report);

/// Per-layer metrics of the traced run.
struct Layers {
  // daemon
  double daemon_parse_ns = 0.0;
  double daemon_epochs = 0.0;
  double daemon_epoch_ops_mean = 0.0;
  double daemon_epoch_ms_mean = 0.0;
  double daemon_admission_wait_ms = 0.0;
  double daemon_compactions = 0.0;
  // ctrlplane (direct replay)
  double ctrl_add_route_us = 0.0;
  double ctrl_apply_link_ms_p50 = 0.0;
  double ctrl_apply_link_ms_p99 = 0.0;
  double ctrl_apply_install_ms = 0.0;
  double ctrl_candidates_per_event = 0.0;
  double ctrl_reencoded_per_event = 0.0;
  double ctrl_spt_dirty_per_event = 0.0;
  double ctrl_spt_fallbacks = 0.0;
  double ctrl_store_mb = 0.0;
  // routing / rns
  double routing_encode_us = 0.0;
  double rns_reduce_ns = 0.0;
  double rns_wide_route_share = 0.0;
  // dataplane
  double fwd_packet_ns = 0.0;
  double fwd_batch1_ns = 0.0;
  double fwd_batch32_ns = 0.0;
  double fwd_residue_cache_hit_ratio = 0.0;
  double fwd_deflected_share = 0.0;
  // sim
  double sim_events = 0.0;
  double sim_event_ns = 0.0;
  double sim_self_ms_link_arrival = 0.0;
  double sim_self_ms_switch_process = 0.0;
  double sim_self_ms_transport_timer = 0.0;
  // transport
  double tcp_retransmit_ratio = 0.0;
  double tcp_timeouts = 0.0;
  double tcp_ooo_segments = 0.0;
  // topology
  double topo_build_ms = 0.0;
  // tracing
  double trace_overhead_pct = 0.0;
  std::map<std::string, double> span_self_ms;  ///< By bench span layer.
};

/// The bench span layers whose self time every traced run reports.
inline constexpr const char* kSpanLayers[] = {"client", "daemon", "ctrlplane",
                                              "routing", "rns", "dataplane",
                                              "sim"};

void report_layers(const Layers& layers, Report& report);

}  // namespace perfbench
