#include "layers.hpp"

namespace perfbench {

void report_end_to_end(const EndToEnd& e2e, Report& report) {
  report.metric("setup_s", e2e.setup_s, "s");
  report.metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report.metric("rate_per_s", e2e.rate_per_s, "1/s");
  report.metric("op_p50_ms", e2e.op_p50_ms, "ms");
  report.metric("op_tail_ms", e2e.op_tail_ms, "ms");
  report.metric("write_p50_ms", e2e.write_p50_ms, "ms");
  report.metric("write_tail_ms", e2e.write_tail_ms, "ms");
}

void report_layers(const Layers& l, Report& report) {
  report.metric("daemon.parse_ns", l.daemon_parse_ns, "ns");
  report.metric("daemon.epochs", l.daemon_epochs, "count");
  report.metric("daemon.epoch_ops_mean", l.daemon_epoch_ops_mean, "count");
  report.metric("daemon.epoch_ms_mean", l.daemon_epoch_ms_mean, "ms");
  report.metric("daemon.admission_wait_ms", l.daemon_admission_wait_ms, "ms");
  report.metric("daemon.compactions", l.daemon_compactions, "count");
  report.metric("ctrlplane.add_route_us", l.ctrl_add_route_us, "us");
  report.metric("ctrlplane.apply_link_ms_p50", l.ctrl_apply_link_ms_p50, "ms");
  report.metric("ctrlplane.apply_link_ms_p99", l.ctrl_apply_link_ms_p99, "ms");
  report.metric("ctrlplane.apply_install_ms", l.ctrl_apply_install_ms, "ms");
  report.metric("ctrlplane.candidates_per_event", l.ctrl_candidates_per_event,
                "count");
  report.metric("ctrlplane.reencoded_per_event", l.ctrl_reencoded_per_event,
                "count");
  report.metric("ctrlplane.spt_dirty_per_event", l.ctrl_spt_dirty_per_event,
                "count");
  report.metric("ctrlplane.spt_fallbacks", l.ctrl_spt_fallbacks, "count");
  report.metric("ctrlplane.store_mb", l.ctrl_store_mb, "MB");
  report.metric("routing.encode_us", l.routing_encode_us, "us");
  report.metric("rns.reduce_ns", l.rns_reduce_ns, "ns");
  report.metric("rns.wide_route_share", l.rns_wide_route_share, "ratio");
  report.metric("fwd.packet_ns", l.fwd_packet_ns, "ns");
  report.metric("fwd.batch1_ns", l.fwd_batch1_ns, "ns");
  report.metric("fwd.batch32_ns", l.fwd_batch32_ns, "ns");
  report.metric("fwd.residue_cache_hit_ratio", l.fwd_residue_cache_hit_ratio,
                "ratio");
  report.metric("fwd.deflected_share", l.fwd_deflected_share, "ratio");
  report.metric("sim.events", l.sim_events, "count");
  report.metric("sim.event_ns", l.sim_event_ns, "ns");
  report.metric("sim.self_ms.link_arrival", l.sim_self_ms_link_arrival, "ms");
  report.metric("sim.self_ms.switch_process", l.sim_self_ms_switch_process,
                "ms");
  report.metric("sim.self_ms.transport_timer", l.sim_self_ms_transport_timer,
                "ms");
  report.metric("tcp.retransmit_ratio", l.tcp_retransmit_ratio, "ratio");
  report.metric("tcp.timeouts", l.tcp_timeouts, "count");
  report.metric("tcp.ooo_segments", l.tcp_ooo_segments, "count");
  report.metric("topo.build_ms", l.topo_build_ms, "ms");
  report.metric("trace.overhead_pct", l.trace_overhead_pct, "%");
  for (const char* layer : kSpanLayers) {
    const auto it = l.span_self_ms.find(layer);
    report.metric(std::string("self_ms.") + layer,
                  it == l.span_self_ms.end() ? 0.0 : it->second, "ms");
  }
}

}  // namespace perfbench
