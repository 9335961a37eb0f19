// The three benchmark workloads (README.md says what each one loads).
#pragma once

#include "harness.hpp"

namespace perfbench {

/// kard-serve: queries beside pipelined installs and withdrawals, no link
/// events; reconvergence stays idle.
void run_kard_serve(const Options& options, Report& report);
/// kard-churn: seeded core-link fail/repair requests, one outstanding.
void run_kard_churn(const Options& options, Report& report);
/// sim-failover: a seeded traffic workload on a bench-owned sim::Network
/// under a seeded core-link failure schedule; control plane idle.
void run_sim_failover(const Options& options, Report& report);

}  // namespace perfbench
