// Operation statistics policies for the tree templates.
//
// NullOpStats compiles to nothing (the default). CountingOpStats keeps
// one per-thread cacheline-striped counter (util/striped_counter.h) per
// mechanism, so a bump is one relaxed increment on a line its thread
// owns; snapshot() sums the stripes. It powers the handshaking / helping
// ablation benchmarks (Tab.E5), the serving map's /metrics engine
// families and several tests. Counters are named after the paper's
// mechanisms.
#pragma once

#include <cstdint>

#include "obs/trace.h"
#include "util/striped_counter.h"

namespace pnbbst {

// Point-in-time copy of every mechanism counter, and the only way to
// read them. NullOpStats returns an all-zero snapshot, letting generic
// reporting code compile against either policy.
struct OpStatsSnapshot {
  // One update-loop iteration (an "attempt" in the paper's terminology).
  std::uint64_t attempts = 0;
  // Update attempts whose Info object reached Commit.
  std::uint64_t commits = 0;
  // Attempts aborted by the handshaking check (Counter advanced).
  std::uint64_t handshake_aborts = 0;
  // Attempts aborted because a later freeze CAS lost a race.
  std::uint64_t freeze_fail_aborts = 0;
  // ValidateLeaf / ValidateLink failures that forced a retry.
  std::uint64_t validate_fails = 0;
  // Calls to Help() on someone else's Info object (the helping mechanism).
  std::uint64_t helps = 0;
  // RangeScan / snapshot traversals started.
  std::uint64_t scans = 0;
  // Help() calls issued from inside a scan traversal.
  std::uint64_t scan_helps = 0;
  // Child CAS attempts that failed (another helper already applied it).
  std::uint64_t child_cas_failures = 0;
  // Allocation counters (used by reclamation accounting tests).
  std::uint64_t nodes_allocated = 0;
  std::uint64_t infos_allocated = 0;
  // Nodes handed to the reclaimer after a successful unlink / abort
  // (tab6 pairs the retire side with the allocator's AllocStats gauges).
  std::uint64_t nodes_retired = 0;
  // Speculative nodes/Infos freed directly (never published to anyone).
  std::uint64_t unpublished_frees = 0;
};

struct NullOpStats {
  static constexpr bool kEnabled = false;
  void inc_attempts() noexcept {}
  void inc_commits() noexcept {}
  void inc_handshake_aborts() noexcept {}
  void inc_freeze_fail_aborts() noexcept {}
  void inc_validate_fails() noexcept {}
  void inc_helps() noexcept {}
  void inc_scans() noexcept {}
  void inc_scan_helps() noexcept {}
  void inc_child_cas_failures() noexcept {}
  void inc_nodes_allocated(std::uint64_t = 1) noexcept {}
  void inc_infos_allocated() noexcept {}
  void inc_nodes_retired() noexcept {}
  void inc_unpublished_frees(std::uint64_t = 1) noexcept {}

  OpStatsSnapshot snapshot() const noexcept { return {}; }
};

struct CountingOpStats {
  static constexpr bool kEnabled = true;

  void inc_attempts() noexcept { attempts_.inc(); }
  void inc_commits() noexcept { commits_.inc(); }
  // The paper-mechanism events also feed the obs trace ring (one relaxed
  // load + branch when tracing is disabled, the default).
  void inc_handshake_aborts() noexcept {
    handshake_aborts_.inc();
    obs::trace_event(obs::TraceKind::kHandshakeAbort);
  }
  void inc_freeze_fail_aborts() noexcept {
    freeze_fail_aborts_.inc();
    obs::trace_event(obs::TraceKind::kFreezeFailAbort);
  }
  void inc_validate_fails() noexcept { validate_fails_.inc(); }
  void inc_helps() noexcept {
    helps_.inc();
    obs::trace_event(obs::TraceKind::kHelp, 0);
  }
  void inc_scans() noexcept { scans_.inc(); }
  void inc_scan_helps() noexcept {
    scan_helps_.inc();
    obs::trace_event(obs::TraceKind::kHelp, 1);
  }
  void inc_child_cas_failures() noexcept { child_cas_failures_.inc(); }
  void inc_nodes_allocated(std::uint64_t n = 1) noexcept {
    nodes_allocated_.add(n);
  }
  void inc_infos_allocated() noexcept { infos_allocated_.inc(); }
  void inc_nodes_retired() noexcept { nodes_retired_.inc(); }
  void inc_unpublished_frees(std::uint64_t n = 1) noexcept {
    unpublished_frees_.add(n);
  }

  // Sums every stripe; exact once the counting threads have joined.
  OpStatsSnapshot snapshot() const noexcept {
    OpStatsSnapshot s;
    s.attempts = attempts_.value();
    s.commits = commits_.value();
    s.handshake_aborts = handshake_aborts_.value();
    s.freeze_fail_aborts = freeze_fail_aborts_.value();
    s.validate_fails = validate_fails_.value();
    s.helps = helps_.value();
    s.scans = scans_.value();
    s.scan_helps = scan_helps_.value();
    s.child_cas_failures = child_cas_failures_.value();
    s.nodes_allocated = nodes_allocated_.value();
    s.infos_allocated = infos_allocated_.value();
    s.nodes_retired = nodes_retired_.value();
    s.unpublished_frees = unpublished_frees_.value();
    return s;
  }

 private:
  StripedCounter attempts_;
  StripedCounter commits_;
  StripedCounter handshake_aborts_;
  StripedCounter freeze_fail_aborts_;
  StripedCounter validate_fails_;
  StripedCounter helps_;
  StripedCounter scans_;
  StripedCounter scan_helps_;
  StripedCounter child_cas_failures_;
  StripedCounter nodes_allocated_;
  StripedCounter infos_allocated_;
  StripedCounter nodes_retired_;
  StripedCounter unpublished_frees_;
};

}  // namespace pnbbst
