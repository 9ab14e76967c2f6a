// The placement decision audit log: why did each migration land where it did?
//
// Every PlacementEngine pick — balancer round, night-shift spread, evacuation,
// reaper revive, PlaceBatch slot — answers one question: "of the hosts I could
// see, which should receive this process?" The answer used to evaporate at
// pick time, leaving only a bare "pid:from->to=rc" breadcrumb; proving that an
// indexed pick equals a full-scan pick, or explaining why a sick host was
// passed over, meant re-deriving the decision from scratch.
//
// The DecisionLog keeps the whole answer: the full candidate set with every
// per-factor signal the policy weighed (load, estimated wire bytes, fault
// weight, health score), every host the engine would not consider and the
// reason it was excluded (down, partitioned-from-source, fault-threshold,
// health-threshold, lease-contended), the chosen target, the runner-up, and
// which factor — and by how much — separated them (an "order" margin is a dead
// tie broken only by network position: a near-tie worth an operator's
// attention).
//
// Like the metrics registry and the health monitor it is observation-only:
// recording draws no RNG, charges no virtual time, arms no clock timers, and
// reads only signals that are free to read — so a run with the log armed but
// unread is bit-identical to one with it off. The ring is bounded; seq numbers
// keep climbing across evictions so records cross-link stably to traces
// ([trace=N] post-mortems) and to the report's decision lines.

#ifndef PMIG_SRC_SIM_DECISION_LOG_H_
#define PMIG_SRC_SIM_DECISION_LOG_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/time.h"

namespace pmig::sim {

// One scored candidate as the engine saw it, in network host order: the
// signal set the placement engine weighs, declared once (the engine's
// CandidateScore derives from it, adding only its exclusion flags; excluded
// hosts appear in the record's exclusions, with their tripping signal as the
// value).
struct DecisionCandidate {
  std::string host;
  int load = 0;              // runnable (or, for occupancy queries, live) VM processes
  int64_t est_bytes = 0;     // estimated dump payload the wire would carry
  double fault_score = 0;    // decayed migration-failure weight
  double health_score = 0;   // HealthMonitor penalty
};

// One host the engine refused to consider, and why. `value` carries the
// tripping signal for the threshold reasons (the fault/health score) and is 0
// for the structural ones.
struct DecisionExclusion {
  std::string host;
  std::string reason;  // down | partitioned-from-source | fault-threshold |
                       // health-threshold | lease-contended
  double value = 0;
};

struct DecisionRecord {
  static constexpr int kNoOutcome = -1;

  uint64_t seq = 0;     // monotonic across ring evictions; 1-based
  Nanos at = 0;         // virtual time of the pick
  std::string context;  // who asked: balancer | night-shift | evacuation | reaper
  std::string policy;   // PlacementPolicyName at pick time
  std::string source;   // "index" (loads from a ClusterIndex) | "scan" (surveyed)
  std::string from_host;
  int32_t pid = -1;     // -1: no specific process (e.g. night-shift day pick)
  std::string chosen;   // "" = no eligible target existed
  std::string runner_up;
  // The first factor, in the policy's tie-break order, where chosen and
  // runner-up differed — and by how much. "order": a dead tie decided only by
  // network position (near_tie). "only": a single eligible candidate. "none":
  // nothing was eligible at all.
  std::string margin_factor;
  double margin = 0;
  bool near_tie = false;
  // Cross-links, attached after the migrate leg runs: the caller's distributed
  // trace id (grep [trace=N] in complaints and flight-recorder post-mortems)
  // and the migrate exit code (kNoOutcome until a leg was actually attempted).
  uint64_t trace_id = 0;
  int outcome_rc = kNoOutcome;
  std::vector<DecisionCandidate> candidates;
  std::vector<DecisionExclusion> exclusions;
};

class DecisionLog {
 public:
  explicit DecisionLog(const VirtualClock* clock, size_t capacity = 1024)
      : clock_(clock), capacity_(capacity == 0 ? 1 : capacity) {}

  // Disarmed by default. Callers must check enabled() before building a
  // record, so a disarmed log costs one branch per pick — same discipline as
  // metrics and the health monitor.
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  size_t capacity() const { return capacity_; }

  // Stamps seq + virtual time and appends (evicting the oldest past capacity).
  // Returns the record's seq, or 0 when the log is disabled.
  uint64_t Record(DecisionRecord record);

  // Attaches the migrate outcome (exit code + distributed trace id) to the
  // newest outcome-less record matching (pid, from_host, chosen) — the pick
  // whose migrate leg just returned. Lease re-pick loops record one decision
  // per attempt; only the final pick names the target that was migrated to,
  // so the match lands on exactly that record. No-op when nothing matches.
  void AttachOutcome(int32_t pid, std::string_view from_host,
                     std::string_view chosen, int rc, uint64_t trace_id);

  const std::deque<DecisionRecord>& records() const { return records_; }
  // Total ever recorded (not bounded by capacity) — the replay-fingerprint
  // count, stable even after the ring starts evicting.
  uint64_t total_recorded() const { return next_seq_ - 1; }

  // Newest record; null when empty.
  const DecisionRecord* Latest() const;
  // Newest record that placed `pid`; null when none.
  const DecisionRecord* LatestForPid(int32_t pid) const;
  // Newest record that mentions `host` anywhere — chosen, runner-up, source,
  // candidate, or exclusion — so `pwhy <host>` explains a host that keeps
  // being passed over, not just one that keeps winning.
  const DecisionRecord* LatestForHost(std::string_view host) const;

  // The human rendering `pwhy` prints: a one-line verdict header, a factor
  // table with one row per candidate (CHOSEN / runner-up marked), and one row
  // per exclusion with its reason and tripping value.
  static std::string Render(const DecisionRecord& r);

  // The canonical one-line form bench/decision_diff compares. Deliberately
  // omits seq, timestamp, trace id, and — crucially — `source`: an indexed
  // pick and a full-scan pick that weighed the same candidates the same way
  // and chose the same target are the *same decision*, which is exactly the
  // equivalence the diff gate exists to prove.
  static std::string CanonicalLine(const DecisionRecord& r);

  // The migrate legs the retained records settled, as "pid:from->to=rc;" per
  // record carrying an outcome, in record order: the compact decision
  // sequence that determinism and equivalence checks compare.
  std::string OutcomeSequence() const;

  // One {"type":"decision"} JSONL line per retained record, oldest first
  // (Cluster::WriteReport calls this).
  void WriteJsonl(std::ostream& out) const;

 private:
  const VirtualClock* clock_;
  size_t capacity_;
  bool enabled_ = false;
  uint64_t next_seq_ = 1;
  std::deque<DecisionRecord> records_;
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_DECISION_LOG_H_
