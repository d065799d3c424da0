// The replicated-KV serving stack: repeated self-stabilizing consensus
// underneath, a batching request plane in the middle, simulated clients on
// top.
//
// KvService assembles n replicas (heartbeat FD → Figure 4 gossip ◇S →
// RepeatedConsensus, exactly the stack examples/replicated_kv.cpp uses) on
// the EventSimulator, threads every replica's InputSource through one
// RequestPlane, and drives a deterministic closed-loop client population
// against it:
//
//   client submit ─► plane queue ─► batched proposal ─► consensus instance
//        ▲                                                    │ decide
//        └── next op after think time ◄── apply at replica ◄──┘
//
// The pump (every `pump_interval` sim-time units) drains newly decided
// instances from the replica logs, applies them in instance order to each
// replica's KvStore (skipping holes the corrupted era left behind once the
// log has passed them by 8 instances), completes client requests (request
// latency = apply time − submit time, recorded in a deterministic sim-time
// histogram), reclaims orphaned batches for retransmission, serves read
// leases off applied state, and lets due clients issue their next command.
// Each distinct decided value is decoded once per pump and its requests
// completed once, however many replicas apply it; only the store update
// runs per replica.  Wall-clock histograms (svc_*_ns, outside every stable
// fingerprint) time the simulator step and each pump phase.
//
// Due clients wait in a calendar: a ring of 4096 slots indexed by due time,
// each the head of a list threaded through one link per client.  A client
// is never due twice: a read, or an open-loop write, reschedules it when it
// issues, and a closed-loop write when the write completes.  The pump walks
// the slots tick by tick up to `now`, takes the clients due at each tick (a
// later lap of the ring stays in the slot) and issues them in client order,
// so clients issue in (due time, client) order.  That holds because a
// client rescheduled during the walk falls due `think_min` >= 1 ticks after
// `now`, past every tick still to be walked; the constructor rejects
// `think_min` < 1, and `pump_interval` < 1, with which run() would never
// reach the horizon.
//
// Faults are declarative (SvcFaultPlan): crashes are scheduled on the
// simulator up front; systemic corruptions are injected mid-run by
// restoring a corrupt host state (consensus + detector state scrambled, the
// same patterns EXP6 uses) into live processes — the "systemic failure
// mid-deployment" the paper's repeated-protocol compiler exists for.
//
// Everything is a pure function of SvcConfig: reports carry a stable
// fingerprint that tests pin, and sweeps over plans fold per-cell
// fingerprints deterministically at any worker count.
//
// Read leases: a replica serves a read locally iff its applied state is
// fresh — the newest instance it has applied decided within the last
// `lease_bound` time units.  The measured staleness of every served read is
// recorded in a deterministic histogram, so the lease contract (staleness
// never exceeds the bound) is pinned by the test battery's histogram-max
// assertion.  A lagging or crashed replica rejects the lease instead of
// serving stale data.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "consensus/harness.h"
#include "obs/metrics.h"
#include "svc/kv.h"
#include "svc/plane.h"

namespace ftss::svc {

// --- fault/corruption plans -------------------------------------------------

struct SvcFaultPlan {
  struct Crash {
    ProcessId process = 0;
    Time at = 0;
  };
  struct Corruption {
    ProcessId process = 0;
    Time at = 0;
    CorruptionPattern pattern = CorruptionPattern::kFull;
    std::uint64_t seed = 1;
  };
  std::vector<Crash> crashes;
  std::vector<Corruption> corruptions;

  bool empty() const { return crashes.empty() && corruptions.empty(); }
  std::string describe() const;
};

// Explorer-style sampling: up to ⌊(n−1)/2⌋ crashes (consensus keeps its
// majority) in the middle half of the run, and usually a systemic
// corruption wave (random pattern, random victim subset — often everyone)
// in the first half.  Deterministic in `seed`.
SvcFaultPlan sample_svc_plan(std::uint64_t seed, int n, Time horizon);

// A full-system corruption wave at time `at` (every replica, kFull).
SvcFaultPlan corruption_wave(int n, Time at, std::uint64_t seed);

// The host-level corrupt state injected into one replica: consensus
// instance counter + inner CT state + detector state scrambled per
// `pattern` (decision logs are protocol output and stay intact, as in the
// paper's model).
Value corrupt_host_state(CorruptionPattern pattern, ProcessId p, int n,
                         Rng& rng);

// --- configuration ----------------------------------------------------------

struct SvcConfig {
  int n = 5;
  std::uint64_t seed = 1;

  // Request plane.
  int batch = 64;                   // commands per consensus instance
  std::int64_t pipeline_depth = 32; // instances the log may lead application

  // Client population (closed loop: one outstanding op per client).
  std::int64_t clients = 1000;
  std::int64_t max_ops_per_client = -1;  // <0: keep issuing until horizon
  int read_permille = 0;                 // fraction of ops served as reads
  Time think_min = 50;  // >= 1: a client issues at most once per tick
  Time think_max = 500;
  Time arrival_spread = 2000;  // first submits staggered over this window
  std::int64_t keyspace = 64;
  bool closed_loop = true;  // false: op j submits at a precomputed time,
                            // independent of completions (oracle mode)

  // Service timing.
  Time horizon = 30000;
  Time pump_interval = 50;  // >= 1
  Time lease_bound = 1500;
  Time apply_delay = 0;  // artificial application lag (backpressure tests)
  Time drain_cap = 0;    // >0: keep running past horizon until the plane
                         // drains (or the cap is hit)

  AsyncConfig async;  // async.seed is overridden with `seed`
  SvcFaultPlan plan;

  // TEST HOOK (batching-transparency mutation tests): applied to every
  // decided value before application.
  std::function<Value(const Value&)> decision_transform;
};

// --- report -----------------------------------------------------------------

struct SvcReport {
  // Client-visible outcome.
  std::int64_t requests_submitted = 0;
  std::int64_t requests_completed = 0;
  std::int64_t requests_outstanding = 0;
  std::int64_t reads_served = 0;
  std::int64_t reads_rejected_stale = 0;
  std::int64_t latency_p50 = 0;  // sim-time units, from the histogram
  std::int64_t latency_p90 = 0;
  std::int64_t latency_p99 = 0;

  // Log + application.
  std::int64_t instances_decided = 0;
  std::int64_t instances_empty = 0;
  std::int64_t commands_decided = 0;
  std::int64_t commands_retransmitted = 0;
  std::int64_t instances_skipped = 0;   // summed over survivors
  std::int64_t late_learns_dropped = 0; // summed over survivors

  // Stabilization facts (the paper's Σ⁺ claim, service-level).
  std::optional<std::int64_t> clean_from;  // trailing all-clean run start
  std::int64_t dirty_instances = 0;        // non-canonical or disagreed
  bool converged_clean = false;  // survivor stores equal when materialized
                                 // from instances ≥ clean_from
  bool converged_full = false;   // survivor serving stores byte-identical
  std::uint64_t store_fingerprint = 0;  // first survivor's serving store

  Time horizon = 0;
  Time ran_until = 0;
  bool drained = false;

  MetricsSnapshot metrics;

  // Deterministic content fingerprint (golden-pinned in tests).
  std::uint64_t fingerprint() const;
  Value to_value() const;
  std::string summary() const;
};

// --- the service ------------------------------------------------------------

class KvService {
 public:
  // Throws std::invalid_argument, naming the field, if `pump_interval` or
  // `think_min` is below 1.
  explicit KvService(SvcConfig config);
  ~KvService();

  // Runs the full horizon (plus drain, if configured).  Call once.
  void run();

  SvcReport report() const;

  const EventSimulator& sim() const { return *sim_; }
  const RequestPlane& plane() const { return *plane_; }
  const KvStore& store(ProcessId p) const { return replicas_[p].store; }
  const MetricsSnapshot& metrics() const { return metrics_.snapshot(); }

 private:
  struct Replica {
    std::size_t log_consumed = 0;
    std::map<std::int64_t, std::pair<Value, Time>> pending;  // by instance
    std::int64_t applied_through = 0;  // next instance to apply
    KvStore store;
    Time last_applied_decide_time = -1;
    std::int64_t instances_skipped = 0;
    std::int64_t late_learns_dropped = 0;
  };
  struct DecidedMeta {
    Value value;
    Time first_time = 0;
    bool agreed = true;
  };
  struct ClientOp {
    bool read = false;
    std::int64_t key = 0;
    std::int64_t val = 0;
    Time think = 0;
  };

  ClientOp client_op(std::int64_t c, std::int64_t seq) const;
  void schedule_client(std::int64_t c, Time at);
  void issue_client_ops(Time now);
  void issue_client_op(std::int64_t c, Time now);
  void serve_read(std::int64_t c, const ClientOp& op, Time now);
  void complete_request(std::int64_t c, std::int64_t seq, Time now);
  void scan_logs(Time now);
  void apply_decided(Time now);
  void inject_due_corruptions(Time upto);
  void step_to(Time t);
  void pump(Time now);
  std::int64_t applied_floor() const;

  SvcConfig config_;
  std::unique_ptr<EventSimulator> sim_;
  std::unique_ptr<RequestPlane> plane_;
  std::vector<Replica> replicas_;
  std::map<std::int64_t, DecidedMeta> decided_;
  std::int64_t max_decided_ = -1;
  std::int64_t max_cmd_decided_ = -1;  // newest command-carrying instance

  // Client machinery.
  struct Client {
    std::int64_t next_seq = 0;
    Time due = -1;               // -1: not in the calendar
    std::int64_t next_due = -1;  // the next client in its calendar slot
  };
  static constexpr std::size_t kDueSlots = 4096;  // a power of two
  std::vector<Client> clients_;
  std::vector<std::int64_t> due_slots_;  // by due time mod kDueSlots; -1: none
  Time due_cursor_ = 0;                  // the first tick not yet walked
  std::vector<std::int64_t> due_now_;    // the clients due at one tick
  std::unordered_map<std::uint64_t, Time> outstanding_;  // packed id → submit

  std::vector<SvcFaultPlan::Corruption> pending_corruptions_;
  MetricsRegistry metrics_;
  // Wall-clock histograms in metrics_ (outside every stable fingerprint),
  // created when run() starts, one observation per pump: the simulator's
  // run_until and each pump phase.
  struct PumpTimers {
    HistogramData* run_until = nullptr;
    HistogramData* scan = nullptr;
    HistogramData* apply = nullptr;    // with request completion
    HistogramData* reclaim = nullptr;  // applied floor and reclaim
    HistogramData* issue = nullptr;
  };
  PumpTimers timers_;
  std::int64_t reads_served_ = 0;
  std::int64_t reads_rejected_ = 0;
  std::int64_t requests_submitted_ = 0;
  std::int64_t requests_completed_ = 0;
  Time ran_until_ = 0;
  bool ran_ = false;
};

}  // namespace ftss::svc
