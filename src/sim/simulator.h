// The perfectly synchronous, completely connected message-passing system of
// §2: all processes step in lock-step rounds, message delivery takes exactly
// one round, and the simulator plays the roles of network, fault adversary,
// systemic-failure adversary and external observer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/causality.h"
#include "sim/fault.h"
#include "sim/history.h"
#include "sim/process.h"
#include "sim/trace.h"
#include "util/process_set.h"
#include "util/rng.h"

namespace ftss {

struct SyncConfig {
  std::uint64_t seed = 1;
  // Record full state snapshots into the history (disable for large
  // benchmark sweeps where only clocks/coterie matter).
  bool record_states = true;
  // Record per-message SendRecords into the history.  The n-scaling bench
  // grid disables this: at n=10^4 a single all-to-all round is 10^8
  // SendRecords (~7 GB), and the scale checkers only need the per-round
  // clock/coterie/faulty columns.  The audit oracles and every pinned
  // fingerprint run with it on (the default).  record_states=true implies
  // send payload capture and therefore requires record_sends=true.
  bool record_sends = true;
  // "Synchronous, but not perfectly synchronized" (§3's opening remark):
  // each REMOTE message is delayed by a uniformly random 0..max_extra_delay
  // additional rounds (0 = the perfectly synchronous model, delivery at the
  // end of the sending round).  A process always receives its own broadcast
  // in the sending round.  Receive-omission faults are evaluated at the
  // delivery round; send-omission faults at the send round.
  int max_extra_delay = 0;
  // Deterministic intra-round parallelism.  Every round runs one engine:
  // its phases — send-phase collection, delivery/closure, and the
  // receive/transition sweep — are partitioned across k lanes by
  // contiguous process-id ranges, with per-lane scratch merged back in
  // ascending id order, and every order-sensitive effect (RNG draws, fault
  // manifestation, SendRecord slots, trace events) is decided in one serial
  // sender-major fate pass.  k = 1 (the default) runs the single lane inline
  // on the calling thread; k > 1 runs the lanes on the shared WorkerPool.
  // Every history byte, trace tape and pinned fingerprint is identical at
  // any k (parallel_round_test pins this), traced runs included.
  // 0 = inherit the process-wide default (set_sim_threads_default /
  // $FTSS_SIM_THREADS), which is how the trial drivers let one knob
  // parallelize every simulator they construct.  Clamped to the process
  // count.  A simulator built inside a WorkerPool task (a parallel_sweep
  // trial) runs its lanes inline via the pool's nested-call inlining.
  unsigned threads = 1;
};

// Process-wide default lane count adopted by simulators constructed with
// threads == 0.  Initialized from $FTSS_SIM_THREADS (falling back to 1) at
// first use.
unsigned sim_threads_default();
void set_sim_threads_default(unsigned threads);

// Wall-clock instrumentation hook for the round engine: when installed,
// every engine lane of a multi-lane simulator reports one (round, t0) span
// per phase it executes, on the worker thread that ran it (a single lane
// runs inline and reports none).  The simulator sits below the
// observability plane in the layering, so the hook is a pair of raw
// function pointers (a clock and a sink) rather than a FlightRecorder call;
// obs/flight.cc self-installs adapters mapping them onto per-thread flight
// rings (FlightCat::kLane), which is what makes lane timing show up
// per-worker in flight dumps with zero sim -> obs dependency.
struct SimLaneHooks {
  std::int64_t (*now)() = nullptr;                 // monotonic ns
  void (*span)(Round round, std::int64_t t0) = nullptr;
};
void set_sim_lane_hooks(SimLaneHooks hooks);
SimLaneHooks sim_lane_hooks();

class SyncSimulator {
 public:
  // Takes ownership of the processes.  All fault plans and corruptions must
  // be configured before the first run_rounds call.
  SyncSimulator(SyncConfig config,
                std::vector<std::unique_ptr<SyncProcess>> processes);

  int process_count() const { return static_cast<int>(processes_.size()); }

  // Declare process p's failure behavior (default: correct).
  void set_fault_plan(ProcessId p, FaultPlan plan);

  // Systemic failure: replace p's initial state with `state` before
  // execution commences.  Per §2.1 this does NOT make p faulty.
  void corrupt_state(ProcessId p, const Value& state);

  // Attach a structured event tracer (non-owning; may be null).  With no
  // sink attached every emission site reduces to one null-check, so the
  // tracing-off hot loop is unchanged (bench_overhead verifies).
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  // Execute `k` more rounds (the execution can be extended incrementally;
  // actual round numbers continue from where the previous call stopped).
  void run_rounds(int k);

  Round current_round() const { return round_; }  // rounds executed so far
  const History& history() const { return history_; }
  SyncProcess& process(ProcessId p) { return *processes_.at(p); }
  const SyncProcess& process(ProcessId p) const { return *processes_.at(p); }

  bool crashed(ProcessId p) const;
  // Fault plans that *will* deviate at some point, i.e. F(H,Π) for the
  // infinite extension of this execution.
  ProcessSet planned_faulty() const;

 private:
  class FastOutboxImpl;

  bool send_dropped(ProcessId s, ProcessId d, Round r);
  bool receive_dropped(ProcessId s, ProcessId d, Round r);

  // The dest of a fast-path log entry that is a broadcast: it is stored
  // once instead of being fanned out into n sends at collect time.  At
  // n = 10^3+ the fan-out itself is the bottleneck — n^2 constructions
  // scattered over n growing inboxes is tens of MB of cache-hostile traffic
  // per round — so the fast path keeps the log n-sized and delivers
  // destination-major through one n-sized inbox that stays cache-resident.
  static constexpr ProcessId kBroadcastDest = -1;

  // A message delayed past its sending round, together with the sender's
  // happened-before snapshot at send time (needed for correct causality).
  struct InFlight {
    Outgoing message;
    Round sent_round = 0;
    ProcessSet sender_influence;
    std::int64_t flow_id = -1;  // trace flow linking send to delivery
  };

  void mark_faulty(ProcessId p, Round r, const char* cause);

  // Cold path of the per-message trace emission: constructing a TraceEvent
  // (which embeds a Value) inline bloats the message-resolution hot loop
  // enough to measurably slow the tracing-off configuration, so the
  // construction lives out-of-line and call sites reduce to a predictable
  // null test + call.
  void trace_message(TraceEventKind kind, Round r, ProcessId sender,
                     ProcessId dest, Round sent_round, const char* cause,
                     std::int64_t flow_id);

  // run_rounds dispatches on whether a sink is attached and whether send
  // records are kept; each instantiation contains no code for the disabled
  // planes at all (if constexpr), so the tracing-off hot loop is bit-for-bit
  // the untraced simulator's (bench_overhead's BM_TracedRoundAgreement/0
  // guards the claim) and the record_sends-off loop carries no SendRecord
  // construction.
  template <bool kTraced, bool kRecordSends>
  void run_rounds_impl(int k);

  // --- Round engine ------------------------------------------------------
  //
  // Message fate in the send phase: begin_round collection fans out across
  // lanes (C1), a SERIAL fate pass walks the collected messages in exact
  // sender-major order — every RNG draw, fault manifestation, trace event,
  // in-flight enqueue and SendRecord slot index is therefore independent of
  // the lane count (C2) — and the lanes then fill their pre-assigned record
  // slots, apply lane-local causality updates and push inbox deliveries for
  // the destinations they own (C3).
  struct EngineLane {
    // Slow-path send collection: messages from this lane's contiguous
    // sender range, in sender-then-emission order.
    std::vector<Outgoing> outbox;
    // Fate-resolved messages awaiting C3, bucketed by destination owner.
    // `message` points into a lane outbox (a fresh send) or an in-flight
    // slot (a drained one), `influence` at the sender's send-time snapshot;
    // both stay valid until the block's C3 has run.  `slot` is the
    // message's offset into this block's rec.sends tail (uint32 max if
    // records are off).
    struct Delivery {
      Outgoing* message;
      const ProcessSet* influence;
      Round sent_round;
      std::uint32_t slot;
      Fate fate;
    };
    std::vector<Delivery> deliveries;
    // Fast-path collection log for this lane's sender range.
    std::vector<Outgoing> fast_log;
    CausalityTracker::Lane causality;
  };
  unsigned lanes_ = 1;  // config_.threads resolved and clamped
  std::vector<EngineLane> engine_lanes_;
  std::vector<std::uint8_t> dest_lane_;  // owner lane of each destination

  SyncConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<SyncProcess>> processes_;
  std::vector<FaultPlan> plans_;
  std::vector<bool> fault_manifested_;
  CausalityTracker causality_;
  History history_;
  // Message plane: delivery slot ring, indexed by delivery round modulo
  // max_extra_delay + 1.  A message delayed by d in [1, max_extra_delay]
  // lands d slots ahead of the slot being drained this round, so a slot is
  // always fully drained before anything new lands in it.  Each slot is an
  // arena of InFlight entries recycled in place: draining resets `used`
  // without destroying entries, so re-arming a slot reuses the previous
  // occupant's heap (ProcessSet words, payload nodes) instead of
  // reallocating it — after warm-up the steady-state round loop performs no
  // message-plane allocation at all.
  struct FlightSlot {
    std::vector<InFlight> pool;  // high-water storage, entries live forever
    std::size_t used = 0;        // live entries are pool[0..used)
  };
  std::vector<FlightSlot> in_flight_slots_;
  int in_flight_count_ = 0;  // total messages currently in flight
  std::vector<std::vector<Message>> inbox_;  // per destination
  // A broadcast-only fast round's one inbox: every lane's broadcasts in
  // sender order, read by every destination's end_round on every lane and
  // written by nothing until the round's transitions are done.
  std::vector<Message> fast_inbox_;
  // Per-process omission-rule presence, frozen at the first run_rounds call:
  // lets the per-message path skip the rule-scan calls entirely for the
  // (typical) processes with no omission faults planned.  Behavior-neutral:
  // an empty rule list never draws randomness and never drops.
  std::vector<std::uint8_t> has_send_rules_;
  std::vector<std::uint8_t> has_recv_rules_;
  // Any process at all has omission rules.  When false (with recording and
  // tracing off, zero jitter, and every process alive and unhalted this
  // round) the send phase takes the fast path: broadcasts are logged once
  // and delivered destination-major — no per-message fault checks, no fate
  // pass, no SendRecord plumbing.  Behavior-identical: on such a round every
  // message is delivered, in the same sender-then-dest order, with no RNG
  // draws and nothing recorded either way.
  bool any_rules_ = false;
  ProcessSet correct_;  // non-manifested processes, rebuilt each round
  // Synthetic Fate::kLostInFlight records appended to the final round's sends
  // when run_rounds returned with messages still in flight; retracted (and
  // the messages resolved normally) if the execution is extended.
  int flushed_in_flight_ = 0;
  Round round_ = 0;
  bool started_ = false;
  bool any_suspects_ = false;  // some process exposes a §2.4 suspect set
  TraceSink* trace_ = nullptr;
  std::int64_t next_flow_id_ = 0;
  std::vector<ProcessSet> last_suspects_;  // for kSuspectDelta
};

}  // namespace ftss
