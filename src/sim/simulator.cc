#include "sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "util/worker_pool.h"

namespace ftss {

namespace {

// Process-wide threads default (SyncConfig::threads == 0).  0 in the slot
// means "not yet initialized from the environment"; the public value is
// always >= 1.  Atomic so a sweep's worker threads constructing simulators
// can read it while a test harness thread set it — last write wins.
std::atomic<unsigned> g_sim_threads_default{0};

std::atomic<std::int64_t (*)()> g_lane_now{nullptr};
std::atomic<void (*)(Round, std::int64_t)> g_lane_span{nullptr};

}  // namespace

unsigned sim_threads_default() {
  unsigned v = g_sim_threads_default.load(std::memory_order_relaxed);
  if (v == 0) {
    v = 1;
    if (const char* e = std::getenv("FTSS_SIM_THREADS")) {
      const long k = std::strtol(e, nullptr, 10);
      if (k > 0 && k < 65536) v = static_cast<unsigned>(k);
    }
    g_sim_threads_default.store(v, std::memory_order_relaxed);
  }
  return v;
}

void set_sim_threads_default(unsigned threads) {
  g_sim_threads_default.store(threads == 0 ? 1u : threads,
                              std::memory_order_relaxed);
}

void set_sim_lane_hooks(SimLaneHooks hooks) {
  g_lane_now.store(hooks.now, std::memory_order_relaxed);
  g_lane_span.store(hooks.span, std::memory_order_relaxed);
}

SimLaneHooks sim_lane_hooks() {
  SimLaneHooks hooks;
  hooks.now = g_lane_now.load(std::memory_order_relaxed);
  hooks.span = g_lane_span.load(std::memory_order_relaxed);
  if (hooks.now == nullptr || hooks.span == nullptr) return SimLaneHooks{};
  return hooks;
}

// Fast-path outbox for rounds where every message is statically known to be
// delivered this round (no faults manifestable, no jitter, nothing recorded
// or traced): sends are collected into the lane's round log — a broadcast
// as ONE entry, not n fanned-out messages — and delivered after the
// collection phase, skipping the per-message fault checks and SendRecord
// plumbing entirely.  Deferring delivery to the end of the send phase is
// unobservable: send-time influence snapshots are pinned for the whole
// round by begin_round, and process code cannot read deliveries until its
// end_round runs.
class SyncSimulator::FastOutboxImpl : public Outbox {
 public:
  FastOutboxImpl(ProcessId self, int n, std::vector<Outgoing>* sink)
      : self_(self), n_(n), sink_(sink) {}

  void send(ProcessId to, Value payload) override {
    if (to < 0 || to >= n_) {
      throw std::out_of_range("Outbox::send: bad destination");
    }
    sink_->push_back(Outgoing{self_, to, std::move(payload)});
  }

  void broadcast(Value payload) override {
    sink_->push_back(Outgoing{self_, kBroadcastDest, std::move(payload)});
  }

  int process_count() const override { return n_; }

 private:
  ProcessId self_;
  int n_;
  std::vector<Outgoing>* sink_;
};

SyncSimulator::SyncSimulator(SyncConfig config,
                             std::vector<std::unique_ptr<SyncProcess>> processes)
    : config_(config),
      rng_(config.seed),
      processes_(std::move(processes)),
      plans_(processes_.size()),
      fault_manifested_(processes_.size(), false),
      causality_(static_cast<int>(processes_.size())),
      in_flight_slots_(static_cast<std::size_t>(
                           std::max(0, config.max_extra_delay)) +
                       1),
      inbox_(processes_.size()),
      correct_(static_cast<int>(processes_.size())),
      last_suspects_(processes_.size(),
                     ProcessSet(static_cast<int>(processes_.size()))) {
  history_.n = static_cast<int>(processes_.size());
  for (const auto& p : processes_) {
    if (p->suspect_set() != nullptr) any_suspects_ = true;
  }

  // Resolve the round engine's lane count: 0 inherits the process
  // default, and more lanes than processes (or than dest_lane_'s uint8 can
  // index) buys nothing.
  const unsigned wanted =
      config_.threads == 0 ? sim_threads_default() : config_.threads;
  const unsigned cap = static_cast<unsigned>(std::min<std::size_t>(
      std::max<std::size_t>(1, processes_.size()), 255));
  lanes_ = std::max(1u, std::min(wanted, cap));
  engine_lanes_.reserve(lanes_);
  for (unsigned l = 0; l < lanes_; ++l) {
    engine_lanes_.emplace_back();
    engine_lanes_.back().causality = causality_.make_lane();
  }
  dest_lane_.resize(processes_.size());
  for (unsigned l = 0; l < lanes_; ++l) {
    const auto [lo, hi] = WorkerPool::split(processes_.size(), lanes_, l);
    for (std::size_t d = lo; d < hi; ++d) {
      dest_lane_[d] = static_cast<std::uint8_t>(l);
    }
  }
  // Lanes are logical: correctness never depends on the pool's physical
  // size (a 1-thread pool runs every lane inline), but grow it so a
  // threads = 8 simulator gets real concurrency on capable hardware.  A
  // single lane runs inline and never touches the pool.
  if (lanes_ > 1) WorkerPool::shared().ensure_lanes(lanes_);
}

// Fault manifestation is a trace event exactly once per process (the round
// its plan first deviates — F(H') growing, in the paper's terms).
void SyncSimulator::mark_faulty(ProcessId p, Round r, const char* cause) {
  if (!fault_manifested_[p]) {
    fault_manifested_[p] = true;
    if (trace_ != nullptr) {
      trace_->event(TraceEvent{.kind = TraceEventKind::kFaultManifest,
                               .round = r,
                               .process = p,
                               .detail = cause,
                               .data = {}});
    }
  }
}

// Out-of-line so the Value-bearing TraceEvent construction stays off the
// message hot path (see header comment).
__attribute__((noinline)) void SyncSimulator::trace_message(
    TraceEventKind kind, Round r, ProcessId sender, ProcessId dest,
    Round sent_round, const char* cause, std::int64_t flow_id) {
  trace_->event(TraceEvent{.kind = kind,
                           .round = r,
                           .process = sender,
                           .peer = dest,
                           .aux = sent_round,
                           .detail = cause,
                           .flow_id = flow_id,
                           .data = {}});
}

void SyncSimulator::set_fault_plan(ProcessId p, FaultPlan plan) {
  if (started_) throw std::logic_error("fault plans must precede execution");
  plans_.at(p) = std::move(plan);
}

void SyncSimulator::corrupt_state(ProcessId p, const Value& state) {
  if (started_) throw std::logic_error("corruption must precede execution");
  processes_.at(p)->restore_state(state);
}

// Aligned with the round loop's liveness test (`r >= *crash_at`): a process
// with crash_at = c is alive through round c-1 and crashed from round c on,
// so after executing rounds 1..round_ it is crashed iff round_ >= c.  The
// old `round_ + 1 >= c` form reported the crash one round early (while the
// process was still alive and sending in its final round).
bool SyncSimulator::crashed(ProcessId p) const {
  return plans_[p].crash_at && round_ >= *plans_[p].crash_at;
}

ProcessSet SyncSimulator::planned_faulty() const {
  ProcessSet f(process_count());
  for (std::size_t p = 0; p < plans_.size(); ++p) {
    if (!plans_[p].empty()) f.insert(static_cast<int>(p));
  }
  return f;
}

bool SyncSimulator::send_dropped(ProcessId s, ProcessId d, Round r) {
  if (s == d) return false;  // own broadcast is always received (footnote 1)
  for (const auto& rule : plans_[s].send_omissions) {
    if (rule.covers(r, d) && (rule.probability >= 1.0 || rng_.chance(rule.probability))) {
      return true;
    }
  }
  return false;
}

bool SyncSimulator::receive_dropped(ProcessId s, ProcessId d, Round r) {
  if (s == d) return false;
  for (const auto& rule : plans_[d].receive_omissions) {
    if (rule.covers(r, s) && (rule.probability >= 1.0 || rng_.chance(rule.probability))) {
      return true;
    }
  }
  return false;
}

void SyncSimulator::run_rounds(int k) {
  if (config_.record_states && !config_.record_sends) {
    throw std::logic_error(
        "SyncConfig: record_states requires record_sends (payload capture "
        "lives in SendRecords)");
  }
  if (trace_ == nullptr) {
    if (config_.record_sends) {
      run_rounds_impl<false, true>(k);
    } else {
      run_rounds_impl<false, false>(k);
    }
  } else {
    if (config_.record_sends) {
      run_rounds_impl<true, true>(k);
    } else {
      run_rounds_impl<true, false>(k);
    }
  }
}

template <bool kTraced, bool kRecordSends>
void SyncSimulator::run_rounds_impl(int k) {
  const int n = process_count();
  const std::size_t ring = in_flight_slots_.size();
  // Lane-span instrumentation (installed by the obs layer; see SimLaneHooks)
  // read once per call: the hot loop pays one pointer test per lane-phase.
  const SimLaneHooks hooks = sim_lane_hooks();
  if (!started_) {
    started_ = true;
    has_send_rules_.resize(static_cast<std::size_t>(n));
    has_recv_rules_.resize(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      has_send_rules_[p] = !plans_[p].send_omissions.empty();
      has_recv_rules_[p] = !plans_[p].receive_omissions.empty();
      any_rules_ = any_rules_ || has_send_rules_[p] || has_recv_rules_[p];
    }
  }

  // The previous run_rounds call closed its books by recording still-in-
  // flight messages as lost; this call extends the execution, so those
  // messages resolve normally below — retract the synthetic records.
  if (flushed_in_flight_ > 0 && k > 0) {
    auto& sends = history_.rounds.back().sends;
    sends.resize(sends.size() - static_cast<std::size_t>(flushed_in_flight_));
    flushed_in_flight_ = 0;
  }

  for (int step = 0; step < k; ++step) {
    const Round r = ++round_;
    RoundRecord rec;
    rec.round = r;
    rec.alive.resize(n);
    rec.halted.resize(n);
    if (config_.record_states) rec.state.resize(n);
    rec.clock.resize(n);

    for (ProcessId p = 0; p < n; ++p) {
      const bool alive = !(plans_[p].crash_at && r >= *plans_[p].crash_at);
      rec.alive[p] = alive;
      if (alive) {
        rec.halted[p] = processes_[p]->halted();
        if (config_.record_states) rec.state[p] = processes_[p]->snapshot_state();
        rec.clock[p] = processes_[p]->round_counter();
      }
      // A crash that takes effect this round manifests the fault now.
      if (!alive) {
        mark_faulty(p, r, "crash");
      }
    }

    // Start-of-round §2.4 suspect sets, for processes exposing one.
    if (any_suspects_ && config_.record_states) {
      rec.suspects.resize(n);
      for (ProcessId p = 0; p < n; ++p) {
        if (!rec.alive[p]) continue;
        if (const auto* s = processes_[p]->suspect_set()) {
          rec.suspects[p].assign(s->begin(), s->end());
        }
      }
    }

    if constexpr (kTraced) {
      trace_->event(
          TraceEvent{.kind = TraceEventKind::kRoundBegin, .round = r, .data = {}});
    }

    causality_.begin_round();

    // One engine phase: body(lane) on every lane.  A single lane runs
    // inline on the calling thread; several run as one WorkerPool batch,
    // each lane reporting a wall-clock span to the installed hooks
    // (per-worker flight rings) — wall-clock only, never an input to any
    // fingerprint.
    const auto run_lanes = [&](auto&& body) {
      if (lanes_ == 1) {
        body(std::size_t{0});
        return;
      }
      WorkerPool::shared().run_tasks(lanes_, [&](std::size_t lane) {
        const std::int64_t t0 = hooks.now != nullptr ? hooks.now() : 0;
        body(lane);
        if (hooks.span != nullptr) hooks.span(r, t0);
      });
    };
    // The contiguous process-id range a lane owns as sender and destination.
    const auto owned = [&](std::size_t lane) {
      return WorkerPool::split(static_cast<std::size_t>(n), lanes_, lane);
    };

    // Can this round take the everything-delivers fast path?  Requires: no
    // recording or tracing (nothing to emit per message), zero jitter (every
    // send resolves now and nothing is in flight), no omission rules in any
    // plan (no drops, no RNG draws), and every process alive and unhalted
    // at round start (the only liveness facts the fate pass reads).  Under
    // those facts the slow path below delivers every message in the
    // identical sender-then-destination order with zero side channels, so
    // the fast path is behavior-identical by construction.
    bool fast_round = false;
    if constexpr (!kTraced && !kRecordSends) {
      if (config_.max_extra_delay == 0 && !any_rules_) {
        fast_round = true;
        for (ProcessId p = 0; p < n; ++p) {
          if (!rec.alive[p] || rec.halted[p]) {
            fast_round = false;
            break;
          }
        }
      }
    }

    bool fast_delivered = false;
    if (fast_round) {
      // Collection: lanes log their contiguous sender ranges (broadcasts
      // stored once); the lane logs in lane order are the id-ascending
      // send log.
      run_lanes([&](std::size_t lane) {
        EngineLane& el = engine_lanes_[lane];
        const auto [lo, hi] = owned(lane);
        for (std::size_t p = lo; p < hi; ++p) {
          FastOutboxImpl out(static_cast<ProcessId>(p), n, &el.fast_log);
          processes_[p]->begin_round(out);
        }
      });
      const bool broadcast_only = std::all_of(
          engine_lanes_.begin(), engine_lanes_.end(), [](const EngineLane& el) {
            return std::all_of(
                el.fast_log.begin(), el.fast_log.end(),
                [](const Outgoing& e) { return e.dest == kBroadcastDest; });
          });
      if (broadcast_only) {
        // Destination-major delivery: every destination receives the same
        // sender-ascending broadcast sequence, and a delivery names no
        // receiver, so ONE n-sized inbox — the lane logs in lane order,
        // payloads moved, not copied — serves every transition on every
        // lane, keeping the delivery working set cache-resident instead of
        // materializing n^2 Messages.  Within a round the closure unions
        // commute (send snapshots are pinned by begin_round), so dest-major
        // instead of sender-major delivery leaves influence_, and therefore
        // every later observable, unchanged.  A destination's saturation
        // within the round can only come from deliveries to it, all of
        // which its own lane performs, so saturated_lane sees every earlier
        // delivery.
        for (EngineLane& el : engine_lanes_) {
          for (Outgoing& e : el.fast_log) {
            fast_inbox_.emplace_back(e.sender, std::move(e.payload));
          }
        }
        run_lanes([&](std::size_t lane) {
          EngineLane& el = engine_lanes_[lane];
          const auto [lo, hi] = owned(lane);
          for (std::size_t qi = lo; qi < hi; ++qi) {
            const ProcessId q = static_cast<ProcessId>(qi);
            if (!causality_.saturated_lane(q, el.causality)) {
              for (const Message& m : fast_inbox_) {
                causality_.deliver_snapshot_lane(
                    causality_.send_snapshot(m.sender), q, el.causality);
              }
            }
            // A process that halted during its own begin_round still gets
            // its deliveries counted by the closure but takes no
            // transition, exactly as the receive phase below would treat
            // it.
            if (!processes_[q]->halted()) {
              processes_[q]->end_round(fast_inbox_);
            }
          }
        });
        fast_delivered = true;
      } else {
        // Mixed targeted sends: replay the logs in send order, streaming
        // each delivery into the per-destination inboxes; the receive
        // phase below runs as usual.
        for (EngineLane& el : engine_lanes_) {
          for (Outgoing& e : el.fast_log) {
            const ProcessSet& snap = causality_.send_snapshot(e.sender);
            if (e.dest == kBroadcastDest) {
              for (ProcessId q = 0; q < n; ++q) {
                causality_.deliver_snapshot(snap, q);
                inbox_[q].push_back(Message{e.sender, e.payload});
              }
            } else {
              causality_.deliver_snapshot(snap, e.dest);
              inbox_[e.dest].emplace_back(e.sender, std::move(e.payload));
            }
          }
        }
      }
      // Release this round's payload references now rather than at the
      // next round's collection: a process that reuses its broadcast
      // payload across rounds (RoundAgreementProcess::begin_round) then
      // finds the node unshared and updates it in place instead of cloning
      // it.
      for (EngineLane& el : engine_lanes_) el.fast_log.clear();
      fast_inbox_.clear();
    } else {
      // Send phase.  The fate pass buckets each message for the fill phase
      // (C3) by destination owner, with its slot in the block's rec.sends
      // tail.  The recording-off engine buckets only deliveries: a dropped
      // message has nothing left to record or deliver.
      std::size_t base = 0;
      std::uint32_t slots = 0;
      const auto bucket = [&](Outgoing& m, Round sent_round,
                              const ProcessSet& influence, Fate fate) {
        std::uint32_t slot = std::numeric_limits<std::uint32_t>::max();
        if constexpr (kRecordSends) {
          slot = slots++;
        } else if (fate != Fate::kDelivered) {
          return;
        }
        engine_lanes_[dest_lane_[m.dest]].deliveries.push_back(
            EngineLane::Delivery{&m, &influence, sent_round, slot, fate});
      };
      // A message's fate at its delivery round r — crash, receive omission
      // or delivery — for drained in-flight messages and zero-delay sends
      // alike.
      const auto decide = [&](Outgoing& m, Round sent_round,
                              const ProcessSet& influence,
                              std::int64_t flow_id) {
        Fate fate = Fate::kDelivered;
        if (!rec.alive[m.dest]) {
          fate = Fate::kDestCrashed;
        } else if (has_recv_rules_[m.dest] &&
                   receive_dropped(m.sender, m.dest, r)) {
          fate = Fate::kDroppedByReceiver;
          mark_faulty(m.dest, r, fate_cause(fate));
        }
        if constexpr (kTraced) {
          trace_message(fate == Fate::kDelivered ? TraceEventKind::kDeliver
                                                 : TraceEventKind::kDrop,
                        r, m.sender, m.dest, sent_round, fate_cause(fate),
                        flow_id);
        }
        bucket(m, sent_round, influence, fate);
      };
      // C3: size the block's record tail, then let lanes fill their slots
      // and deliver.  A destination's messages all live in one lane and
      // each lane's bucket is already in fate-pass order, so inbox contents
      // and order are independent of the lane count.
      const auto fill = [&] {
        if constexpr (kRecordSends) rec.sends.resize(base + slots);
        run_lanes([&](std::size_t lane) {
          EngineLane& el = engine_lanes_[lane];
          for (const EngineLane::Delivery& d : el.deliveries) {
            Outgoing& m = *d.message;
            if constexpr (kRecordSends) {
              SendRecord& sr = rec.sends[base + d.slot];
              sr.sender = m.sender;
              sr.dest = m.dest;
              sr.sent_round = d.sent_round;
              sr.delivery_round = r;
              if (config_.record_states) sr.payload = m.payload;
              sr.fate = d.fate;
            }
            if (d.fate == Fate::kDelivered) {
              causality_.deliver_snapshot_lane(*d.influence, m.dest,
                                               el.causality);
              inbox_[m.dest].emplace_back(m.sender, std::move(m.payload));
            }
          }
          el.deliveries.clear();
        });
        base = rec.sends.size();
        slots = 0;
      };

      // Messages from earlier rounds whose delivery jitter expires now
      // form the round's first block, ahead of every fresh send, so their
      // records and deliveries come first; filling them at once, while the
      // entries are cache-hot, beats carrying them into the first send
      // block.  A slot is fully drained before any message can land in it
      // again (delay is at most max_extra_delay = ring - 1).
      FlightSlot& due = in_flight_slots_[static_cast<std::size_t>(r) % ring];
      for (std::size_t i = 0; i < due.used; ++i) {
        InFlight& flight = due.pool[i];
        decide(flight.message, flight.sent_round, flight.sender_influence,
               flight.flow_id);
      }
      if (due.used != 0) fill();
      in_flight_count_ -= static_cast<int>(due.used);
      due.used = 0;  // entries stay constructed; re-arming recycles them

      // Senders run in blocks, bounding the collected scratch at
      // O(block * n) messages.  Within a block: (C1) lanes run begin_round
      // for contiguous sender subranges into private outboxes; (C2) the
      // serial fate pass walks the collected messages in sender-major order
      // — lane concatenation order IS sender order, since lanes own
      // ascending contiguous ranges — emitting each message's trace events
      // (send, then its drop or delivery, or nothing until a delayed
      // message drains) and making every RNG draw, fault manifestation,
      // in-flight enqueue and SendRecord slot assignment; (C3) fill.
      const int block = static_cast<int>(std::max(32u, 4u * lanes_));
      for (int s0 = 0; s0 < n; s0 += block) {
        const int s1 = std::min(n, s0 + block);
        run_lanes([&](std::size_t lane) {
          EngineLane& el = engine_lanes_[lane];
          el.outbox.clear();
          const auto [lo, hi] = WorkerPool::split(
              static_cast<std::size_t>(s1 - s0), lanes_, lane);
          for (std::size_t i = lo; i < hi; ++i) {
            const ProcessId p =
                static_cast<ProcessId>(s0 + static_cast<int>(i));
            if (!rec.alive[p] || processes_[p]->halted()) continue;
            CollectOutbox out(p, n, &el.outbox);
            processes_[p]->begin_round(out);
          }
        });

        for (EngineLane& el : engine_lanes_) {
          for (Outgoing& m : el.outbox) {
            std::int64_t fid = -1;
            if constexpr (kTraced) {
              fid = next_flow_id_++;
              trace_message(TraceEventKind::kSend, r, m.sender, m.dest, 0, "",
                            fid);
            }
            const ProcessSet& influence = causality_.send_snapshot(m.sender);
            if (has_send_rules_[m.sender] &&
                send_dropped(m.sender, m.dest, r)) {
              mark_faulty(m.sender, r, fate_cause(Fate::kDroppedBySender));
              if constexpr (kTraced) {
                trace_message(TraceEventKind::kDrop, r, m.sender, m.dest, r,
                              fate_cause(Fate::kDroppedBySender), fid);
              }
              bucket(m, r, influence, Fate::kDroppedBySender);
              continue;
            }
            // Remote messages may be delayed; self-deliveries never are.
            const int delay =
                (config_.max_extra_delay > 0 && m.sender != m.dest)
                    ? static_cast<int>(
                          rng_.uniform(0, config_.max_extra_delay))
                    : 0;
            if (delay == 0) {
              decide(m, r, influence, fid);
              continue;
            }
            FlightSlot& slot =
                in_flight_slots_[static_cast<std::size_t>(r + delay) % ring];
            if (slot.used < slot.pool.size()) {
              // Recycle a drained entry: assignment reuses its ProcessSet
              // heap words and payload storage instead of reallocating.
              InFlight& f = slot.pool[slot.used];
              f.sender_influence = influence;
              f.message = std::move(m);
              f.sent_round = r;
              f.flow_id = fid;
            } else {
              slot.pool.push_back(InFlight{std::move(m), r, influence, fid});
            }
            ++slot.used;
            ++in_flight_count_;
          }
        }
        fill();
      }
    }

    // Receive/transition phase (already folded into the destination-major
    // loop on a fast broadcast-only round), partitioned by destination:
    // every inbox was filled in drain order, then block order.
    if (!fast_delivered) {
      run_lanes([&](std::size_t lane) {
        const auto [lo, hi] = owned(lane);
        for (std::size_t pi = lo; pi < hi; ++pi) {
          const ProcessId p = static_cast<ProcessId>(pi);
          auto& in = inbox_[p];
          if (!rec.alive[p] || processes_[p]->halted()) {
            in.clear();
            continue;
          }
          // Deliveries land in send order, which with zero jitter is
          // strictly sender-ascending (the fate pass walks senders in id
          // order); only a jittered configuration can interleave rounds,
          // so only then does the order need checking at all.
          if (config_.max_extra_delay > 0) {
            const auto by_sender = [](const Message& a, const Message& b) {
              return a.sender < b.sender;
            };
            if (!std::is_sorted(in.begin(), in.end(), by_sender)) {
              std::stable_sort(in.begin(), in.end(), by_sender);
            }
          }
          processes_[p]->end_round(in);
          in.clear();
        }
      });
    }

    // Fold lane-local causality staleness back into the shared bookkeeping
    // (fixed lane order; unions commute, so merge order is immaterial)
    // before the coterie reads it and the next begin_round consumes it.
    for (EngineLane& el : engine_lanes_) causality_.merge_lane(el.causality);

    // Post-transition observations: adopted round variables and Π⁺
    // suspect-set deltas.
    if constexpr (kTraced) {
      for (ProcessId p = 0; p < n; ++p) {
        if (!rec.alive[p] || processes_[p]->halted()) continue;
        if (const auto c = processes_[p]->round_counter()) {
          trace_->event(TraceEvent{.kind = TraceEventKind::kClockAdopt,
                                   .round = r,
                                   .process = p,
                                   .aux = *c,
                                   .data = {}});
        }
        if (const auto* s = processes_[p]->suspect_set();
            s != nullptr && *s != last_suspects_[p]) {
          Value::Array added, removed;
          for (ProcessId q : *s) {
            if (!last_suspects_[p].contains(q)) added.push_back(Value(q));
          }
          for (ProcessId q : last_suspects_[p]) {
            if (!s->contains(q)) removed.push_back(Value(q));
          }
          Value delta;
          delta["added"] = Value(std::move(added));
          delta["removed"] = Value(std::move(removed));
          trace_->event(TraceEvent{.kind = TraceEventKind::kSuspectDelta,
                                   .round = r,
                                   .process = p,
                                   .data = std::move(delta)});
          last_suspects_[p] = *s;
        }
      }
    }

    rec.faulty_by_now = fault_manifested_;
    correct_.clear();
    for (int p = 0; p < n; ++p) {
      if (!fault_manifested_[p]) correct_.insert(p);
    }
    rec.coterie = causality_.coterie(correct_).to_bools();
    if constexpr (kTraced) {
      if (history_.rounds.empty() ||
          history_.rounds.back().coterie != rec.coterie) {
        Value::Array members;
        for (int p = 0; p < n; ++p) {
          if (rec.coterie[p]) members.push_back(Value(p));
        }
        trace_->event(TraceEvent{.kind = TraceEventKind::kCoterieChange,
                                 .round = r,
                                 .data = Value(std::move(members))});
      }
      trace_->event(TraceEvent{.kind = TraceEventKind::kRoundEnd, .round = r, .data = {}});
    }
    history_.rounds.push_back(std::move(rec));
  }

  // Jittered messages still in flight when the run stops used to vanish —
  // no SendRecord, no trace event — so history/trace send accounting
  // disagreed with what was actually sent.  Flush them into the final
  // round's record as Fate::kLostInFlight drops (see Fate; retracted above
  // if the execution is extended).  The trace drop is not retractable: an
  // extended traced run re-resolves the same flow id, which is the tape's
  // honest record of the observer closing and reopening the run.  Slots are
  // walked in delivery-round order (the order the old sorted map yielded).
  if (k > 0 && in_flight_count_ > 0 && !history_.rounds.empty()) {
    [[maybe_unused]] auto& sends = history_.rounds.back().sends;
    for (std::size_t d = 1; d < ring; ++d) {
      const Round delivery_round = round_ + static_cast<Round>(d);
      const FlightSlot& slot =
          in_flight_slots_[static_cast<std::size_t>(delivery_round) % ring];
      for (std::size_t i = 0; i < slot.used; ++i) {
        const InFlight& flight = slot.pool[i];
        if constexpr (kRecordSends) {
          SendRecord sr;
          sr.sender = flight.message.sender;
          sr.dest = flight.message.dest;
          sr.sent_round = flight.sent_round;
          sr.delivery_round = delivery_round;
          if (config_.record_states) sr.payload = flight.message.payload;
          sr.fate = Fate::kLostInFlight;
          sends.push_back(std::move(sr));
          ++flushed_in_flight_;
        }
        if constexpr (kTraced) {
          trace_message(TraceEventKind::kDrop, round_, flight.message.sender,
                        flight.message.dest, flight.sent_round,
                        fate_cause(Fate::kLostInFlight), flight.flow_id);
        }
      }
    }
  }
}

}  // namespace ftss
