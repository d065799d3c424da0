#include "net/transport.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "check/replay_books.h"
#include "check/trial_build.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "wire/frame.h"

namespace ftss {

namespace {

using net::Channel;
using wire::FrameType;
using wire::WireError;

// --- Process side (one OS thread per process) ----------------------------

// The state half of a report: the process's state, halted flag, clock and
// suspects, as the observer records them.
Value state_report(const SyncProcess& proc) {
  Value v;
  v["state"] = proc.snapshot_state();
  if (const auto c = proc.round_counter()) v["clock"] = Value(*c);
  v["halted"] = Value(proc.halted());
  if (const ProcessSet* s = proc.suspect_set()) {
    Value::Array ids;
    for (ProcessId q : *s) ids.push_back(Value(q));
    v["suspects"] = Value(std::move(ids));
  }
  return v;
}

// The clock a state report carries, if the process exposes one.
std::optional<Round> reported_clock(const Value& report) {
  if (!report.contains("clock")) return std::nullopt;
  return report.at("clock").int_or(0);
}

// The entire process-side half of the session protocol.  Everything the
// process learns or reports crosses the channel as encoded frames; its only
// shared memory with the hub is the SyncProcess object it owns for the
// duration (handed over before the thread starts, joined before reuse).
void process_main(Channel ch, SyncProcess* proc, std::string* error) {
  int n = 0;
  ProcessId self = -1;
  std::vector<Message> inbox;

  const auto fail = [&](const std::string& why) {
    *error = why;
    ch.close_fd();
  };

  for (;;) {
    Channel::RecvResult r = ch.recv_frame();
    if (r.eof) return;  // hub hung up
    if (r.error != WireError::kOk) {
      return fail(std::string("stream decode: ") + wire_error_name(r.error));
    }
    const Value& body = r.frame.body;
    if (r.frame.type == FrameType::kInit) {
      n = static_cast<int>(body.at("n").int_or(0));
      self = static_cast<ProcessId>(body.at("self").int_or(-1));
      if (n < 1 || self < 0 || self >= n) return fail("init: bad n/self");
      if (body.contains("corrupt")) {
        for (const Value& state : body.at("corrupt").as_array()) {
          proc->restore_state(state);
        }
      }
      continue;
    }
    if (r.frame.type != FrameType::kRound || !body.at("in").is_array()) {
      return fail("expected a round frame from the hub");
    }

    // Round r-1's deliveries as [id, inner kMessage frame bytes] pairs, each
    // inner frame decoded on its own.
    const Round round = body.at("r").int_or(0);
    Value::Array ok;
    Value::Array bad;  // [id, wire error code] pairs
    for (const Value& pair : body.at("in").as_array()) {
      if (!pair.is_array() || pair.size() != 2 ||
          !pair.as_array()[1].is_string()) {
        return fail("round: malformed delivery pair");
      }
      const std::int64_t id = pair.as_array()[0].int_or(-1);
      const std::string& bytes = pair.as_array()[1].as_string();
      const wire::FrameDecodeResult inner = wire::decode_frame_exact(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
      WireError reject = inner.error;
      if (reject == WireError::kOk &&
          (inner.frame.type != FrameType::kMessage ||
           inner.frame.body.at("d").int_or(-1) != self ||
           inner.frame.body.at("s").int_or(-1) < 0 ||
           inner.frame.body.at("s").int_or(-1) >= n)) {
        // Structurally valid but not a message addressed to us.
        reject = WireError::kBadFrameType;
      }
      if (reject != WireError::kOk) {
        bad.push_back(Value::array(
            {Value(id), Value(static_cast<std::int64_t>(reject))}));
      } else {
        inbox.push_back(Message{
            static_cast<ProcessId>(inner.frame.body.at("s").as_int()),
            inner.frame.body.at("b")});
        ok.push_back(Value(id));
      }
    }
    // Closes round r-1, its deliveries sorted by sender as the sync inbox
    // is.
    if (round > 1 && !proc->halted()) {
      std::stable_sort(inbox.begin(), inbox.end(),
                       [](const Message& x, const Message& y) {
                         return x.sender < y.sender;
                       });
      proc->end_round(inbox);
    }
    inbox.clear();

    // The reply: the statuses, then p's state taken before begin_round and
    // round r's sends as [dest, body] pairs; to the last frame, the final
    // state and no sends.
    Value report = state_report(*proc);
    report["r"] = Value(round);
    report["ok"] = Value(std::move(ok));
    report["bad"] = Value(std::move(bad));
    const bool last = body.at("last").bool_or(false);
    if (!last) {
      Value::Array sends;
      if (!proc->halted()) {
        std::vector<Outgoing> outgoing;
        CollectOutbox out(self, n, &outgoing);
        proc->begin_round(out);
        for (Outgoing& m : outgoing) {
          sends.push_back(Value::tuple(Value(m.dest), std::move(m.payload)));
        }
      }
      report["sends"] = Value(std::move(sends));
    }
    if (!ch.send_frame(FrameType::kReport, report)) {
      return fail("send report");
    }
    if (last) return;
  }
}

// --- Hub side ------------------------------------------------------------

struct ProcSlot {
  Channel ch;  // hub end; the process end moves into the thread
  std::unique_ptr<SyncProcess> proc;
  std::thread thread;
  std::string error;
  Value::Array deliveries;  // due to p in the round last resolved
  Value report;             // p's latest kReport body
};

class TransportDriver {
 public:
  TransportDriver(const TrialPlan& plan, const TransportOptions& options,
                  TransportResult* result)
      : plan_(plan),
        options_(options),
        result_(result),
        n_(plan.n),
        final_(plan.rounds),
        books_(plan, "transport") {
    hub_round_ns_.bounds = latency_nanos_bounds();
    inner_encode_ns_.bounds = latency_nanos_bounds();
  }

  void run();

 private:
  bool unsupported(std::string reason) {
    result_->supported = false;
    result_->unsupported_reason = std::move(reason);
    return false;
  }

  bool exchange(Round r);
  void handle_send(Round r, ProcessId sender, const Value& send);
  void queue_deliveries(Round r);
  void resolve_statuses(ProcessId p, Round r, const Value& report);
  void resolve_bad(ProcessId dest, Round r, std::int64_t id,
                   std::int64_t code);
  void finish();
  void teardown();

  const TrialPlan& plan_;
  const TransportOptions options_;
  TransportResult* result_;
  const int n_;
  const Round final_;

  ReplayBooks books_;
  std::vector<ProcSlot> slots_;
  int delivery_attempts_ = 0;
  HistogramData hub_round_ns_;     // one observation per dispatched round
  HistogramData inner_encode_ns_;  // each delivery's inner kMessage encode
  std::int64_t trial_start_ns_ = 0;
};

// One [dest, body] pair of p's report; the frame implies sender and round.
void TransportDriver::handle_send(Round r, ProcessId sender,
                                  const Value& send) {
  const ProcessId dest =
      send.is_array() && send.size() == 2
          ? static_cast<ProcessId>(send.as_array()[0].int_or(-1))
          : -1;
  if (dest < 0 || dest >= n_) {
    std::ostringstream os;
    os << "p" << sender << " emitted a malformed send record";
    books_.report("schedule", r, os.str());
    return;
  }
  books_.send(r, sender, dest, send.as_array()[1]);
}

// Resolves the fates due in round r into each live process's delivery
// list, in id order; the next exchange ships them.
void TransportDriver::queue_deliveries(Round r) {
  const std::span<ReplayBooks::Pending> pendings = books_.pendings();
  for (std::size_t i = 0; i < pendings.size(); ++i) {
    ReplayBooks::Pending& pend = pendings[i];
    if (pend.resolved || pend.delivery_round != r) continue;

    if (pend.fate == Fate::kDroppedByReceiver) {
      // The adversary's receive omission: the hub (playing the network's
      // faulty-receiver half) eats the message before it crosses the wire.
      books_.resolve(pend, r, Fate::kDroppedByReceiver, pend.payload);
      continue;
    }
    if (pend.fate != Fate::kDelivered) continue;    // dest-crashed: end_round
    if (books_.crashed_by(pend.dest, r)) continue;  // flagged there too

    const int attempt = delivery_attempts_++;
    if (attempt == options_.drop_index) continue;  // CORRUPTION HOOK: loss
    if (attempt == options_.delay_index) {         // CORRUPTION HOOK: delay
      pend.delivery_round = r + 1;
      continue;
    }

    if (attempt == options_.mutate_payload_index) {
      // CORRUPTION HOOK: payload swap.  Overwrites the pending payload so
      // the history records what actually crossed the wire — the typed
      // differ then sees the disagreement with the sync leg's payload.
      pend.payload = Value("wire-mutated");
    }
    Value inner;
    inner["s"] = Value(pend.sender);
    inner["d"] = Value(pend.dest);
    inner["r"] = Value(pend.sent_round);
    inner["b"] = pend.payload;
    std::vector<std::uint8_t> bytes;
    {
      ScopedTimer timer(&inner_encode_ns_, FlightCat::kEncode);
      wire::encode_frame(FrameType::kMessage, inner, bytes);
      timer.set_arg(static_cast<std::int64_t>(bytes.size()));
    }
    if (attempt == options_.flip_bit_index && !bytes.empty()) {
      // CORRUPTION HOOK: single bit flip anywhere in the inner frame.
      const std::size_t bit =
          static_cast<std::size_t>(options_.flip_bit) % (bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    if (attempt == options_.truncate_index) {
      bytes.resize(bytes.size() / 2);  // CORRUPTION HOOK: truncation
    }

    Value pair = Value::tuple(
        Value(static_cast<std::int64_t>(i)),
        Value(std::string(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size())));
    Value::Array& list = slots_[pend.dest].deliveries;
    if (attempt == options_.duplicate_index) {
      list.push_back(pair);  // CORRUPTION HOOK: the same pair twice
    }
    list.push_back(std::move(pair));
  }
}

void TransportDriver::resolve_bad(ProcessId dest, Round r, std::int64_t id,
                                  std::int64_t code) {
  ReplayBooks::Pending* pend = books_.claim(r, dest, id);
  if (pend == nullptr) return;
  FlightRecorder::instant(FlightCat::kReject, dest, code);
  // A typed decode rejection is a model-level fault, not a harness error:
  // the observer records it as a frame-corrupted send and the differ will
  // hold it against the sync leg (which believed the message delivered).
  books_.resolve(*pend, r, Fate::kFrameCorrupted, pend->payload);
  result_->rejected_frames.push_back(
      FrameReject{dest, pend->sender, pend->sent_round, r,
                  static_cast<WireError>(code)});
}

// The ids p decoded and rejected, as round r's delivery fates.
void TransportDriver::resolve_statuses(ProcessId p, Round r,
                                       const Value& report) {
  if (report.at("ok").is_array()) {
    for (const Value& id : report.at("ok").as_array()) {
      if (ReplayBooks::Pending* pend = books_.claim(r, p, id.int_or(-1))) {
        books_.resolve(*pend, r, Fate::kDelivered, pend->payload);
      }
    }
  }
  if (report.at("bad").is_array()) {
    for (const Value& entry : report.at("bad").as_array()) {
      if (entry.is_array() && entry.size() == 2) {
        resolve_bad(p, r, entry.as_array()[0].int_or(-1),
                    entry.as_array()[1].int_or(0));
      }
    }
  }
}

// Exchange r, with every process alive in round r-1: one kRound carrying
// round r-1's deliveries, answered by one kReport, read in process-id
// order.  It closes round r-1 and opens round r; the frame is the last for
// a process that crashes at round r, and for every survivor when r is past
// the final round.
bool TransportDriver::exchange(Round r) {
  for (ProcessId p = 0; p < n_; ++p) {
    if (books_.crashed_by(p, r - 1)) continue;
    Value body;
    body["r"] = Value(r);
    body["in"] = Value(std::exchange(slots_[p].deliveries, {}));
    if (r > final_ || books_.crashed_by(p, r)) body["last"] = Value(true);
    if (!slots_[p].ch.send_frame(FrameType::kRound, body)) {
      return unsupported("p" + std::to_string(p) + ": round write");
    }
  }
  for (ProcessId p = 0; p < n_; ++p) {
    if (books_.crashed_by(p, r - 1)) continue;
    Channel::RecvResult rep = slots_[p].ch.recv_frame();
    if (rep.error != WireError::kOk || rep.eof ||
        rep.frame.type != FrameType::kReport ||
        rep.frame.body.at("r").int_or(0) != r) {
      return unsupported("p" + std::to_string(p) +
                         ": expected report for round " + std::to_string(r));
    }
    resolve_statuses(p, r - 1, rep.frame.body);
    slots_[p].report = std::move(rep.frame.body);
  }
  if (r > 1) books_.end_round(r - 1, books_.crashed_by(r - 1));
  if (r > final_) return true;

  books_.begin_round(r);
  for (ProcessId p = 0; p < n_; ++p) {
    if (books_.crashed_by(p, r)) continue;
    const Value& b = slots_[p].report;
    if (!b.at("sends").is_array()) {
      return unsupported("p" + std::to_string(p) + ": report for round " +
                         std::to_string(r) + " without sends");
    }
    std::vector<ProcessId> suspects;
    if (b.contains("suspects")) {
      for (const Value& q : b.at("suspects").as_array()) {
        suspects.push_back(static_cast<ProcessId>(q.int_or(-1)));
      }
    }
    books_.observe(r, p, b.at("halted").bool_or(false), b.at("state"),
                   reported_clock(b), std::move(suspects));
    for (const Value& send : b.at("sends").as_array()) handle_send(r, p, send);
  }
  queue_deliveries(r);
  return true;
}

void TransportDriver::finish() {
  books_.close(books_.crashed_by(final_));
  for (ProcessId p = 0; p < n_; ++p) {
    if (books_.crashed_by(p, final_)) continue;
    const Value& rep = slots_[p].report;  // the final report
    books_.check_survivor(p, rep.at("state"), rep.at("halted").bool_or(false),
                          reported_clock(rep));
  }
  result_->transport_history = books_.finish();
  result_->notes = std::move(books_.reports());

  for (const ProcSlot& slot : slots_) {
    result_->frames_sent += slot.ch.frames_sent + slot.ch.frames_received;
    result_->bytes_sent += slot.ch.bytes_sent + slot.ch.bytes_received;
  }

  // Fold the wall-clock side tape: hub round dispatch, hub-side codec work
  // (per channel, plus the inner kMessage encodes), and the whole-leg span.
  // All wall_clock histograms — the stable fingerprint of any snapshot
  // this merges into is unchanged.
  const auto put = [this](const char* name, const HistogramData& h) {
    if (h.count == 0) return;
    auto [it, inserted] = result_->timing.histograms.emplace(name, h);
    if (!inserted) it->second.merge_from(h);
    it->second.wall_clock = true;
  };
  put("hub_round_ns", hub_round_ns_);
  for (const ProcSlot& slot : slots_) {
    put("wire_encode_ns", slot.ch.encode_ns);
    put("wire_decode_ns", slot.ch.decode_ns);
  }
  put("wire_encode_ns", inner_encode_ns_);
  HistogramData trial;
  trial.bounds = latency_nanos_bounds();
  trial.wall_clock = true;
  trial.observe(FlightRecorder::now_ns() - trial_start_ns_);
  put("transport_trial_ns", trial);
  FlightRecorder::span(FlightCat::kTrial, plan_.trial_seed, trial_start_ns_);
}

void TransportDriver::teardown() {
  // Closing the hub ends unblocks any thread still reading; then join.
  for (ProcSlot& slot : slots_) slot.ch.close_fd();
  for (ProcSlot& slot : slots_) {
    if (slot.thread.joinable()) slot.thread.join();
  }
  for (ProcessId p = 0; p < static_cast<ProcessId>(slots_.size()); ++p) {
    if (!slots_[p].error.empty()) {
      books_.report("io", final_,
                    "p" + std::to_string(p) + ": " + slots_[p].error);
    }
  }
}

void TransportDriver::run() {
  trial_start_ns_ = FlightRecorder::now_ns();
  std::string error;
  if (!books_.run_sync_leg(&error)) {
    unsupported(error);
    return;
  }
  result_->sync_history = books_.sync_history();

  // Transport leg: fresh processes, each behind a socketpair on its own
  // thread, corruptions shipped inside the kInit frame.
  std::vector<std::unique_ptr<SyncProcess>> fresh =
      build_trial_processes(plan_, &error);
  if (fresh.empty()) {
    unsupported("rebuild: " + error);
    return;
  }
  slots_ = std::vector<ProcSlot>(n_);
  std::vector<Channel> proc_ends(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    slots_[p].proc = std::move(fresh[p]);
    if (!Channel::make_pair(&slots_[p].ch, &proc_ends[p])) {
      unsupported("socketpair failed");
      teardown();
      return;
    }
  }
  for (ProcessId p = 0; p < n_; ++p) {
    ProcSlot& slot = slots_[p];
    slot.thread = std::thread(process_main, std::move(proc_ends[p]),
                              slot.proc.get(), &slot.error);
  }

  bool alive = true;
  for (ProcessId p = 0; p < n_ && alive; ++p) {
    Value init;
    init["n"] = Value(n_);
    init["self"] = Value(p);
    Value::Array corrupt;
    for (const auto& c : plan_.corruptions) {
      if (c.process == p) corrupt.push_back(corruption_value(c));
    }
    if (!corrupt.empty()) init["corrupt"] = Value(std::move(corrupt));
    if (!slots_[p].ch.send_frame(FrameType::kInit, init)) {
      alive = unsupported("p" + std::to_string(p) + ": init write");
    }
  }

  for (Round r = 1; alive && r <= final_; ++r) {
    ScopedTimer round_timer(&hub_round_ns_, FlightCat::kRound, r);
    alive = exchange(r);
  }
  // The closing exchange: every survivor's final report.
  if (alive) alive = exchange(final_ + 1);
  teardown();
  if (alive) finish();
}

}  // namespace

TransportResult run_transport_trial(const TrialPlan& plan,
                                    const TransportOptions& options) {
  TransportResult result;
  TransportDriver driver(plan, options, &result);
  driver.run();
  return result;
}

}  // namespace ftss
