// Composition of protocol modules on one asynchronous node.
//
// A node typically hosts several cooperating protocols — a heartbeat
// detector, the Figure 4 gossip transformation, a consensus protocol — that
// share the node's network identity.  ModuleHost is the AsyncProcess that
// owns them; each Module gets a private named channel.
//
// Wire layout (the envelope): a module's message travels as the 2-array
// [channel, body], its channel name string then its payload, read by
// position.  ModuleHost drops anything else unread.  A ModuleContext tags
// with any Value, so a module nests a sub-protocol the same way
// (RepeatedConsensus tags its CtConsensus with the instance number).
//
// Systemic failures corrupt the whole node: ModuleHost::restore_state hands
// each module the (arbitrary) sub-value at its channel key, so every module
// must tolerate garbage, exactly like the synchronous protocols.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "async/event_sim.h"

namespace ftss {

// A module's view of its node: an AsyncContext whose sends and broadcasts
// travel as [tag, body].  Valid only for the duration of one handler call.
class ModuleContext final : public AsyncContext {
 public:
  // `tag` must outlive the context: the host's stored channel name, or a
  // local of the caller's (a temporary would dangle, so it does not
  // compile).
  ModuleContext(AsyncContext& ctx, const Value& tag) : ctx_(ctx), tag_(tag) {}
  ModuleContext(AsyncContext& ctx, Value&& tag) = delete;

  Time now() const override { return ctx_.now(); }
  ProcessId self() const override { return ctx_.self(); }
  int process_count() const override { return ctx_.process_count(); }

  void send(ProcessId to, Value body) override;
  void broadcast(const Value& body) override;

 private:
  AsyncContext& ctx_;
  const Value& tag_;
};

class Module {
 public:
  virtual ~Module() = default;

  // Channel name; must be unique within a host.  ModuleHost reads it once,
  // at construction, so it must not change afterwards.
  virtual std::string channel() const = 0;

  virtual void on_start(ModuleContext& ctx) { (void)ctx; }
  virtual void on_tick(ModuleContext& ctx) { (void)ctx; }
  virtual void on_message(ModuleContext& ctx, ProcessId from,
                          const Value& body) = 0;

  virtual Value snapshot() const = 0;
  virtual void restore(const Value& state) = 0;
};

class ModuleHost : public AsyncProcess {
 public:
  explicit ModuleHost(std::vector<std::unique_ptr<Module>> modules);

  void on_start(AsyncContext& ctx) override;
  void on_tick(AsyncContext& ctx) override;
  void on_message(AsyncContext& ctx, ProcessId from,
                  const Value& payload) override;

  Value snapshot_state() const override;
  void restore_state(const Value& state) override;

  // Typed access for checkers/examples (nullptr if absent / wrong type).
  template <typename T>
  T* find(const std::string& channel) {
    for (std::size_t i = 0; i < modules_.size(); ++i) {
      if (channels_[i].as_string() == channel) {
        return dynamic_cast<T*>(modules_[i].get());
      }
    }
    return nullptr;
  }
  template <typename T>
  const T* find(const std::string& channel) const {
    for (std::size_t i = 0; i < modules_.size(); ++i) {
      if (channels_[i].as_string() == channel) {
        return dynamic_cast<const T*>(modules_[i].get());
      }
    }
    return nullptr;
  }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
  // modules_[i]->channel(), read once: the tag of module i's envelopes.
  std::vector<Value> channels_;
};

}  // namespace ftss
