// Composition of protocol modules on one asynchronous node.
//
// A node typically hosts several cooperating protocols — a heartbeat
// detector, the Figure 4 gossip transformation, a consensus protocol — that
// share the node's network identity.  ModuleHost is the AsyncProcess that
// owns them; each Module gets a private named channel, and the host wraps
// payloads as {"mod": <channel>, "body": <module payload>} on the wire.
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

class ModuleContext {
 public:
  ModuleContext(AsyncContext& ctx, std::string channel)
      : ctx_(ctx), channel_(std::move(channel)) {}

  Time now() const { return ctx_.now(); }
  ProcessId self() const { return ctx_.self(); }
  int process_count() const { return ctx_.process_count(); }

  void send(ProcessId to, Value body);
  void broadcast(Value body);

 private:
  AsyncContext& ctx_;
  std::string channel_;
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
      if (channels_[i] == channel) return dynamic_cast<T*>(modules_[i].get());
    }
    return nullptr;
  }
  template <typename T>
  const T* find(const std::string& channel) const {
    for (std::size_t i = 0; i < modules_.size(); ++i) {
      if (channels_[i] == channel) {
        return dynamic_cast<const T*>(modules_[i].get());
      }
    }
    return nullptr;
  }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<std::string> channels_;  // modules_[i]->channel(), read once
};

}  // namespace ftss
