#include "async/module.h"

#include <stdexcept>

namespace ftss {

void ModuleContext::send(ProcessId to, Value body) {
  Value wrapped;
  wrapped["mod"] = Value(channel_);
  wrapped["body"] = std::move(body);
  ctx_.send(to, std::move(wrapped));
}

void ModuleContext::broadcast(Value body) {
  Value wrapped;
  wrapped["mod"] = Value(channel_);
  wrapped["body"] = std::move(body);
  ctx_.broadcast(wrapped);
}

ModuleHost::ModuleHost(std::vector<std::unique_ptr<Module>> modules)
    : modules_(std::move(modules)) {
  for (const auto& m : modules_) channels_.push_back(m->channel());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    for (std::size_t j = i + 1; j < channels_.size(); ++j) {
      if (channels_[i] == channels_[j]) {
        throw std::logic_error("duplicate module channel: " + channels_[i]);
      }
    }
  }
}

void ModuleHost::on_start(AsyncContext& ctx) {
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    ModuleContext mctx(ctx, channels_[i]);
    modules_[i]->on_start(mctx);
  }
}

void ModuleHost::on_tick(AsyncContext& ctx) {
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    ModuleContext mctx(ctx, channels_[i]);
    modules_[i]->on_tick(mctx);
  }
}

void ModuleHost::on_message(AsyncContext& ctx, ProcessId from,
                            const Value& payload) {
  const Value& channel = payload.at("mod");
  if (!channel.is_string()) return;  // malformed wire data: drop
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    if (channels_[i] == channel.as_string()) {
      ModuleContext mctx(ctx, channels_[i]);
      modules_[i]->on_message(mctx, from, payload.at("body"));
      return;
    }
  }
}

Value ModuleHost::snapshot_state() const {
  Value v;
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    v[channels_[i]] = modules_[i]->snapshot();
  }
  return v;
}

void ModuleHost::restore_state(const Value& state) {
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    modules_[i]->restore(state.at(channels_[i]));
  }
}

}  // namespace ftss
