#include "async/module.h"

#include <stdexcept>

namespace ftss {

void ModuleContext::send(ProcessId to, Value body) {
  ctx_.send(to, Value::tuple(tag_, std::move(body)));
}

void ModuleContext::broadcast(const Value& body) {
  // Wrapped once: every destination's copy shares this one envelope.
  ctx_.broadcast(Value::tuple(tag_, body));
}

ModuleHost::ModuleHost(std::vector<std::unique_ptr<Module>> modules)
    : modules_(std::move(modules)) {
  for (const auto& m : modules_) channels_.emplace_back(m->channel());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    for (std::size_t j = i + 1; j < channels_.size(); ++j) {
      if (channels_[i] == channels_[j]) {
        throw std::logic_error("duplicate module channel: " +
                               channels_[i].as_string());
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
  // Anything but [channel, body] is malformed wire data: drop it.
  if (!payload.is_array()) return;
  const Value::Array& envelope = payload.as_array();
  if (envelope.size() != 2 || !envelope[0].is_string()) return;
  const std::string& channel = envelope[0].as_string();
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    if (channels_[i].as_string() == channel) {
      ModuleContext mctx(ctx, channels_[i]);
      modules_[i]->on_message(mctx, from, envelope[1]);
      return;
    }
  }
}

Value ModuleHost::snapshot_state() const {
  Value v;
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    v[channels_[i].as_string()] = modules_[i]->snapshot();
  }
  return v;
}

void ModuleHost::restore_state(const Value& state) {
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    modules_[i]->restore(state.at(channels_[i].as_string()));
  }
}

}  // namespace ftss
