// Shared construction of the system a TrialPlan describes.
//
// run_trial (check/explorer.h), the metamorphic oracles (src/conform/) and
// the replay books both differential legs share (check/replay_books.h)
// must build *exactly* the same system from a plan — same process types,
// same weakenings, same corruption and fault wiring, same simulator
// configuration — or a divergence between them would measure setup skew
// rather than engine behavior.  The construction therefore lives here, in
// one place.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/plan.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace ftss {

// The processes the plan's mode/protocol/weakening selects, in id order.
// Returns an empty vector (and sets *error if non-null) for an unknown
// compiled protocol name.
std::vector<std::unique_ptr<SyncProcess>> build_trial_processes(
    const TrialPlan& plan, std::string* error = nullptr);

// The simulator configuration a plan runs under: its seed and jitter bound,
// full states recorded, and the process-wide lane default (threads = 0,
// the --sim-threads / $FTSS_SIM_THREADS knob every trial simulator
// inherits).
SyncConfig trial_sync_config(const TrialPlan& plan);

// Applies the plan's systemic corruptions and fault plans to a simulator
// freshly constructed over build_trial_processes(plan).  Must precede the
// first run_rounds call.
void configure_trial(SyncSimulator& sim, const TrialPlan& plan);

}  // namespace ftss
