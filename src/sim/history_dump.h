// Human-readable rendering of recorded histories — the external observer's
// console.  Used by examples and invaluable when debugging adversarial
// schedules; kept in the library so downstream users get it too.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/history.h"

namespace ftss {

struct DumpOptions {
  Round from_round = 1;
  Round to_round = 0;        // 0 = end of history
  bool show_sends = false;   // per-message lines (verbose): fate + cause,
                             // with "(sent @r, delay k)" for jittered ones
  bool show_suspects = false;  // per-process §2.4 suspect sets (Π⁺ runs;
                               // requires SyncConfig.record_states)
};

// Renders one row per round: clocks of live processes, halted/crashed
// markers, the coterie, and newly-manifested faults.
void dump_history(std::ostream& os, const History& h, DumpOptions options = {});

// Convenience: dump to a string (tests, logging).
std::string history_to_string(const History& h, DumpOptions options = {});

}  // namespace ftss
