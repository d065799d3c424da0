// Happened-before DAG export (Definition 2.3's ->_H relation) from a
// recorded History.
//
// Nodes are (process, round) events; edges are program order (p@r -> p@r+1
// while p is alive) and message order (sender@sent_round -> dest@delivery
// round for every *delivered* send — drops do not create causality).  The
// coterie of the full history is exactly the set of processes with a path
// to every correct process, so the DOT rendering highlights coterie members
// and annotates the rounds where the coterie changed; a wrong coterie
// becomes visible as a missing path.
//
// Two formats:
//  * export_causal_dot    — Graphviz digraph for offline auditing;
//  * export_chrome_flows  — Chrome trace_event JSON whose "s"/"f" flow
//    arrows are precisely the message edges (load in chrome://tracing or
//    https://ui.perfetto.dev).  Built straight from the History, so saved
//    histories can be visualized without re-running with a live sink.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/history.h"

namespace ftss {

// Rank-aligned clusters, one per round, over the whole history.
void export_causal_dot(std::ostream& os, const History& h);
std::string causal_dot_to_string(const History& h);

// kChromeUsPerRound (obs/trace.h) virtual microseconds per round.
void export_chrome_flows(std::ostream& os, const History& h);
std::string chrome_flows_to_string(const History& h);

}  // namespace ftss
