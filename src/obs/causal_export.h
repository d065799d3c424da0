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
// The rendering is a Graphviz digraph for offline auditing.  A live run's
// trace draws the same message edges as Chrome flow arrows
// (trace_to_chrome, obs/trace.h).
#pragma once

#include <string>

#include "sim/history.h"

namespace ftss {

// Rank-aligned clusters, one per round, over the whole history.
std::string causal_dot_to_string(const History& h);

}  // namespace ftss
