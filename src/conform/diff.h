// Structural comparison of execution histories, and the plan/history
// transformations the metamorphic oracles are built from.
//
// Two histories of the same plan produced by different engines (or by the
// same engine under a supposedly-transparent change: tracing attached,
// payloads deep-copied, processes renamed) must agree on every
// observer-visible fact: liveness, halting, clocks, states, message fates
// and payloads, suspect sets, manifested-faulty sets, coteries.  The differ
// reports each disagreement as a typed Divergence so harnesses can shrink
// and pin them.  Divergence itself lives with the replay books
// (check/replay_books.h), which report their own cross-checks in the same
// shape.
//
// Send records are compared as canonically-ordered multisets per round:
// engines may legitimately resolve a round's messages in different internal
// orders (delivery-slot drain vs event-queue sequence), so ordering inside a
// round is not an observable — content is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/plan.h"
#include "check/replay_books.h"  // Divergence
#include "sim/history.h"

namespace ftss {

// Every disagreement between `a` and `b`, per-process states, message
// payloads and §2.4 suspect sets included; only the first 16 are reported.
std::vector<Divergence> diff_histories(const History& a, const History& b);

// Stable content fingerprint of a history under the same canonicalization
// the differ uses (per-round send multisets).  Equal fingerprints <=> the
// differ finds nothing.
std::uint64_t history_fingerprint(const History& h);

// Structural deep copy: the result compares equal to `v` but shares no
// array/map nodes with it (every refcount is fresh).  Used by the
// COW-transparency oracle to run a system with all payload sharing severed.
Value deep_copy_value(const Value& v);

// Process renaming.  `perm` maps old id -> new id and must be a permutation
// of [0, n).  permute_plan relabels fault and corruption targets;
// permute_history relabels every process-indexed record (suspect members
// included).  State snapshots and payloads are passed through unchanged —
// callers diff them only for protocols whose state is id-free.
TrialPlan permute_plan(const TrialPlan& plan,
                       const std::vector<ProcessId>& perm);
History permute_history(const History& h, const std::vector<ProcessId>& perm);

// One-line rendering for reports: "kind@round: detail".
std::string describe(const Divergence& d);

}  // namespace ftss
