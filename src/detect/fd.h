// Failure-detector abstractions (Chandra–Toueg style).
//
// A detector is queried locally: suspects(s) is this node's current belief
// that s has crashed.  The classes of detectors used here:
//   * ◇P-ish heartbeat detector (HeartbeatFd): strong completeness always,
//     eventual strong accuracy after GST;
//   * ◇W view (weak_view): the heartbeat detector adversarially weakened so
//     that suspicion of s is visible only at one witness process — exactly
//     the Eventually Weak detector the paper assumes as input to Figure 4;
//   * ◇S (GossipStrongFd): the paper's Figure 4 transformation of ◇W into an
//     Eventually Strong detector that needs no initialization.
#pragma once

#include <functional>

#include "sim/types.h"

namespace ftss {

class FailureDetector {
 public:
  virtual ~FailureDetector() = default;
  virtual bool suspects(ProcessId s) const = 0;
};

// The detect(s) predicate handed to the Figure 4 transformation.
using WeakDetect = std::function<bool(ProcessId s)>;

// The witness for process s under the adversarial ◇W weakening: only this
// process's suspicion of s is exposed.  (Weak completeness then requires the
// witness of a crashed process to stay alive; tests and benches arrange
// crash patterns accordingly.)
constexpr ProcessId weak_witness(ProcessId s, int n) { return (s + 1) % n; }

// detect(s) := "I am s's witness and my local detector suspects s".
WeakDetect weak_view(const FailureDetector* local, ProcessId self, int n);

// detect(s) := "my local detector suspects s" (un-weakened; gives the
// transformation a ◇P input — useful to isolate Figure 4's own behavior).
WeakDetect full_view(const FailureDetector* local);

}  // namespace ftss
