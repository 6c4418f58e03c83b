// Fig. 3: transforming any stable f-non-trivial failure detector D into
// Upsilon^f (the necessity half of Theorem 10).
//
// Every process runs two logically parallel tasks, interleaved here into
// one automaton loop:
//   Task 1: periodically query D and write the value with an
//           ever-increasing timestamp into register R[i].
//   Task 2: proceed in rounds. For the currently observed stable value d,
//           deterministically evaluate (S, w) = phi_D(d) (Corollary 9).
//           Set the emulated output to Pi; if S != Pi, wait until w
//           batches of steps are observed in which every process reported
//           (by advancing R[j] twice) that D output d — or until some
//           process publishes its completed observation in Obs[j] — then
//           set the output to S. Seeing any reported value != d starts a
//           new round.
// Why the output is legal (Theorem 10 proof): if the emulation sticks at
// Pi because some R[j] stops advancing, then p_j is faulty, so
// Pi != correct(F). If it reaches S, the observed batches would make a
// run with correct(F) = correct(sigma) an f-resilient sample of D,
// contradicting phi_D's defining property — so S != correct(F).
//
// The non-constructive step of the paper (the existence of phi_D) is a
// finite search here: core/phi_maps.h derives phi_D from D's axioms.
#pragma once

#include "core/phi_maps.h"
#include "sim/env.h"

namespace wfd::core {

using sim::Coro;
using sim::Env;
using sim::Unit;

// The reduction automaton. Publishes the emulated Upsilon^f output via
// env.publish(); runs forever. Requires the source detector D installed
// in the world and phi to be a correct phi_D for it; throws SimAbort if D
// stabilizes on a value phi designates nothing for.
Coro<Unit> extractUpsilonF(Env& env, PhiPtr phi);

}  // namespace wfd::core
