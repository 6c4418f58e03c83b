// Coroutine machinery for simulated process automata.
//
// The paper models computation as atomic steps: in one step a process (i)
// invokes one operation on a shared object or queries its failure detector
// and (ii) applies the response to its automaton. We express an automaton
// as a C++20 coroutine: every shared-memory operation / FD query is a
// `co_await` that suspends back to the scheduler, so one scheduler resume
// == one atomic step of the model, and algorithm code reads like the
// paper's pseudocode.
//
// Coro<T> supports nesting (an algorithm co_awaits a subroutine such as
// k-converge, which itself awaits memory operations) via continuation
// chaining. Deliberately, NO coroutine ever resumes another directly:
// every await_suspend merely records the next handle in the process
// context and returns, and the scheduler drives a flat resume loop. This
// keeps exactly one coroutine resumption on the machine stack at a time,
// which (a) sidesteps the GCC symmetric-transfer non-tail-call pitfalls
// (destroying a completed child frame while its resume call is still on
// the stack corrupts the heap under -O0/sanitizers), and (b) makes step
// accounting trivial: the scheduler resumes handles until the process
// either requests an atomic operation or finishes. The simulation is
// single-threaded; a per-thread "current process" pointer connects
// awaitables to the process context the scheduler is resuming.
//
// Frames are recycled: algorithms open one per nested call (k-converge,
// safe agreement, an Afek snapshot op; a native snapshot op awaits its
// OpAwait directly and opens none), so Coro<T>'s promise allocates
// through FramePool (common/frame_pool.h), the per-thread size-class
// block pool it shares with tuples and snapshot cells, instead of going
// to the heap on every call.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "common/frame_pool.h"
#include "sim/ops.h"

namespace wfd::sim {

class World;

// Per-process control block shared between the scheduler and the leaf
// awaitables of that process's coroutine stack.
struct ProcCtx {
  Pid pid = -1;
  // The next coroutine handle the scheduler's resume loop should run:
  // set by OpAwait (the suspended leaf), by Coro<T>::await_suspend (a
  // child starting) and by the final awaiter (control returning to the
  // continuation). Null once the top-level coroutine finishes.
  std::coroutine_handle<> resume_point;
  // Operation requested by the pending leaf awaitable, if any.
  std::optional<Op> pending;
  // Result of the operation the scheduler just executed.
  OpResult result;
  bool done = false;
  Time steps = 0;  // steps this process has taken
  // Model-conformance wiring (sim/step_audit.h): set by the scheduler of
  // an audited world, so OpAwait::await_suspend reports every requested
  // operation (and whether a previous request was still pending — a
  // violation of the one-op-per-step model) before the scheduler executes
  // it.
  const World* world = nullptr;
};

// The process the scheduler is currently resuming (single-threaded).
ProcCtx*& currentProc();

// Hand c's requested operation to its world's current auditor (the world
// may swap it on restore, so it is looked up per request).
void reportOpRequest(const ProcCtx& c, const Op& op);

// Awaitable that performs one atomic shared-memory / FD step.
struct OpAwait {
  Op op;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    ProcCtx* c = currentProc();
    assert(c != nullptr && "op awaited outside a scheduled process");
    if (c->world != nullptr) reportOpRequest(*c, op);
    c->pending = std::move(op);
    c->resume_point = h;
    // Returning void unwinds the whole resume() call back to the scheduler.
  }
  OpResult await_resume() {
    ProcCtx* c = currentProc();
    assert(c != nullptr);
    return std::move(c->result);
  }
};

struct Unit {};

// A lazily-started coroutine returning T. Awaiting a Coro<T> transfers
// control into it; when it finishes, control returns to the awaiter (or,
// for a top-level process coroutine, to the scheduler's resume() call).
template <class T>
class Coro {
 public:
  struct promise_type {
    std::optional<T> value;
    std::exception_ptr error;
    std::coroutine_handle<> continuation;  // awaiting parent, if any

    static void* operator new(std::size_t n) { return FramePool::allocate(n); }
    static void operator delete(void* p, std::size_t n) noexcept {
      FramePool::deallocate(p, n);
    }

    Coro get_return_object() {
      return Coro(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // Hand control back to the continuation via the scheduler's
        // resume loop (never a direct resume; see the file comment).
        ProcCtx* c = currentProc();
        assert(c != nullptr);
        c->resume_point = h.promise().continuation;  // null for top-level
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { error = std::current_exception(); }
  };

  Coro() = default;
  explicit Coro(std::coroutine_handle<promise_type> h) : h_(h) {}
  Coro(Coro&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Coro& operator=(Coro&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  ~Coro() { destroy(); }

  // Awaiting a child coroutine: queue it in the scheduler's resume loop.
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> parent) {
    h_.promise().continuation = parent;
    ProcCtx* c = currentProc();
    assert(c != nullptr);
    c->resume_point = h_;
  }
  T await_resume() {
    auto& p = h_.promise();
    if (p.error) std::rethrow_exception(p.error);
    assert(p.value.has_value());
    return std::move(*p.value);
  }

  // Top-level driving (used by the scheduler/runner only).
  [[nodiscard]] std::coroutine_handle<> handle() const { return h_; }
  [[nodiscard]] bool done() const { return !h_ || h_.done(); }
  [[nodiscard]] bool failed() const {
    return h_ && h_.done() && h_.promise().error != nullptr;
  }
  void rethrowIfFailed() const {
    if (failed()) std::rethrow_exception(h_.promise().error);
  }
  [[nodiscard]] const T& result() const {
    assert(done() && h_.promise().value.has_value());
    return *h_.promise().value;
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  std::coroutine_handle<promise_type> h_;
};

}  // namespace wfd::sim
