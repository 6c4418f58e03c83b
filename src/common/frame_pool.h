// FramePool: the per-thread block pool for coroutine frames and cells.
//
// Two allocation sources sit on the step path: every nested algorithm
// call opens a coroutine frame (sim/coro.h), and every tuple a process
// writes and every snapshot cell array it copies is a CellBlock
// (common/reg_val.h). Both allocate and free blocks of a few dozen to a
// few hundred bytes at about the step rate, so both go through this pool
// instead of the general heap.
//
// A freed block goes on its thread's free list for its size class
// (kGranule-byte steps), and the next block of that class on that thread
// reuses it. The list only ever holds blocks that were freed, so never
// more than were live at once, and at most kCap per class; beyond that,
// and for blocks above the top class, blocks go straight back to
// ::operator delete. Every pooled block was allocated at its full class
// size, so a block may be made on one thread and freed on another. A
// block freed after its thread's pool was torn down (thread exit) also
// goes to ::operator delete. Under AddressSanitizer a pooled block stays
// poisoned until it is handed out again, so a use of a destroyed frame or
// a dropped tuple still reports.
//
// Which block a frame or a tuple lands in never reaches the simulation:
// no trace, digest or schedule reads an address.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace wfd {

class FramePool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 32;  // blocks up to 2 KiB
  static constexpr std::uint32_t kCap = 512;   // pooled blocks per class

  static void* allocate(std::size_t n) {
    const std::size_t c = classOf(n);
    if (c >= kClasses) return ::operator new(n);
    State& s = state();
    Block* b = s.head[c];
    if (b == nullptr) return ::operator new(blockSize(c));
    unpoison(b, c);
    s.head[c] = b->next;
    --s.count[c];
    return b;
  }

  // `n` is the size the block was allocated with.
  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t c = classOf(n);
    if (c >= kClasses) {
      ::operator delete(p, n);
      return;
    }
    State& s = state();
    if (s.torn_down || s.count[c] >= kCap) {
      ::operator delete(p, blockSize(c));
      return;
    }
    if (!s.drain_armed) armDrain();
    auto* b = static_cast<Block*>(p);
    b->next = s.head[c];
    s.head[c] = b;
    ++s.count[c];
    poison(b, c);
  }

  // The size class a block of n bytes falls in; kClasses and above are
  // not pooled.
  static constexpr std::size_t classOf(std::size_t n) {
    return n == 0 ? 0 : (n - 1) / kGranule;
  }
  // Blocks pooled on this thread in size class c.
  [[nodiscard]] static std::uint32_t pooled(std::size_t c) {
    return state().count[c];
  }
  // Hand every block pooled on this thread back to ::operator delete.
  static void trim() noexcept {
    State& s = state();
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (Block* b = s.head[c]) {
        unpoison(b, c);
        s.head[c] = b->next;
        ::operator delete(b, blockSize(c));
      }
      s.count[c] = 0;
    }
  }

 private:
  struct Block {
    Block* next;
  };
  // Trivially destructible, so it stays usable while the thread's other
  // thread_local objects are destroyed; `torn_down` tells deallocate that
  // the drain below has already run.
  struct State {
    std::array<Block*, kClasses> head{};
    std::array<std::uint32_t, kClasses> count{};
    bool drain_armed = false;
    bool torn_down = false;
  };
  // Empties the pool at thread exit. Armed by the first pooled free, so it
  // is destroyed before any thread_local constructed earlier that may
  // still own a frame or a cell block.
  struct Drain {
    Drain() = default;
    Drain(const Drain&) = delete;
    Drain& operator=(const Drain&) = delete;
    ~Drain() {
      trim();
      state().torn_down = true;
    }
  };

  static State& state() {
    thread_local constinit State s{};
    return s;
  }
  static void armDrain() noexcept {
    thread_local Drain drain;
    (void)drain;
    state().drain_armed = true;
  }
  static constexpr std::size_t blockSize(std::size_t c) {
    return (c + 1) * kGranule;
  }
  static void poison([[maybe_unused]] Block* b,
                     [[maybe_unused]] std::size_t c) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(b, blockSize(c));
#endif
  }
  static void unpoison([[maybe_unused]] Block* b,
                       [[maybe_unused]] std::size_t c) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(b, blockSize(c));
#endif
  }
};

}  // namespace wfd
