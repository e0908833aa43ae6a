// Discrete-event simulation engine.
//
// Events are ordered by (global time, sequence). All node behaviour —
// message delivery, disk service, lease timers — runs inside events. Ties
// are broken by insertion order so runs are fully deterministic.
//
// Hot-path design: callbacks live in a generation-checked slot pool and are
// stored as small-buffer EventFn (no heap allocation for typical closures,
// no hashing anywhere). A TimerId encodes {slot, generation}, so cancel() is
// two array accesses.
//
// The queue has two tiers, because the lease workload cancels about half of
// the timers it arms (opportunistic renewal re-arms the expiry timer on every
// ACK, and every ACK cancels a retransmit timer):
//
//  * Near tier: a 4-ary min-heap holding the events due up to the end of the
//    current bucket. Cancelled entries become tombstones that are discarded
//    lazily; when they outnumber the live entries the heap is compacted.
//  * Ring: later timers are linked into one of kRingSize buckets of
//    kBucketWidth ns each (a hashed timing wheel, Varghese & Lauck), through
//    the slot pool itself, with an occupancy bitmap to skip empty buckets.
//    Cancelling a bucketed timer unlinks it in O(1) and leaves nothing
//    behind. When the near tier runs dry, the next occupied bucket moves
//    into the heap in one O(n) heapify.
//  * Overflow: timers past the ring's horizon wait in a second heap that
//    compacts like the near one, and move into the ring as it turns.
//
// A bucketed timer takes its sequence number when its bucket moves into the
// heap, in the order the timers were scheduled; every timer scheduled
// straight into the heap at the same instant comes later. So the execution
// order is exactly (time, schedule order), whichever tier a timer waited in.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace stank::sim {

using TimerId = std::uint64_t;

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedules fn at absolute global time t (>= now). Returns an id usable
  // with cancel().
  TimerId schedule_at(SimTime t, EventFn fn);
  TimerId schedule_after(Duration d, EventFn fn) {
    return schedule_at(now_ + d, std::move(fn));
  }

  // Cancels a pending event; a no-op if it already ran or was cancelled.
  // Returns true if the event was still pending.
  bool cancel(TimerId id);

  [[nodiscard]] bool pending(TimerId id) const {
    const std::uint32_t s = slot_of(id);
    return s < num_slots_ && slot(s).gen == gen_of(id);
  }

  // Executes the next event. Returns false if the queue is empty.
  bool step();

  // Runs events until the queue is empty, the horizon is passed, or stop()
  // is called. Events scheduled exactly at the horizon still run. An idle or
  // drained engine advances its clock to the horizon; a stopped one stays at
  // the time of the last executed event.
  void run_until(SimTime horizon);

  // Runs until the queue drains or the safety limit on executed events trips
  // (which aborts: a drained queue is the only legitimate way to finish).
  void run();

  // Requests that the current run_until()/run() return after the current
  // event completes.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t events_pending() const { return live_; }

  // Sentinel for "no pending event".
  static constexpr SimTime kNever{INT64_MAX};

  // Time of the earliest live pending event, or kNever when the queue is
  // empty. Non-const: discards dead heap tops on the way and may move the
  // next bucket into the heap, amortized like step(). The sharded engine
  // uses this to skip idle windows deterministically.
  [[nodiscard]] SimTime next_event_time();

  // Entries the queue holds in all tiers, live + tombstones. Compaction
  // keeps this O(live timers); exposed so tests can assert the bound.
  [[nodiscard]] std::size_t queue_depth() const {
    return live_ + tombstones_ + overflow_tombstones_;
  }

  // Safety valve against runaway event loops; default is generous.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // A registered callback. `gen` changes whenever the slot is vacated, so a
  // stale TimerId or heap entry can never touch a reused slot. `next` links
  // the free list, or the bucket list while the timer waits in the ring.
  // `where` says which tier holds the timer: kInHeap, kInOverflow, or — in
  // the ring — the previous slot of its bucket list, or kHeadTag | ring
  // index for the first. A bucketed timer keeps its time as `offset` into
  // the bucket. `where` and `offset` fill what was the slot's alignment
  // padding, so a slot stays 80 B.
  struct Slot {
    EventFn fn;
    std::uint32_t gen{1};
    std::uint32_t next{kNoSlot};
    std::uint32_t where{kInHeap};
    std::uint32_t offset{0};
  };
  static_assert(sizeof(Slot) <= 80);

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::uint32_t kInHeap = ~std::uint32_t{0};
  static constexpr std::uint32_t kInOverflow = kInHeap - 1;
  static constexpr std::uint32_t kHeadTag = 1u << 31;  // slot indices stay below
  // Slots live in fixed-size chunks so their addresses are stable while the
  // pool grows — step() runs callbacks in place, and a callback scheduling
  // new events must not invalidate the slot it is running from.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  // Ring geometry: 2^20 ns (~1.05 ms) buckets, 16,384 of them (~17.2 s), so
  // lease (tau) and retransmit timers land in the ring and only timers
  // further out than the horizon reach the overflow heap.
  static constexpr unsigned kBucketShift = 20;
  static constexpr std::int64_t kBucketWidth = std::int64_t{1} << kBucketShift;
  static constexpr std::uint32_t kRingSize = 1u << 14;
  static constexpr std::uint32_t kRingMask = kRingSize - 1;
  static constexpr std::uint32_t kRingWords = kRingSize / 64;

  static TimerId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<TimerId>(gen) << 32) | slot;
  }
  static std::uint32_t slot_of(TimerId id) { return static_cast<std::uint32_t>(id); }
  static std::uint32_t gen_of(TimerId id) { return static_cast<std::uint32_t>(id >> 32); }
  static std::uint64_t bucket_of(SimTime t) {
    return static_cast<std::uint64_t>(t.ns) >> kBucketShift;
  }

  static bool entry_before(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  [[nodiscard]] Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  [[nodiscard]] bool entry_live(const Entry& e) const { return slot(e.slot).gen == e.gen; }

  // The queue storage an engine hands to the next one on its thread.
  struct Tiers {
    std::vector<Entry> heap;
    std::vector<Entry> overflow;
    std::vector<std::uint32_t> ring;  // kRingSize bucket heads, all kNoSlot
  };

  // Thread-local recycling of the bulk allocations — slot chunks and the
  // queue tiers — so back-to-back engines (fuzz episodes, bench sweeps)
  // reuse the previous engine's memory instead of re-growing from empty.
  // Donated chunks are scrubbed (callbacks destroyed, generations reset) and
  // donated rings emptied in ~Engine, off every hot path.
  static std::vector<std::unique_ptr<Slot[]>>& chunk_pool();
  static std::vector<Tiers>& tiers_pool();

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  // Makes heap_.front() the earliest live event: pops tombstones and, when
  // the near tier is empty, moves the next occupied bucket into it. Returns
  // false when no event is pending anywhere.
  bool settle() {
    if (tombstones_ != 0) discard_dead_top();
    return !heap_.empty() || promote_next_bucket();
  }
  void discard_dead_top();  // pops tombstones off the heap top
  bool promote_next_bucket();
  void fire_top();  // pops and runs heap_.front(); settle() returned true

  void ring_link(std::uint32_t idx, std::uint64_t bucket, SimTime at);
  void ring_unlink(std::uint32_t idx);
  // Distance from cur_bucket_ to the next occupied bucket, 0 if none.
  [[nodiscard]] std::uint64_t next_occupied_distance() const;

  // 4-ary min-heap over a vector: half the depth of a binary heap and each
  // sibling scan stays within two cache lines, which is what the pop path is
  // bounded by at queue sizes the sweeps reach.
  static void heap_push(std::vector<Entry>& h, const Entry& e);
  static void heap_pop_top(std::vector<Entry>& h);
  static void heap_sift_down(std::vector<Entry>& h, std::size_t hole, const Entry& e);
  static void heapify(std::vector<Entry>& h);
  // Counts a cancelled entry of h; compacts h once tombstones outnumber the
  // live entries.
  void add_tombstone(std::vector<Entry>& h, std::size_t& tombstones);

  SimTime now_{};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::uint64_t event_limit_{500'000'000};
  bool stop_requested_{false};

  // The heap holds every queued timer in buckets <= cur_bucket_, the ring
  // those in (cur_bucket_, cur_bucket_ + kRingSize), the overflow the rest.
  std::uint64_t cur_bucket_{0};
  std::vector<Entry> heap_;
  std::vector<Entry> overflow_;
  std::vector<std::uint32_t> ring_;
  std::array<std::uint64_t, kRingWords> occupied_{};

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t num_slots_{0};
  std::uint32_t free_head_{kNoSlot};
  std::size_t live_{0};
  std::size_t tombstones_{0};
  std::size_t overflow_tombstones_{0};
};

}  // namespace stank::sim
