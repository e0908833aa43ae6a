#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace stank::sim {

namespace {
// Bounds on the per-thread storage pools: 256 chunks is 64k slots (80 B
// each, ~5 MB), far above any tier-1 scenario's live-timer peak; overflow
// simply frees.
constexpr std::size_t kMaxPooledChunks = 256;
constexpr std::size_t kMaxPooledTiers = 2;
}  // namespace

std::vector<std::unique_ptr<Engine::Slot[]>>& Engine::chunk_pool() {
  thread_local std::vector<std::unique_ptr<Slot[]>> pool;
  return pool;
}

std::vector<Engine::Tiers>& Engine::tiers_pool() {
  thread_local std::vector<Tiers> pool;
  return pool;
}

Engine::Engine() {
  auto& tpool = tiers_pool();
  if (!tpool.empty()) {
    Tiers& t = tpool.back();
    heap_ = std::move(t.heap);
    overflow_ = std::move(t.overflow);
    ring_ = std::move(t.ring);
    tpool.pop_back();
  } else {
    ring_.assign(kRingSize, kNoSlot);
  }
}

Engine::~Engine() {
  auto& cpool = chunk_pool();
  for (auto& chunk : chunks_) {
    if (cpool.size() >= kMaxPooledChunks) break;
    for (std::uint32_t i = 0; i < kChunkSize; ++i) {
      chunk[i].fn.reset();
      chunk[i].gen = 1;
      chunk[i].next = kNoSlot;
    }
    cpool.push_back(std::move(chunk));
  }
  auto& tpool = tiers_pool();
  if (tpool.size() < kMaxPooledTiers) {
    for (std::uint32_t w = 0; w < kRingWords; ++w) {
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        ring_[w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits))] = kNoSlot;
      }
    }
    heap_.clear();
    overflow_.clear();
    tpool.push_back(Tiers{std::move(heap_), std::move(overflow_), std::move(ring_)});
  }
}

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slot(idx).next;
    return idx;
  }
  STANK_ASSERT_MSG(num_slots_ < kHeadTag, "timer slot pool exhausted");
  if ((num_slots_ & (kChunkSize - 1)) == 0) {
    auto& cpool = chunk_pool();
    if (!cpool.empty()) {
      chunks_.push_back(std::move(cpool.back()));
      cpool.pop_back();
    } else {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
  }
  return num_slots_++;
}

void Engine::release_slot(std::uint32_t idx) {
  Slot& s = slot(idx);
  s.fn.reset();
  ++s.gen;  // invalidates every outstanding TimerId / heap entry for the slot
  s.next = free_head_;
  free_head_ = idx;
  --live_;
}

void Engine::heap_push(std::vector<Entry>& h, const Entry& e) {
  std::size_t i = h.size();
  h.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_before(e, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

void Engine::heap_sift_down(std::vector<Entry>& h, std::size_t hole, const Entry& e) {
  const std::size_t n = h.size();
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entry_before(h[c], h[best])) best = c;
    }
    if (!entry_before(h[best], e)) break;
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = e;
}

void Engine::heap_pop_top(std::vector<Entry>& h) {
  const Entry last = h.back();
  h.pop_back();
  if (!h.empty()) {
    heap_sift_down(h, 0, last);
  }
}

void Engine::heapify(std::vector<Entry>& h) {
  // Bottom-up: O(n), and correct because every subtree below the last parent
  // is already a heap of one.
  if (h.size() > 1) {
    for (std::size_t i = (h.size() - 2) / 4 + 1; i-- > 0;) {
      const Entry e = h[i];
      heap_sift_down(h, i, e);
    }
  }
}

void Engine::ring_link(std::uint32_t idx, std::uint64_t bucket, SimTime at) {
  const auto r = static_cast<std::uint32_t>(bucket & kRingMask);
  Slot& s = slot(idx);
  s.offset = static_cast<std::uint32_t>(at.ns & (kBucketWidth - 1));
  s.where = kHeadTag | r;
  s.next = ring_[r];
  if (s.next != kNoSlot) {
    slot(s.next).where = idx;
  } else {
    occupied_[r / 64] |= std::uint64_t{1} << (r % 64);
  }
  ring_[r] = idx;
}

void Engine::ring_unlink(std::uint32_t idx) {
  const Slot& s = slot(idx);
  if (s.next != kNoSlot) {
    slot(s.next).where = s.where;
  }
  if ((s.where & kHeadTag) != 0) {
    const std::uint32_t r = s.where & ~kHeadTag;
    ring_[r] = s.next;
    if (s.next == kNoSlot) {
      occupied_[r / 64] &= ~(std::uint64_t{1} << (r % 64));
    }
  } else {
    slot(s.where).next = s.next;
  }
}

std::uint64_t Engine::next_occupied_distance() const {
  // The current bucket's ring entry is always empty, so a full circle from
  // the bucket after it sees every occupied bucket; the start word is read a
  // second time for the bits below the start.
  const auto cur = static_cast<std::uint32_t>(cur_bucket_ & kRingMask);
  const std::uint32_t start = (cur + 1) & kRingMask;
  std::uint32_t w = start / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  for (std::uint32_t n = 0; n <= kRingWords; ++n) {
    if (bits != 0) {
      const std::uint32_t r = w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
      return (r - cur) & kRingMask;
    }
    w = (w + 1) % kRingWords;
    bits = occupied_[w];
  }
  return 0;
}

bool Engine::promote_next_bucket() {
  // Only called with no live entry in the heap, so the heap is empty:
  // discard_dead_top() popped every tombstone.
  if (const std::uint64_t d = next_occupied_distance(); d != 0) {
    cur_bucket_ += d;
  } else {
    while (!overflow_.empty() && !entry_live(overflow_.front())) {
      heap_pop_top(overflow_);
      --overflow_tombstones_;
    }
    if (overflow_.empty()) {
      return false;
    }
    cur_bucket_ = bucket_of(overflow_.front().at);
  }
  // The ring's window moved: overflow timers it now reaches join their
  // buckets, in (time, seq) order.
  while (!overflow_.empty()) {
    const Entry e = overflow_.front();
    if (entry_live(e)) {
      const std::uint64_t b = bucket_of(e.at);
      if (b - cur_bucket_ >= kRingSize) break;
      ring_link(e.slot, b, e.at);
    } else {
      --overflow_tombstones_;
    }
    heap_pop_top(overflow_);
  }
  // Move the current bucket into the heap. Its list runs newest first, so
  // reversing it restores schedule order before the sequence numbers are
  // handed out.
  const auto r = static_cast<std::uint32_t>(cur_bucket_ & kRingMask);
  const SimTime base{static_cast<std::int64_t>(cur_bucket_ << kBucketShift)};
  for (std::uint32_t i = ring_[r]; i != kNoSlot;) {
    Slot& s = slot(i);
    s.where = kInHeap;
    heap_.push_back(Entry{base + Duration{s.offset}, 0, i, s.gen});
    i = s.next;
  }
  ring_[r] = kNoSlot;
  occupied_[r / 64] &= ~(std::uint64_t{1} << (r % 64));
  std::reverse(heap_.begin(), heap_.end());
  for (Entry& e : heap_) {
    e.seq = next_seq_++;
  }
  heapify(heap_);
  return true;
}

TimerId Engine::schedule_at(SimTime t, EventFn fn) {
  STANK_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  STANK_ASSERT(fn != nullptr);
  const std::uint32_t idx = acquire_slot();
  Slot& s = slot(idx);
  s.fn = std::move(fn);
  ++live_;
  const std::uint64_t b = bucket_of(t);
  if (b <= cur_bucket_) {
    s.where = kInHeap;
    heap_push(heap_, Entry{t, next_seq_++, idx, s.gen});
  } else if (b - cur_bucket_ < kRingSize) {
    ring_link(idx, b, t);
  } else {
    s.where = kInOverflow;
    heap_push(overflow_, Entry{t, next_seq_++, idx, s.gen});
  }
  return make_id(idx, s.gen);
}

bool Engine::cancel(TimerId id) {
  const std::uint32_t idx = slot_of(id);
  if (idx >= num_slots_ || slot(idx).gen != gen_of(id)) {
    return false;  // already ran, already cancelled, or never existed
  }
  const std::uint32_t where = slot(idx).where;
  if (where != kInHeap && where != kInOverflow) {
    ring_unlink(idx);  // leaves nothing behind
  }
  release_slot(idx);
  // A heap entry stays behind as a tombstone, discarded lazily.
  if (where == kInHeap) {
    add_tombstone(heap_, tombstones_);
  } else if (where == kInOverflow) {
    add_tombstone(overflow_, overflow_tombstones_);
  }
  return true;
}

void Engine::add_tombstone(std::vector<Entry>& h, std::size_t& tombstones) {
  if (++tombstones * 2 > h.size() && h.size() > 64) {
    std::erase_if(h, [this](const Entry& e) { return !entry_live(e); });
    heapify(h);
    tombstones = 0;
  }
}

void Engine::discard_dead_top() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    heap_pop_top(heap_);
    --tombstones_;
  }
}

SimTime Engine::next_event_time() {
  return settle() ? heap_.front().at : kNever;
}

void Engine::fire_top() {
  const Entry e = heap_.front();
  heap_pop_top(heap_);
  STANK_ASSERT(e.at >= now_);
  now_ = e.at;
  Slot& s = slot(e.slot);
  // Invalidate the id before invoking so a self-cancel inside the callback is
  // a no-op, then run the callback IN PLACE: chunked slot storage is
  // pointer-stable, so events scheduled by the callback cannot move it. The
  // slot only joins the free list afterwards, so it cannot be reused from
  // under the running closure either.
  ++s.gen;
  --live_;
  ++executed_;
  STANK_ASSERT_MSG(executed_ <= event_limit_, "event limit exceeded: runaway simulation?");
  s.fn.consume();
  s.next = free_head_;
  free_head_ = e.slot;
}

bool Engine::step() {
  if (!settle()) {
    return false;
  }
  fire_top();
  return true;
}

void Engine::run_until(SimTime horizon) {
  stop_requested_ = false;
  while (!stop_requested_) {
    if (!settle() || heap_.front().at > horizon) {
      break;
    }
    fire_top();
  }
  // An idle engine advances to the horizon; a stopped one stays at the time
  // of the last executed event.
  if (!stop_requested_ && now_ < horizon) {
    now_ = horizon;
    if (live_ == 0) {
      cur_bucket_ = bucket_of(now_);  // every tier is empty: re-anchor the ring
    }
  }
}

void Engine::run() {
  stop_requested_ = false;
  while (!stop_requested_ && step()) {
  }
}

}  // namespace stank::sim
