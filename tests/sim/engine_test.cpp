#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace stank::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime{30}, [&]() { order.push_back(3); });
  e.schedule_at(SimTime{10}, [&]() { order.push_back(1); });
  e.schedule_at(SimTime{20}, [&]() { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now().ns, 30);
}

TEST(Engine, SameTimeFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(SimTime{100}, [&, i]() { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Engine, EventsMayScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) {
      e.schedule_after(Duration{1}, recurse);
    }
  };
  e.schedule_at(SimTime{0}, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now().ns, 4);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  TimerId id = e.schedule_at(SimTime{10}, [&]() { ran = true; });
  EXPECT_TRUE(e.pending(id));
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.pending(id));
  EXPECT_FALSE(e.cancel(id));  // second cancel is a no-op
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, RunUntilStopsAtHorizonInclusive) {
  Engine e;
  std::vector<int> hits;
  e.schedule_at(SimTime{10}, [&]() { hits.push_back(10); });
  e.schedule_at(SimTime{20}, [&]() { hits.push_back(20); });
  e.schedule_at(SimTime{21}, [&]() { hits.push_back(21); });
  e.run_until(SimTime{20});
  EXPECT_EQ(hits, (std::vector<int>{10, 20}));
  EXPECT_EQ(e.now().ns, 20);
  e.run_until(SimTime{30});
  EXPECT_EQ(hits, (std::vector<int>{10, 20, 21}));
  EXPECT_EQ(e.now().ns, 30);  // advances to the horizon even when idle
}

TEST(Engine, StopInterruptsRun) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(SimTime{i}, [&]() {
      if (++count == 3) e.stop();
    });
  }
  e.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(SimTime{1}, []() {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, CountsExecutedAndPending) {
  Engine e;
  e.schedule_at(SimTime{1}, []() {});
  e.schedule_at(SimTime{2}, []() {});
  EXPECT_EQ(e.events_pending(), 2u);
  e.run();
  EXPECT_EQ(e.events_executed(), 2u);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, CancelledEventsDoNotBlockRunUntil) {
  Engine e;
  TimerId id = e.schedule_at(SimTime{5}, []() {});
  e.cancel(id);
  e.run_until(SimTime{10});
  EXPECT_EQ(e.now().ns, 10);
}

TEST(Engine, StopDuringRunUntilLeavesClockAtLastEvent) {
  // A stopped run must NOT advance the clock to the horizon: the caller is
  // abandoning the run mid-way, and jumping time forward would let later
  // schedule_at() calls observe a future they never simulated.
  Engine e;
  e.schedule_at(SimTime{10}, [&]() { e.stop(); });
  e.schedule_at(SimTime{20}, []() {});
  e.run_until(SimTime{100});
  EXPECT_EQ(e.now().ns, 10);
  EXPECT_EQ(e.events_pending(), 1u);
  // Resuming runs the rest and only then advances to the horizon.
  e.run_until(SimTime{100});
  EXPECT_EQ(e.now().ns, 100);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, CancelChurnKeepsQueueMemoryBounded) {
  // The lease keep-alive pattern: a fixed population of timers, each
  // cancelled and re-armed long before it fires. Whichever tier the re-armed
  // timers sit in — the near heap (+1 us), the bucket ring (+1 s) or the
  // overflow heap past the ring's horizon (+30 s) — the queue must stay
  // O(live timers) no matter how many cancels pass through.
  constexpr std::size_t kLive = 1'000;
  constexpr std::uint64_t kIters = 200'000;
  for (const std::int64_t ahead : {1'000LL, 1'000'000'000LL, 30'000'000'000LL}) {
    SCOPED_TRACE(ahead);
    Engine e;
    std::vector<TimerId> ids(kLive);
    std::int64_t t = 0;
    for (std::size_t i = 0; i < kLive; ++i) {
      ids[i] = e.schedule_at(SimTime{ahead + static_cast<std::int64_t>(i)}, []() {});
    }
    std::uint64_t x = 0x243f6a8885a308d3ull;  // deterministic xorshift
    std::size_t max_depth = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto k = static_cast<std::size_t>(x % kLive);
      EXPECT_TRUE(e.cancel(ids[k]));
      ++t;
      ids[k] = e.schedule_at(SimTime{t + ahead}, []() {});
      max_depth = std::max(max_depth, e.queue_depth());
    }
    // A heap compacts when its tombstones exceed half its entries, so it
    // holds at most ~2x the live timers (plus the small no-compact floor);
    // the ring holds no tombstones at all.
    EXPECT_EQ(e.events_pending(), kLive);
    EXPECT_LE(max_depth, 2 * kLive + 65);
    // The queue still drains correctly after heavy churn.
    for (std::size_t i = 0; i < kLive; ++i) {
      EXPECT_TRUE(e.pending(ids[i]));
    }
    e.run();
    EXPECT_EQ(e.events_pending(), 0u);
    EXPECT_EQ(e.queue_depth(), 0u);
    EXPECT_EQ(e.events_executed(), kLive);
  }
}

TEST(Engine, CancelReturnsFalseForStaleIdAfterSlotReuse) {
  Engine e;
  TimerId a = e.schedule_at(SimTime{1}, []() {});
  ASSERT_TRUE(e.cancel(a));
  // The slot is recycled with a new generation; the old id must stay dead.
  TimerId b = e.schedule_at(SimTime{2}, []() {});
  EXPECT_FALSE(e.cancel(a));
  EXPECT_FALSE(e.pending(a));
  EXPECT_TRUE(e.pending(b));
  e.run();
  EXPECT_EQ(e.events_executed(), 1u);
}

TEST(EngineDeathTest, SchedulingInThePastAborts) {
  Engine e;
  e.schedule_at(SimTime{10}, []() {});
  e.run();
  EXPECT_DEATH(e.schedule_at(SimTime{5}, []() {}), "past");
}

TEST(Engine, SelfCancellationInsideEventIsSafe) {
  Engine e;
  // An event cancelling a later event that was already popped as a tombstone.
  TimerId victim{};
  victim = e.schedule_at(SimTime{10}, []() { FAIL() << "should have been cancelled"; });
  e.schedule_at(SimTime{5}, [&]() { e.cancel(victim); });
  e.run();
}

// Model-based check of the two-tier queue: random schedules into every tier,
// same-instant ties, cancels of live and stale ids, events that schedule and
// cancel from inside the bucket being drained, and run_until horizons that
// jump several ring turns. A std::set of (time, schedule order) is the
// model; execution order, events_pending() and next_event_time() must match
// it at every step. The tier boundaries below mirror the engine's geometry:
// 2^20 ns buckets, 2^14 of them (~17.2 s).
class QueueModel {
 public:
  explicit QueueModel(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      const int op = pick(0, 99);
      if (op < 40) {
        schedule(random_time());
      } else if (op < 50) {
        schedule_tie();
      } else if (op < 65) {
        cancel_live();
      } else if (op < 70) {
        cancel_stale();
      } else if (op < 80) {
        EXPECT_EQ(e_.step(), !model_.empty());
      } else {
        run_until(e_.now().ns + random_jump());
      }
      check_front();
    }
    e_.run();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(e_.events_pending(), 0u);
    EXPECT_EQ(e_.queue_depth(), 0u);
    EXPECT_EQ(e_.events_executed(), fired_);
  }

 private:
  static constexpr std::int64_t kBucket = std::int64_t{1} << 20;
  static constexpr std::int64_t kHorizon = kBucket << 14;
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (time, schedule order)

  std::int64_t pick(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
  }

  // At now, within this bucket or the next, in the ring, or past its horizon.
  std::int64_t random_time() {
    const std::int64_t now = e_.now().ns;
    switch (pick(0, 3)) {
      case 0:
        return now;
      case 1:
        return now + pick(0, 2 * kBucket);
      case 2:
        return now + pick(kBucket, kHorizon);
      default:
        return now + pick(kHorizon - kBucket, 3 * kHorizon);
    }
  }

  std::int64_t random_jump() {
    switch (pick(0, 3)) {
      case 0:
        return pick(0, kBucket);
      case 1:
        return pick(kBucket, 64 * kBucket);
      case 2:
        return pick(kBucket, kHorizon);
      default:
        return pick(kHorizon, 3 * kHorizon);
    }
  }

  void schedule(std::int64_t at) {
    const std::uint64_t order = next_order_++;
    const TimerId id = e_.schedule_at(SimTime{at}, [this, at, order]() { fire(at, order); });
    model_.insert({at, order});
    ids_[order] = {at, id};
  }

  // Another timer at the exact instant of a pending one.
  void schedule_tie() {
    if (model_.empty()) {
      schedule(e_.now().ns);
      return;
    }
    auto it = model_.begin();
    std::advance(it, pick(0, static_cast<std::int64_t>(model_.size()) - 1));
    schedule(it->first);
  }

  void cancel_live() {
    if (ids_.empty()) return;
    auto it = ids_.begin();
    std::advance(it, pick(0, static_cast<std::int64_t>(ids_.size()) - 1));
    const TimerId id = it->second.second;
    model_.erase({it->second.first, it->first});
    ids_.erase(it);
    stale_.push_back(id);
    EXPECT_TRUE(e_.pending(id));
    EXPECT_TRUE(e_.cancel(id));
    EXPECT_FALSE(e_.pending(id));
  }

  void cancel_stale() {
    if (stale_.empty()) return;
    const TimerId id = stale_[static_cast<std::size_t>(
        pick(0, static_cast<std::int64_t>(stale_.size()) - 1))];
    EXPECT_FALSE(e_.pending(id));
    EXPECT_FALSE(e_.cancel(id));
  }

  void run_until(std::int64_t horizon) {
    e_.run_until(SimTime{horizon});
    EXPECT_EQ(e_.now().ns, horizon);
    EXPECT_TRUE(model_.empty() || model_.begin()->first > horizon);
  }

  void check_front() {
    EXPECT_EQ(e_.events_pending(), model_.size());
    EXPECT_EQ(e_.next_event_time().ns,
              model_.empty() ? Engine::kNever.ns : model_.begin()->first);
    EXPECT_LE(e_.queue_depth(), 2 * model_.size() + 130);
  }

  void fire(std::int64_t at, std::uint64_t order) {
    ASSERT_FALSE(model_.empty());
    EXPECT_EQ(*model_.begin(), (Key{at, order})) << "executed out of (time, seq) order";
    EXPECT_EQ(e_.now().ns, at);
    model_.erase({at, order});
    const TimerId self = ids_.at(order).second;
    ids_.erase(order);
    stale_.push_back(self);
    ++fired_;
    // Work from inside the bucket being drained.
    const int op = pick(0, 9);
    if (op < 3) {
      schedule(at + pick(0, 2 * kBucket));
    } else if (op < 4) {
      schedule(at);  // a tie behind every pending event at this instant
    } else if (op < 5) {
      cancel_live();
    } else if (op < 6) {
      EXPECT_FALSE(e_.cancel(self));  // self-cancel is a no-op
    } else if (op < 7) {
      schedule(random_time());
    }
  }

  std::mt19937_64 rng_;
  Engine e_;
  std::set<Key> model_;
  // Schedule order -> (time, id), pending timers only.
  std::map<std::uint64_t, std::pair<std::int64_t, TimerId>> ids_;
  std::vector<TimerId> stale_;            // fired or cancelled
  std::uint64_t next_order_{0};
  std::uint64_t fired_{0};
};

TEST(Engine, QueueMatchesOrderedModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE(seed);
    QueueModel(seed).run(20'000);
  }
}

}  // namespace
}  // namespace stank::sim
