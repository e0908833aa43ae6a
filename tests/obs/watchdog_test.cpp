// obs::Watchdog: edge-triggered trip/clear recording, typed event payloads
// (probe index + bit_cast'd value), the trip's point on the probe's named
// series, rate-probe priming, and the guarantee that a healthy probe records
// nothing at all.
#include "obs/watchdog.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "obs/event.hpp"
#include "obs/recorder.hpp"

namespace stank::obs {
namespace {

std::vector<Event> watchdog_events(const Recorder& rec) {
  std::vector<Event> out;
  rec.visit_node(NodeId{0}, [&](const Event& e) {
    if (e.kind == EventKind::kWatchdogTrip || e.kind == EventKind::kWatchdogClear) {
      out.push_back(e);
    }
  });
  return out;
}

TEST(Watchdog, HealthyProbeRecordsNothing) {
  Recorder rec;
  Watchdog wd(rec);
  double v = 5.0;
  wd.add_probe("inside", [&v] { return v; }, 0.0, 10.0);
  for (int i = 0; i < 20; ++i) wd.evaluate(sim::SimTime{i * 1'000'000});
  EXPECT_EQ(wd.trips(), 0u);
  EXPECT_TRUE(watchdog_events(rec).empty());
  EXPECT_TRUE(rec.series().empty());
}

TEST(Watchdog, EdgeTriggeredTripAndClear) {
  Recorder rec;
  Watchdog wd(rec);
  double v = 5.0;
  const std::uint32_t id = wd.add_probe("band", [&v] { return v; }, 0.0, 10.0);

  wd.evaluate(sim::SimTime{1});  // healthy
  v = 42.0;
  wd.evaluate(sim::SimTime{2});  // trips
  wd.evaluate(sim::SimTime{3});  // still out of band: no second trip event
  EXPECT_TRUE(wd.tripped(id));
  v = 3.0;
  wd.evaluate(sim::SimTime{4});  // clears
  wd.evaluate(sim::SimTime{5});  // healthy again: nothing
  EXPECT_FALSE(wd.tripped(id));
  EXPECT_EQ(wd.trips(), 1u);

  const auto evs = watchdog_events(rec);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, EventKind::kWatchdogTrip);
  EXPECT_EQ(evs[0].a, id);
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(evs[0].b), 42.0);
  EXPECT_EQ(evs[1].kind, EventKind::kWatchdogClear);
  EXPECT_EQ(evs[1].a, id);

  // The trip (and only the trip) is a point on the probe's named series,
  // so the name survives save/load.
  std::stringstream buf;
  rec.save(buf);
  Recorder back;
  ASSERT_TRUE(back.load(buf));
  ASSERT_EQ(back.series().size(), 1u);
  EXPECT_EQ(back.series()[0].name, "watchdog/band");
  ASSERT_EQ(back.series()[0].points.size(), 1u);
  EXPECT_DOUBLE_EQ(back.series()[0].points[0].t_s, sim::SimTime{2}.seconds());
  EXPECT_DOUBLE_EQ(back.series()[0].points[0].value, 42.0);
}

TEST(Watchdog, BoundsAreInclusive) {
  Recorder rec;
  Watchdog wd(rec);
  double v = 10.0;
  wd.add_probe("edge", [&v] { return v; }, 0.0, 10.0);
  wd.evaluate(sim::SimTime{1});  // exactly the max: legal
  EXPECT_EQ(wd.trips(), 0u);
  v = 10.0001;
  wd.evaluate(sim::SimTime{2});
  EXPECT_EQ(wd.trips(), 1u);
}

TEST(Watchdog, RatePrimingSkipsFirstEvaluation) {
  Recorder rec;
  Watchdog wd(rec);
  double counter = 1000.0;  // large initial value must NOT look like a burst
  const std::uint32_t id = wd.add_rate_probe("drops", [&counter] { return counter; }, 0.0);

  wd.evaluate(sim::SimTime{1});  // priming: records baseline, cannot trip
  EXPECT_EQ(wd.trips(), 0u);
  wd.evaluate(sim::SimTime{2});  // delta 0: healthy
  EXPECT_EQ(wd.trips(), 0u);
  counter += 1.0;
  wd.evaluate(sim::SimTime{3});  // any growth with max_delta=0 trips
  EXPECT_EQ(wd.trips(), 1u);
  EXPECT_TRUE(wd.tripped(id));
  wd.evaluate(sim::SimTime{4});  // growth stopped: clears
  EXPECT_FALSE(wd.tripped(id));

  const auto evs = watchdog_events(rec);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, EventKind::kWatchdogTrip);
  EXPECT_EQ(evs[1].kind, EventKind::kWatchdogClear);
}

TEST(Watchdog, MultipleProbesTripIndependently) {
  Recorder rec;
  Watchdog wd(rec);
  double a = 0.0;
  double b = 0.0;
  const std::uint32_t ia = wd.add_probe("a", [&a] { return a; }, 0.0, 1.0);
  const std::uint32_t ib = wd.add_probe("b", [&b] { return b; }, 0.0, 1.0);
  EXPECT_EQ(wd.probe_count(), 2u);
  EXPECT_EQ(wd.probe_name(ia), "a");
  EXPECT_EQ(wd.probe_name(ib), "b");

  a = 2.0;
  wd.evaluate(sim::SimTime{1});
  EXPECT_TRUE(wd.tripped(ia));
  EXPECT_FALSE(wd.tripped(ib));
  b = 2.0;
  a = 0.5;
  wd.evaluate(sim::SimTime{2});
  EXPECT_FALSE(wd.tripped(ia));
  EXPECT_TRUE(wd.tripped(ib));
  EXPECT_EQ(wd.trips(), 2u);
}

}  // namespace
}  // namespace stank::obs
