#include "obs/watchdog.hpp"

#include <bit>

namespace stank::obs {

std::uint32_t Watchdog::add_probe(std::string name, std::function<double()> fn,
                                  double min, double max) {
  const auto id = static_cast<std::uint32_t>(probes_.size());
  Probe p;
  p.name = std::move(name);
  p.fn = std::move(fn);
  p.lo = min;
  p.hi = max;
  probes_.push_back(std::move(p));
  return id;
}

std::uint32_t Watchdog::add_rate_probe(std::string name, std::function<double()> fn,
                                       double max_delta) {
  const auto id = static_cast<std::uint32_t>(probes_.size());
  Probe p;
  p.name = std::move(name);
  p.fn = std::move(fn);
  p.lo = -std::numeric_limits<double>::infinity();
  p.hi = max_delta;
  p.is_rate = true;
  probes_.push_back(std::move(p));
  return id;
}

void Watchdog::evaluate(sim::SimTime at) {
  for (std::uint32_t i = 0; i < probes_.size(); ++i) {
    Probe& p = probes_[i];
    double v = p.fn();
    if (p.is_rate) {
      const double cur = v;
      if (!p.primed) {
        p.primed = true;
        p.prev = cur;
        continue;
      }
      v = cur - p.prev;
      p.prev = cur;
    }
    const bool violated = v < p.lo || v > p.hi;
    if (violated && !p.tripped) {
      p.tripped = true;
      ++trips_;
      rec_->record(at, NodeId{0}, EventKind::kWatchdogTrip, i,
                   std::bit_cast<std::uint64_t>(v));
      rec_->sample("watchdog/" + p.name, at.seconds(), v);
    } else if (!violated && p.tripped) {
      p.tripped = false;
      rec_->record(at, NodeId{0}, EventKind::kWatchdogClear, i,
                   std::bit_cast<std::uint64_t>(v));
    }
  }
}

}  // namespace stank::obs
