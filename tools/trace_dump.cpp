// trace_dump: render a binary flight-recorder trace (.trace, written by
// obs::Recorder::save — e.g. the artifact fuzz_safety leaves next to a
// replay file) as a human-readable timeline, span-latency percentiles,
// Chrome/Perfetto trace-event JSON, or a machine-readable metrics dump.
//
// Usage:
//   trace_dump <file.trace>                 merged timeline to stdout
//   trace_dump <file.trace> --node N        timeline of node N only
//   trace_dump <file.trace> --spans         span histograms (p50/p95/p99),
//                                           global then per node in
//                                           ascending node-id order
//   trace_dump <file.trace> --series        sampled time series
//   trace_dump <file.trace> --metrics       JSON: spans, series, counters,
//                                           per-node event totals, watchdog
//   trace_dump <file.trace> --chrome [out]  trace-event JSON (default
//                                           <file>.json; "-" = stdout)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "metrics/histogram.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"

using namespace stank;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <file.trace> [--node N | --spans | --series | --metrics | --chrome [out]]\n",
      argv0);
  return 2;
}

void print_spans(const obs::Recorder& rec) {
  std::printf("%-16s %8s %10s %10s %10s %10s\n", "span", "count", "p50(ms)", "p95(ms)",
              "p99(ms)", "max(ms)");
  for (std::size_t k = 0; k < obs::kSpanKindCount; ++k) {
    const auto kind = static_cast<obs::SpanKind>(k);
    const metrics::Histogram& h = rec.span_hist(kind);
    if (h.count() == 0) continue;
    std::printf("%-16s %8zu %10.3f %10.3f %10.3f %10.3f\n", obs::to_string(kind), h.count(),
                h.quantile(0.5), h.quantile(0.95), h.quantile(0.99), h.max());
  }
  // Per-node event-kind histograms. Recorder::nodes() returns ascending
  // node ids and kinds iterate in enum order, so this block is stable
  // across runs and platforms — diffable triage output.
  for (NodeId node : rec.nodes()) {
    std::size_t counts[obs::kEventKindCount] = {};
    std::size_t total = 0;
    rec.visit_node(node, [&](const obs::Event& e) {
      counts[static_cast<std::size_t>(e.kind)] += 1;
      ++total;
    });
    std::printf("\nnode n%u (%zu retained events)\n", node.value(), total);
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
      if (counts[k] == 0) continue;
      std::printf("  %-22s %8zu\n", obs::to_string(static_cast<obs::EventKind>(k)),
                  counts[k]);
    }
  }
}

void print_series(const obs::Recorder& rec) {
  for (const obs::Series& s : rec.series()) {
    std::printf("# %s (%zu points)\n", s.name.c_str(), s.points.size());
    for (const obs::SeriesPoint& p : s.points) {
      std::printf("%.3f %.3f\n", p.t_s, p.value);
    }
  }
}

void json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", static_cast<int>(c));
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

// Machine-readable summary of everything quantitative in the trace: span
// quantiles, series (counter registry snapshots land here as "ctr/..."
// series), per-node retained/event totals, and watchdog activity. Keys are
// emitted in deterministic order (enum order, ascending node id, series
// registration order) so two runs diff cleanly.
void print_metrics(const obs::Recorder& rec) {
  std::printf("{\n  \"events\": %zu,\n  \"dropped\": %llu,\n", rec.total_events(),
              static_cast<unsigned long long>(rec.dropped_events()));

  std::printf("  \"spans\": {");
  bool first = true;
  for (std::size_t k = 0; k < obs::kSpanKindCount; ++k) {
    const metrics::Histogram& h = rec.span_hist(static_cast<obs::SpanKind>(k));
    if (h.count() == 0) continue;
    std::printf("%s\n    ", first ? "" : ",");
    first = false;
    json_string(obs::to_string(static_cast<obs::SpanKind>(k)));
    std::printf(
        ": {\"count\": %zu, \"p50_ms\": %.6f, \"p95_ms\": %.6f, \"p99_ms\": %.6f, "
        "\"max_ms\": %.6f}",
        h.count(), h.quantile(0.5), h.quantile(0.95), h.quantile(0.99), h.max());
  }
  std::printf("\n  },\n");

  std::printf("  \"series\": {");
  first = true;
  for (const obs::Series& s : rec.series()) {
    double mn = 0.0;
    double mx = 0.0;
    double last = 0.0;
    if (!s.points.empty()) {
      mn = mx = last = s.points.front().value;
      for (const obs::SeriesPoint& p : s.points) {
        mn = p.value < mn ? p.value : mn;
        mx = p.value > mx ? p.value : mx;
        last = p.value;
      }
    }
    std::printf("%s\n    ", first ? "" : ",");
    first = false;
    json_string(s.name);
    std::printf(": {\"points\": %zu, \"min\": %g, \"max\": %g, \"last\": %g}",
                s.points.size(), mn, mx, last);
  }
  std::printf("\n  },\n");

  std::printf("  \"nodes\": {");
  first = true;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t watchdog_clears = 0;
  for (NodeId node : rec.nodes()) {
    std::size_t total = 0;
    rec.visit_node(node, [&](const obs::Event& e) {
      ++total;
      if (e.kind == obs::EventKind::kWatchdogTrip) ++watchdog_trips;
      if (e.kind == obs::EventKind::kWatchdogClear) ++watchdog_clears;
    });
    std::printf("%s\n    \"n%u\": %zu", first ? "" : ",", node.value(), total);
    first = false;
  }
  std::printf("\n  },\n");

  std::printf("  \"watchdog\": {\"trips\": %llu, \"clears\": %llu}\n}\n",
              static_cast<unsigned long long>(watchdog_trips),
              static_cast<unsigned long long>(watchdog_clears));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string path = argv[1];

  obs::Recorder rec;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "trace_dump: cannot open %s\n", path.c_str());
      return 1;
    }
    if (!rec.load(in)) {
      std::fprintf(stderr, "trace_dump: %s is not a valid trace file\n", path.c_str());
      return 1;
    }
  }

  const std::string mode = argc > 2 ? argv[2] : "";
  if (mode.empty()) {
    obs::write_timeline(rec, std::cout);
  } else if (mode == "--node") {
    if (argc < 4) return usage(argv[0]);
    const auto id = static_cast<std::uint32_t>(std::strtoul(argv[3], nullptr, 10));
    obs::write_timeline(rec, std::cout,
                        [id](const obs::Event& e) { return e.node.value() == id; });
  } else if (mode == "--spans") {
    print_spans(rec);
  } else if (mode == "--series") {
    print_series(rec);
  } else if (mode == "--metrics") {
    print_metrics(rec);
  } else if (mode == "--chrome") {
    const std::string out = argc > 3 ? argv[3] : path + ".json";
    if (out == "-") {
      obs::write_chrome_trace(rec, std::cout);
    } else {
      std::ofstream os(out);
      if (!os) {
        std::fprintf(stderr, "trace_dump: cannot write %s\n", out.c_str());
        return 1;
      }
      obs::write_chrome_trace(rec, os);
      std::fprintf(stderr, "wrote %s\n", out.c_str());
    }
  } else {
    return usage(argv[0]);
  }

  std::fprintf(stderr, "%zu events across %zu nodes, %llu dropped (ring overflow)\n",
               rec.total_events(), rec.nodes().size(),
               static_cast<unsigned long long>(rec.dropped_events()));
  return 0;
}
