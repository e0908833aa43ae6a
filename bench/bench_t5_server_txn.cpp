// Experiment T5 — section 1.1's architectural claim: "Without data to read
// and write, the Storage Tank file server performs many more transactions
// than a traditional file server with equal processing power" — its
// performance is measured in transactions/second, not megabytes/second.
//
// Compares direct-SAN Storage Tank against the function-shipping baseline
// (all data through the server) at growing client counts, reporting server
// transaction rate, server data throughput, and client op latency.
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "rt/parallel.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

struct T5Row {
  std::uint64_t ops{0};
  double txn_per_s{0};
  double server_mb{0};
  double p50_ms{0};
  double p99_ms{0};
  double san_client_mb{0};
};

T5Row run(client::DataPath path, std::uint32_t clients) {
  workload::ScenarioConfig cfg;
  cfg.data_path = path;
  cfg.workload.num_clients = clients;
  cfg.workload.num_files = clients * 4;  // low contention: measure the data path
  cfg.workload.file_blocks = 8;
  cfg.workload.read_fraction = 0.6;
  cfg.workload.mean_interarrival_s = 0.02;
  cfg.workload.run_seconds = 30.0;
  cfg.workload.settle_seconds = 2.0;
  cfg.block_size = 4096;  // realistic page size so data volume is visible
  cfg.disk_blocks = 1u << 18;
  cfg.lease.tau = sim::local_seconds(10);

  workload::Scenario sc(cfg);
  auto r = sc.run();
  T5Row row;
  row.ops = r.reads_ok + r.writes_ok;
  row.txn_per_s = static_cast<double>(r.server.transactions) / 30.0;
  row.server_mb = static_cast<double>(r.server.server_data_bytes) / 1e6;
  row.p50_ms = r.op_latency_ms.quantile(0.5);
  row.p99_ms = r.op_latency_ms.quantile(0.99);
  row.san_client_mb = static_cast<double>(r.san.bytes_transferred) / 1e6 - row.server_mb;
  return row;
}

}  // namespace

int main() {
  std::printf("T5: server role — transactions vs data shipping (30s, 4KiB blocks)\n\n");

  Table tbl({"data path", "clients", "client ops", "server txn/s", "server data (MB)",
             "client->SAN data (MB)", "op p50 (ms)", "op p99 (ms)"});
  tbl.title("Storage Tank (direct SAN I/O) vs traditional (server-shipped data)");
  const std::vector<client::DataPath> paths = {client::DataPath::kDirectSan,
                                               client::DataPath::kServerShipped};
  const std::vector<std::uint32_t> client_counts = {1, 4, 16};
  // Independent simulations: sweep in parallel, print in index order.
  std::vector<T5Row> cells(paths.size() * client_counts.size());
  rt::parallel_for(cells.size(), [&](std::size_t idx) {
    cells[idx] = run(paths[idx / client_counts.size()], client_counts[idx % client_counts.size()]);
  });
  for (std::size_t idx = 0; idx < cells.size(); ++idx) {
    const auto& r = cells[idx];
    tbl.row()
        .cell(paths[idx / client_counts.size()] == client::DataPath::kDirectSan
                  ? "direct SAN (Storage Tank)"
                  : "server-shipped (traditional)")
        .cell(client_counts[idx % client_counts.size()])
        .cell(r.ops)
        .cell(r.txn_per_s, 1)
        .cell(r.server_mb, 2)
        .cell(r.san_client_mb, 2)
        .cell(r.p50_ms, 3)
        .cell(r.p99_ms, 3);
  }
  tbl.print(std::cout);

  std::printf(
      "\nExpected shape: the Storage Tank server moves ZERO file data — its work is\n"
      "metadata/lock transactions only, so its load is transactions/second and the\n"
      "data plane scales with clients on the SAN. The traditional server funnels\n"
      "every byte, adding a second network hop to every operation (higher latency)\n"
      "and turning itself into the bandwidth bottleneck as clients multiply.\n");
  return 0;
}
