// Scenario: a GPU "service" receiving a continuous stream of heterogeneous
// jobs (the paper's §VI streaming-workloads future work). Jobs arrive as a
// Poisson process, each picks a Rodinia application at random, and the
// framework reports throughput, turnaround percentiles, and energy per job
// as the stream pool grows.
#include <cstdio>

#include "common/table.hpp"
#include "rodinia/registry.hpp"
#include "serve/service.hpp"

int main() {
  using namespace hq;

  serve::ServiceConfig base;
  base.window = 100 * kMillisecond;
  base.mean_interarrival = 150 * kMicrosecond;
  base.collect_metrics = false;
  rodinia::AppParams small = {256, 4, 1};
  rodinia::AppParams nn_params;
  nn_params.size = 20000;
  base.classes = {
      {rodinia::make_app("nn", nn_params), 0},
      {rodinia::make_app("needle", small), 0},
      {rodinia::make_app("srad", small), 0},
      {rodinia::make_app("hotspot", small), 0},
  };

  TextTable table;
  table.set_header({"streams", "jobs", "throughput/s", "mean turnaround",
                    "p95 turnaround", "energy/job"});
  for (int ns : {1, 2, 4, 8, 16, 32}) {
    auto config = base;
    config.num_streams = ns;
    const serve::ServeReport r = serve::Service(config).run().report;
    table.add_row({std::to_string(ns), std::to_string(r.completed),
                   format_fixed(r.throughput_per_sec, 0),
                   format_duration(r.mean_turnaround),
                   format_duration(r.p95_turnaround),
                   format_fixed(r.energy_per_completed * 1000.0, 1) + " mJ"});
  }
  std::printf("streaming GPU service: Poisson arrivals (mean gap 150 us), "
              "mix = {nn, needle, srad, hotspot}\n\n%s\n",
              table.render().c_str());
  std::printf("the paper's Hyper-Q insight in service form: widening the\n"
              "stream pool slashes queueing delay at identical hardware and\n"
              "near-identical energy per job.\n");
  return 0;
}
