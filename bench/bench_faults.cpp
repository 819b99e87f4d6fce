// Experiment E14 (the fault-tolerance application, §1 and §9).
//
// A width-w bundle tolerates link faults structurally: with f random link
// faults we measure, over the Theorem 1 embedding's guest edges, how many
// still have ≥ 1, ≥ w−1 and all w paths alive — and how often IDA-coded
// transfers (threshold w−1 of w fragments) survive where a single-path
// embedding loses the edge outright.
#include <benchmark/benchmark.h>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "embed/classical.hpp"
#include "sim/faults.hpp"
#include "sim/ida.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  const int n = 8;
  const auto multi = [&] {
    HP_PROFILE_SPAN("construct");
    return theorem1_cycle_embedding(n);
  }();
  const auto gray = gray_code_cycle_embedding(n);
  const int w = multi.width();
  const std::size_t edges = multi.guest().num_edges();

  bench::Table t(
      "E14: link faults on Q_8 — width-5 Theorem 1 vs width-1 Gray code",
      {"faults", "gray edges dead", "multi edges fully dead",
       "multi IDA-recoverable (w-1 of w)", "multi all paths alive"});
  Rng rng(1234);
  std::size_t last_gray_dead = 0, last_full_dead = 0, last_ida_ok = 0;
  for (int f : {1, 4, 16, 64, 128}) {
    const auto faults = FaultSet::random(n, f, rng);
    std::size_t gray_dead = 0;
    for (const auto& d : deliver_phase(faults, gray)) {
      gray_dead += (d.paths_alive == 0);
    }
    std::size_t full_dead = 0, ida_ok = 0, intact = 0;
    for (const auto& d : deliver_phase(faults, multi)) {
      full_dead += (d.paths_alive == 0);
      ida_ok += (d.paths_alive >= w - 1);
      intact += (d.paths_alive == d.paths_total);
    }
    last_gray_dead = gray_dead;
    last_full_dead = full_dead;
    last_ida_ok = ida_ok;
    t.row(f, std::to_string(gray_dead) + "/" + std::to_string(edges),
          std::to_string(full_dead) + "/" + std::to_string(edges),
          std::to_string(ida_ok) + "/" + std::to_string(edges),
          std::to_string(intact) + "/" + std::to_string(edges));
  }
  t.print();
  report.param("n", n);
  report.param("max_faults", 128);
  report.metric("gray_dead_at_128_faults", last_gray_dead, "count");
  report.metric("multi_dead_at_128_faults", last_full_dead, "count");
  report.metric("ida_recoverable_at_128_faults", last_ida_ok, "count");
  report.table(t);

  // End-to-end check: one IDA transfer over a faulty bundle.
  const auto faults = FaultSet::random(n, 32, rng);
  std::vector<std::uint8_t> msg(4096);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const auto frags = ida_encode(msg, w, w - 1);
  std::size_t recovered = 0, attempted = 0;
  for (std::size_t e = 0; e < edges; ++e) {
    const auto bundle = multi.paths(e);
    std::vector<IdaFragment> got;
    for (int i = 0; i < w; ++i) {
      if (faults.path_alive(bundle[i])) got.push_back(frags[i]);
    }
    ++attempted;
    const auto decoded = ida_decode(got, w - 1, msg.size());
    recovered += (decoded.has_value() && *decoded == msg);
  }
  std::printf("IDA end-to-end: %zu/%zu guest edges recovered a 4 KiB message "
              "under 32 link faults\n\n",
              recovered, attempted);
  report.metric("ida_end_to_end_recovered", recovered, "count");
  report.metric("ida_end_to_end_attempted", attempted, "count");

  // Node faults: a dead processor takes out all 2n incident links at once,
  // so the damage per fault is much larger — but a width-w bundle still
  // tolerates any set of faults that spares one path (and the endpoints).
  bench::Table tn(
      "E14b: node faults on Q_8 — width-5 Theorem 1 vs width-1 Gray code",
      {"node faults", "gray edges dead", "multi edges fully dead",
       "multi IDA-recoverable (w-1 of w)", "multi all paths alive"});
  std::size_t last_gray_node_dead = 0, last_full_node_dead = 0,
              last_node_ida_ok = 0;
  for (int f : {1, 4, 16, 32}) {
    const auto faults = FaultSet::random_nodes(n, f, rng);
    std::size_t gray_dead = 0;
    for (const auto& d : deliver_phase(faults, gray)) {
      gray_dead += (d.paths_alive == 0);
    }
    std::size_t full_dead = 0, ida_ok = 0, intact = 0;
    for (const auto& d : deliver_phase(faults, multi)) {
      full_dead += (d.paths_alive == 0);
      ida_ok += (d.paths_alive >= w - 1);
      intact += (d.paths_alive == d.paths_total);
    }
    last_gray_node_dead = gray_dead;
    last_full_node_dead = full_dead;
    last_node_ida_ok = ida_ok;
    tn.row(f, std::to_string(gray_dead) + "/" + std::to_string(edges),
           std::to_string(full_dead) + "/" + std::to_string(edges),
           std::to_string(ida_ok) + "/" + std::to_string(edges),
           std::to_string(intact) + "/" + std::to_string(edges));
  }
  tn.print();
  report.metric("gray_dead_at_32_node_faults", last_gray_node_dead, "count");
  report.metric("multi_dead_at_32_node_faults", last_full_node_dead, "count");
  report.metric("ida_recoverable_at_32_node_faults", last_node_ida_ok, "count");
  report.table(tn);
}

void BM_IdaEncode(benchmark::State& state) {
  std::vector<std::uint8_t> msg(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ida_encode(msg, 5, 4).size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_IdaEncode)->Arg(4096)->Arg(65536);

void BM_FaultPhase(benchmark::State& state) {
  const auto multi = theorem1_cycle_embedding(8);
  Rng rng(5);
  const auto faults = FaultSet::random(8, 32, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deliver_phase(faults, multi).size());
  }
}
BENCHMARK(BM_FaultPhase);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("faults", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
