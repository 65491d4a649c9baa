// E7 — concurrency scaling on disjoint computations.
//
// The paper (Section 5) rejects the "simplest possible solution" — block
// every new computation until the running one completes — because "the
// protocol may make poor use of its resources". This experiment
// quantifies that: K computations with pairwise-disjoint declarations,
// each performing an I/O-like handler (busy 300us, standing in for a
// socket write / disk op). Serial makespan grows linearly in K; the VCA
// algorithms overlap the latencies.
#include <cstdio>

#include "bench_common.hpp"
#include "diag/watchdog.hpp"
#include "util/sync.hpp"

namespace samoa::bench {
namespace {

class IoMp : public Microprotocol {
 public:
  IoMp(std::string name, std::chrono::microseconds latency)
      : Microprotocol(std::move(name)) {
    handler = &register_handler("io", [latency](Context&, const Message&) {
      // Stand-in for a blocking I/O call: the thread is occupied but the
      // CPU is (mostly) free, which is how concurrency pays off even on a
      // single core.
      std::this_thread::sleep_for(latency);
    });
  }
  const Handler* handler = nullptr;
};

double makespan_ns(CCPolicy policy, int k, std::chrono::microseconds latency) {
  Stack stack;
  std::vector<IoMp*> mps;
  std::vector<EventType> evs;
  for (int i = 0; i < k; ++i) {
    auto& mp = stack.emplace<IoMp>("io" + std::to_string(i), latency);
    mps.push_back(&mp);
    evs.emplace_back("ev" + std::to_string(i));
    stack.bind(evs.back(), *mp.handler);
  }
  Runtime rt(stack, RuntimeOptions{.policy = policy});
  const auto start = Clock::now();
  std::vector<ComputationHandle> hs;
  for (int i = 0; i < k; ++i) {
    Isolation iso = [&]() -> Isolation {
      switch (policy) {
        case CCPolicy::kVCABound:
          return Isolation::bound({{mps[i], 1}});
        case CCPolicy::kVCARoute:
          return Isolation::route(RouteSpec{}.entry(*mps[i]->handler));
        default:
          return Isolation::basic({mps[i]});
      }
    }();
    hs.push_back(rt.spawn_isolated(std::move(iso),
                                   [&, i](Context& ctx) { ctx.trigger(evs[i]); }));
  }
  for (auto& h : hs) h.wait();
  return ns_since(start);
}

class TinyMp : public Microprotocol {
 public:
  explicit TinyMp(std::string name) : Microprotocol(std::move(name)) {
    handler = &register_handler("nop", [](Context&, const Message&) {});
  }
  const Handler* handler = nullptr;
};

/// Admissions completed per second with `threads` spawner threads, each
/// spawning trivial computations on its own microprotocol (pairwise
/// disjoint: the admission path itself is the only shared state). With
/// the sharded lock-free admission the per-gate tickets never contend
/// across threads; a controller-global admission lock would serialize
/// exactly this loop.
double admissions_per_second(CCPolicy policy, int threads, int per_thread) {
  Stack stack;
  std::vector<TinyMp*> mps;
  std::vector<EventType> evs;
  for (int t = 0; t < threads; ++t) {
    auto& mp = stack.emplace<TinyMp>("adm" + std::to_string(t));
    mps.push_back(&mp);
    evs.emplace_back("adm-ev" + std::to_string(t));
    stack.bind(evs.back(), *mp.handler);
  }
  stack.seal();
  Runtime rt(stack, RuntimeOptions{.policy = policy});
  const auto start = Clock::now();
  std::vector<std::thread> spawners;
  for (int t = 0; t < threads; ++t) {
    spawners.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        rt.spawn_isolated(Isolation::basic({mps[t]}), [](Context&) {}).wait();
      }
    });
  }
  for (auto& t : spawners) t.join();
  const double total = static_cast<double>(threads) * per_thread;
  return total / (ns_since(start) / 1e9);
}

}  // namespace
}  // namespace samoa::bench

int main() {
  samoa::diag::install_env_watchdog("bench_scaling");
  using namespace samoa;
  using namespace samoa::bench;

  constexpr auto kLatency = std::chrono::microseconds(300);
  std::printf("E7: makespan of K disjoint computations, each one %lldus of I/O-like work\n",
              static_cast<long long>(kLatency.count()));

  Table table({"K", "serial", "VCAbasic", "VCAbound", "VCAroute", "serial/VCAbasic"});
  for (int k : {1, 2, 4, 8, 16, 32}) {
    double serial = 0, basic = 0, bound = 0, route = 0;
    constexpr int kReps = 5;
    for (int r = 0; r < kReps; ++r) {
      serial += makespan_ns(CCPolicy::kSerial, k, kLatency);
      basic += makespan_ns(CCPolicy::kVCABasic, k, kLatency);
      bound += makespan_ns(CCPolicy::kVCABound, k, kLatency);
      route += makespan_ns(CCPolicy::kVCARoute, k, kLatency);
    }
    serial /= kReps;
    basic /= kReps;
    bound /= kReps;
    route /= kReps;
    table.add_row({std::to_string(k), format_duration_ns(serial), format_duration_ns(basic),
                   format_duration_ns(bound), format_duration_ns(route),
                   Table::fmt(serial / basic, 1) + "x"});
  }
  table.print("Makespan vs in-flight computations (disjoint declarations)");

  std::printf(
      "\nExpected shape: serial grows ~linearly with K; the VCA controllers\n"
      "stay ~flat (latencies overlap), with the gap widening as K grows.\n");

  // E-ADMIT — admission throughput vs spawner threads (disjoint single-mp
  // computations, so the admission path is the only shared state).
  constexpr int kPerThread = 2000;
  std::printf("\nE-ADMIT: admissions/sec, %d trivial computations per spawner thread\n",
              kPerThread);
  Table adm({"threads", "serial", "VCAbasic", "VCAbasic/serial"});
  for (int t : {1, 2, 4, 8}) {
    const double serial = admissions_per_second(CCPolicy::kSerial, t, kPerThread);
    const double basic = admissions_per_second(CCPolicy::kVCABasic, t, kPerThread);
    adm.add_row({std::to_string(t), Table::fmt(serial / 1000.0, 1) + "k/s",
                 Table::fmt(basic / 1000.0, 1) + "k/s", Table::fmt(basic / serial, 2) + "x"});
  }
  adm.print("Admission throughput vs spawner threads (disjoint declarations)");
  std::printf(
      "\nExpected shape: VCAbasic throughput grows with threads (sharded\n"
      "lock-free tickets; no shared admission lock), and the VCAbasic/serial\n"
      "gap widens with cores.\n");
  return 0;
}
