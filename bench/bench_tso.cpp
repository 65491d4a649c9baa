// E9 — the second algorithm family: timestamp ordering with
// rollback/recovery vs the versioning family.
//
// The paper (Section 5) introduces two groups of deadlock-free algorithms
// and details only the versioning one; this experiment measures the
// trade-off against the other group. Workload: K computations over a pool
// of microprotocols; each touches `footprint` of them (random order,
// 200us of work each). VCAbasic must declare the full footprint up front
// and orders by admission; TSO declares nothing, discovers conflicts, and
// pays with wait-die restarts as contention grows.
#include <cstdio>

#include "bench_common.hpp"
#include "diag/watchdog.hpp"
#include "cc/tso.hpp"
#include "core/txvar.hpp"
#include "util/rng.hpp"

namespace samoa::bench {
namespace {

class TxWork : public Microprotocol {
 public:
  explicit TxWork(std::string name) : Microprotocol(std::move(name)) {
    run = &register_handler("run", [this](Context& ctx, const Message&) {
      count.set(ctx, count.get() + 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  }
  const Handler* run = nullptr;
  TxVar<int> count{0};
};

struct Result {
  double makespan_ns = 0;
  std::uint64_t restarts = 0;
};

Result run(CCPolicy policy, int pool_size, int k, int footprint, std::uint64_t seed) {
  Stack stack;
  std::vector<TxWork*> mps;
  std::vector<EventType> evs;
  for (int i = 0; i < pool_size; ++i) {
    auto& mp = stack.emplace<TxWork>(std::string("w").append(std::to_string(i)));
    mps.push_back(&mp);
    evs.emplace_back("ev" + std::to_string(i));
    stack.bind(evs.back(), *mp.run);
  }
  Runtime rt(stack, RuntimeOptions{.policy = policy});
  Rng rng(seed);

  const auto start = Clock::now();
  std::vector<ComputationHandle> hs;
  for (int i = 0; i < k; ++i) {
    // Random footprint (distinct microprotocols, random order).
    std::vector<int> picks;
    while (static_cast<int>(picks.size()) < footprint) {
      const int p = static_cast<int>(rng.next_below(pool_size));
      bool dup = false;
      for (int q : picks) dup |= q == p;
      if (!dup) picks.push_back(p);
    }
    std::vector<const Microprotocol*> members;
    for (int p : picks) members.push_back(mps[p]);
    hs.push_back(rt.spawn_isolated(Isolation::basic(members), [&, picks](Context& ctx) {
      for (int p : picks) ctx.trigger(evs[p]);
    }));
  }
  for (auto& h : hs) h.wait();
  Result res;
  res.makespan_ns = ns_since(start);
  if (auto* tso = dynamic_cast<TSOController*>(&rt.controller())) {
    res.restarts = tso->restarts();
  }
  // Sanity: no update lost or double-applied despite restarts.
  int total = 0;
  for (auto* mp : mps) total += mp->count.get();
  if (total != k * footprint) {
    std::printf("!! consistency violation: %d updates, expected %d\n", total, k * footprint);
  }
  return res;
}

}  // namespace
}  // namespace samoa::bench

int main() {
  samoa::diag::install_env_watchdog("bench_tso");
  using namespace samoa;
  using namespace samoa::bench;

  constexpr int kK = 16;
  std::printf(
      "E9: %d computations, each visiting `footprint` microprotocols of a pool\n"
      "(200us work per visit). Versioning (declared M, never aborts) vs\n"
      "timestamp ordering (no declarations, wait-die restarts).\n",
      kK);

  Table table(
      {"pool", "footprint", "contention", "VCAbasic", "TSO", "TSO restarts", "basic/TSO"});
  struct Cell {
    int pool;
    int footprint;
    const char* label;
  };
  for (Cell cell : {Cell{32, 2, "low"}, Cell{8, 3, "medium"}, Cell{4, 3, "high"}}) {
    double basic = 0, tso = 0;
    std::uint64_t restarts = 0;
    constexpr int kReps = 5;
    for (int r = 0; r < kReps; ++r) {
      basic += run(CCPolicy::kVCABasic, cell.pool, kK, cell.footprint, 50 + r).makespan_ns;
      const auto t = run(CCPolicy::kTSO, cell.pool, kK, cell.footprint, 50 + r);
      tso += t.makespan_ns;
      restarts += t.restarts;
    }
    basic /= kReps;
    tso /= kReps;
    table.add_row({std::to_string(cell.pool), std::to_string(cell.footprint), cell.label,
                   format_duration_ns(basic), format_duration_ns(tso),
                   Table::fmt(static_cast<double>(restarts) / kReps, 1),
                   Table::fmt(basic / tso, 2) + "x"});
  }
  table.print("Versioning vs timestamp ordering with rollback");

  std::printf(
      "\nExpected shape: at low contention the two are comparable (TSO's\n"
      "claims behave like locks that are rarely contended, and it needs no\n"
      "declarations at all). As contention grows, TSO burns work on wait-die\n"
      "restarts while VCAbasic's admission-ordered versions never abort —\n"
      "the trade-off between the paper's two algorithm families.\n");
  return 0;
}
