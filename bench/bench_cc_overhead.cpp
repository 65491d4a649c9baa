// E3 — concurrency-control overhead (paper Section 7: "the overhead
// incurred by J-SAMOA's concurrency control algorithms ... is relatively
// low").
//
// Micro-benchmarks, one cell per (controller, |M|):
//   * spawn+complete of an empty computation (admission + Step 3 cost),
//   * a computation performing 16 gated handler calls (per-call cost),
// against the raw cost of calling the same handler functions directly.
// Run with --benchmark_* flags; default output is the google-benchmark
// table.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace samoa::bench {
namespace {

class NopMp : public Microprotocol {
 public:
  explicit NopMp(std::string name) : Microprotocol(std::move(name)) {
    handler = &register_handler("nop", [](Context&, const Message&) {});
  }
  const Handler* handler = nullptr;
};

struct Env {
  Stack stack;
  std::vector<NopMp*> mps;
  std::vector<EventType> evs;

  explicit Env(int n_mps) {
    for (int i = 0; i < n_mps; ++i) {
      auto& mp = stack.emplace<NopMp>("mp" + std::to_string(i));
      mps.push_back(&mp);
      evs.emplace_back("ev" + std::to_string(i));
      stack.bind(evs.back(), *mp.handler);
    }
  }

  Isolation iso(CCPolicy policy) const {
    switch (policy) {
      case CCPolicy::kVCABound: {
        std::vector<std::pair<const Microprotocol*, std::uint32_t>> bounds;
        for (auto* mp : mps) bounds.emplace_back(mp, 32);
        return Isolation::bound(bounds);
      }
      case CCPolicy::kVCARoute: {
        RouteSpec spec;
        for (auto* mp : mps) spec.entry(*mp->handler);
        return Isolation::route(spec);
      }
      default: {
        std::vector<const Microprotocol*> members(mps.begin(), mps.end());
        return Isolation::basic(members);
      }
    }
  }
};

CCPolicy policy_from(int index) {
  static const CCPolicy kAll[] = {CCPolicy::kSerial, CCPolicy::kUnsync, CCPolicy::kVCABasic,
                                  CCPolicy::kVCABound, CCPolicy::kVCARoute};
  return kAll[index];
}

/// Cost of spawning and completing an empty isolated computation. The
/// admit_fast / admit_slow counters make the fast-path claim auditable in
/// the output: |M| = 1 cells must report admit_slow == 0 (no admission
/// ever took a lock), larger |M| cells go through the lock-ordered path.
void BM_SpawnEmpty(benchmark::State& state) {
  const CCPolicy policy = policy_from(static_cast<int>(state.range(0)));
  const int n_mps = static_cast<int>(state.range(1));
  Env env(n_mps);
  Runtime rt(env.stack, RuntimeOptions{.policy = policy});
  for (auto _ : state) {
    rt.spawn_isolated(env.iso(policy), [](Context&) {}).wait();
  }
  const CCStats& cc = rt.controller().stats();
  state.counters["admit_fast"] = static_cast<double>(cc.admit_fast.value());
  state.counters["admit_slow"] = static_cast<double>(cc.admit_slow.value());
  state.SetLabel(to_string(policy));
}
BENCHMARK(BM_SpawnEmpty)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1, 4, 16, 64}})
    ->Unit(benchmark::kMicrosecond);

/// Concurrent admissions from T benchmark threads, each spawning on its
/// own microprotocol (no conflicts). With the sharded lock-free admission
/// this scales with threads; with a controller-global admission mutex it
/// flatlines — the regression this cell exists to catch.
void BM_ThreadedSingleMpAdmit(benchmark::State& state) {
  static Env* env = nullptr;
  static Runtime* rt = nullptr;
  if (state.thread_index() == 0) {
    env = new Env(64);
    env->stack.seal();
    rt = new Runtime(env->stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  }
  // All threads rendezvous at the timed-loop barrier, so env/rt written by
  // thread 0 above are visible to every thread inside the loop.
  for (auto _ : state) {
    NopMp* mp = env->mps[state.thread_index() % env->mps.size()];
    rt->spawn_isolated(Isolation::basic({mp}), [](Context&) {}).wait();
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const CCStats& cc = rt->controller().stats();
    state.counters["admit_fast"] = static_cast<double>(cc.admit_fast.value());
    state.counters["admit_slow"] = static_cast<double>(cc.admit_slow.value());
    delete rt;
    rt = nullptr;
    delete env;
    env = nullptr;
  }
  state.SetLabel("VCAbasic threaded");
}
BENCHMARK(BM_ThreadedSingleMpAdmit)->ThreadRange(1, 8)->Unit(benchmark::kMicrosecond)->UseRealTime();

/// E-DISPATCH — handler dispatches/sec on the elastic pool, threaded
/// single-mp cells: each thread spawns computations on its own
/// microprotocol, every computation issuing 8 async handler dispatches.
/// items_per_second is the handler-dispatch rate.
void BM_ThreadedSingleMpDispatch(benchmark::State& state) {
  static Env* env = nullptr;
  static Runtime* rt = nullptr;
  if (state.thread_index() == 0) {
    env = new Env(64);
    env->stack.seal();
    rt = new Runtime(env->stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  }
  constexpr int kCalls = 8;
  for (auto _ : state) {
    const std::size_t slot = state.thread_index() % env->mps.size();
    NopMp* mp = env->mps[slot];
    const EventType& ev = env->evs[slot];
    rt->spawn_isolated(Isolation::basic({mp}), [&](Context& ctx) {
        for (int c = 0; c < kCalls; ++c) ctx.async_trigger(ev);
      }).wait();
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  if (state.thread_index() == 0) {
    state.counters["admit_slow"] = static_cast<double>(rt->controller().stats().admit_slow.value());
    delete rt;
    rt = nullptr;
    delete env;
    env = nullptr;
  }
}
BENCHMARK(BM_ThreadedSingleMpDispatch)->ThreadRange(1, 8)->Unit(benchmark::kMicrosecond)->UseRealTime();

/// E-DISPATCH fan-out cell: one computation async_trigger_all-ing an event
/// bound to 16 microprotocols, which is 16 pool submits.
void BM_FanoutDispatch(benchmark::State& state) {
  Env env(16);
  EventType fan("fan");
  for (auto* mp : env.mps) env.stack.bind(fan, *mp->handler);
  Runtime rt(env.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  std::vector<const Microprotocol*> members(env.mps.begin(), env.mps.end());
  for (auto _ : state) {
    rt.spawn_isolated(Isolation::basic(members),
                      [&](Context& ctx) { ctx.async_trigger_all(fan); })
        .wait();
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_FanoutDispatch)->Unit(benchmark::kMicrosecond);

/// Cost of 16 gated handler calls inside one computation.
void BM_GatedCalls(benchmark::State& state) {
  const CCPolicy policy = policy_from(static_cast<int>(state.range(0)));
  const int n_mps = static_cast<int>(state.range(1));
  Env env(n_mps);
  Runtime rt(env.stack, RuntimeOptions{.policy = policy});
  for (auto _ : state) {
    rt.spawn_isolated(env.iso(policy), [&](Context& ctx) {
        for (int c = 0; c < 16; ++c) ctx.trigger(env.evs[c % env.evs.size()]);
      }).wait();
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.SetLabel(to_string(policy));
}
BENCHMARK(BM_GatedCalls)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1, 4, 16}})
    ->Unit(benchmark::kMicrosecond);

/// Baseline: the same 16 handler bodies as plain function calls.
void BM_RawCalls(benchmark::State& state) {
  Env env(1);
  Stack& stack = env.stack;
  stack.seal();
  Runtime rt(env.stack, RuntimeOptions{.policy = CCPolicy::kUnsync});
  // One long-lived computation; measure only the call loop.
  for (auto _ : state) {
    rt.spawn_isolated(env.iso(CCPolicy::kUnsync), [&](Context& ctx) {
        for (int c = 0; c < 16; ++c) ctx.trigger(env.evs[0]);
      }).wait();
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.SetLabel("unsync-dispatch-only");
}
BENCHMARK(BM_RawCalls)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace samoa::bench

BENCHMARK_MAIN();
