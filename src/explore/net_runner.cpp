#include "explore/net_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos_engine.hpp"
#include "chaos/fault_plan.hpp"
#include "core/event.hpp"
#include "explore/shrink.hpp"
#include "gc/view.hpp"
#include "net/sim_network.hpp"
#include "net/timer_service.hpp"
#include "time/clock.hpp"
#include "util/rng.hpp"
#include "verify/vs_checker.hpp"

namespace samoa::explore {

namespace {

constexpr auto kHop = std::chrono::microseconds(100);     // per-link latency
constexpr auto kEpochGap = std::chrono::microseconds(1000);  // >> 2 * kHop

/// Wire payload of the toy view-sync protocol. One struct for both hops:
/// the coordinator seeds a relay (`relay_hop` true, `target` the final
/// member), the relay forwards the same payload to the member.
struct NetMsg {
  bool view = false;       // view announcement vs totally-ordered data
  bool relay_hop = false;  // coordinator -> relay leg
  std::uint64_t id = 0;    // data: global ordinal (1-based); view: view id
  std::uint64_t quota = 0;  // view: deliveries required before install
  std::uint32_t target = 0;  // relay leg: final member site id
};

/// One member's protocol state. Mutated only on the network's delivery
/// thread (callbacks are serialized), read by the harness after drain().
/// Data messages are released from a hold-back buffer in ordinal order —
/// the total order is fixed by the coordinator — so the only explorable
/// protocol behaviour is *which view each release is stamped with*:
///
///   synced   a view installs only once `delivered >= quota`, making the
///            stamped view a pure function of the ordinal — identical on
///            every member under every interleaving.
///   unsync   a view installs the instant its announcement arrives, so an
///            announcement that wins the relay race on one member and
///            loses it on another stamps the same ordinal with different
///            views (vs rule 1).
struct MemberState {
  bool synced = true;
  std::vector<SiteId> group;
  std::uint64_t current_view = 0;
  std::uint64_t next_ordinal = 1;
  std::uint64_t delivered = 0;
  std::map<std::uint64_t, NetMsg> holdback;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> pending;  // (view id, quota)
  std::vector<verify::DeliveryRecord> deliveries;
  std::vector<gc::View> views;

  void install(std::uint64_t id) {
    current_view = id;
    views.emplace_back(id, group);
  }

  void try_install() {
    while (!pending.empty() && delivered >= pending.front().second) {
      install(pending.front().first);
      pending.pop_front();
    }
  }

  void on_packet(const net::Packet& p) {
    const NetMsg& msg = p.payload.as<NetMsg>();
    if (msg.view) {
      if (synced) {
        pending.emplace_back(msg.id, msg.quota);
        try_install();
      } else {
        install(msg.id);  // the seeded bug: no synchronisation barrier
      }
      return;
    }
    holdback.emplace(msg.id, msg);
    while (holdback.contains(next_ordinal)) {
      holdback.erase(next_ordinal);
      deliveries.push_back(verify::DeliveryRecord{next_ordinal, current_view, next_ordinal,
                                                  "m" + std::to_string(next_ordinal)});
      ++next_ordinal;
      ++delivered;
      if (synced) try_install();
    }
  }
};

std::uint64_t net_run_seed(std::uint64_t cell_seed, std::size_t run_index) {
  SplitMix64 mix(cell_seed ^ (0x9E3779B97F4A7C15ULL * (run_index + 1)));
  return mix.next();
}

std::unique_ptr<Strategy> make_net_strategy(const NetCellOptions& opts, std::size_t run_index) {
  switch (opts.strategy) {
    case StrategyKind::kFirst:
      return std::make_unique<FirstStrategy>();
    case StrategyKind::kPct:
      return std::make_unique<PctStrategy>(net_run_seed(opts.seed, run_index), opts.pct_k);
    default:
      return std::make_unique<RandomWalkStrategy>(net_run_seed(opts.seed, run_index));
  }
}

const char* protocol_enum_name(NetProtocol protocol) {
  return protocol == NetProtocol::kSynced ? "kSynced" : "kUnsync";
}

const char* strategy_enum_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFirst:
      return "kFirst";
    case StrategyKind::kRandomWalk:
      return "kRandomWalk";
    case StrategyKind::kPct:
      return "kPct";
    case StrategyKind::kExhaustive:
      return "kExhaustive";
  }
  return "kRandomWalk";
}

std::string make_net_repro(const NetCellOptions& o, const ScheduleTrace& trace) {
  std::ostringstream out;
  out << "// Repro: replays the shrunk violating network schedule bit-for-bit.\n"
      << "samoa::explore::NetCellOptions o;\n"
      << "o.protocol = samoa::explore::NetProtocol::" << protocol_enum_name(o.protocol) << ";\n"
      << "o.strategy = samoa::explore::StrategyKind::" << strategy_enum_name(o.strategy) << ";\n"
      << "o.seed = " << o.seed << "ULL;\n"
      << "o.members = " << o.members << ";\n"
      << "o.relays = " << o.relays << ";\n"
      << "o.views = " << o.views << ";\n"
      << "o.with_faults = " << (o.with_faults ? "true" : "false") << ";\n"
      << "auto r = samoa::explore::replay_net_schedule(\n"
      << "    o, samoa::explore::ScheduleTrace::decode(\"" << trace.encode() << "\"));\n"
      << "ASSERT_FALSE(r.replay_diverged);\n"
      << "ASSERT_TRUE(r.violated);\n";
  return out.str();
}

void dump_net_if_requested(const NetCellResult& res) {
  const char* dir = std::getenv("SAMOA_EXPLORE_DUMP_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::ofstream out(std::string(dir) + "/" + res.cell_name() + ".trace");
  if (!out) return;
  out << "cell: " << res.cell_name() << "\n"
      << "schedules_run: " << res.schedules_run << "\n"
      << "decisions: " << res.decisions.summary() << "\n"
      << "first_violation: " << res.first_violation.encode() << "\n"
      << "shrunk: " << res.shrunk.encode() << "\n"
      << res.violation_summary << "\n\n"
      << res.repro;
}

}  // namespace

const char* to_string(NetProtocol protocol) {
  return protocol == NetProtocol::kSynced ? "vs-synced" : "vs-unsync";
}

std::string NetCellResult::cell_name() const {
  std::ostringstream out;
  out << "net_" << to_string(options.protocol) << "_" << to_string(options.strategy) << "_seed"
      << options.seed;
  if (options.with_faults) out << "_faults";
  return out.str();
}

NetRunResult run_net_schedule(const NetCellOptions& opts, Strategy* strategy) {
  const int n_members = std::max(opts.members, 2);
  const int n_relays = std::max(opts.relays, 2);
  const int epochs = std::max(opts.views - 1, 1);

  time::VirtualClock clock;
  net::LinkOptions link;
  link.base_latency = kHop;
  link.jitter = std::chrono::microseconds(0);
  link.drop_probability = 0.0;

  // Declared before the network so every callback target outlives its
  // deliveries; the hook likewise outlives the network, so it never needs
  // to be uninstalled.
  std::vector<MemberState> members(static_cast<std::size_t>(n_members));
  std::optional<ExploringDeliveryHook> hook;
  if (strategy != nullptr) hook.emplace(*strategy);

  net::SimNetwork net(link, opts.seed, &clock);
  net.enable_event_log(true);
  if (hook) net.set_delivery_hook(&*hook);

  // Site ids are allocated sequentially: members first, then relays, then
  // the coordinator, then any extra (idle) sites — so growing extra_sites
  // never shifts an existing id, and candidate keys stay stable.
  std::vector<SiteId> member_sites;
  member_sites.reserve(static_cast<std::size_t>(n_members));
  for (int m = 0; m < n_members; ++m) {
    MemberState* state = &members[static_cast<std::size_t>(m)];
    member_sites.push_back(
        net.add_site([state](const net::Packet& p) { state->on_packet(p); }));
  }
  for (int m = 0; m < n_members; ++m) {
    members[static_cast<std::size_t>(m)].synced = opts.protocol == NetProtocol::kSynced;
    members[static_cast<std::size_t>(m)].group = member_sites;
    members[static_cast<std::size_t>(m)].views.emplace_back(0, member_sites);
  }
  for (int r = 0; r < n_relays; ++r) {
    const SiteId self(static_cast<std::uint32_t>(n_members + r));
    net.add_site([&net, self](const net::Packet& p) {
      NetMsg fwd = p.payload.as<NetMsg>();
      fwd.relay_hop = false;
      net.send(self, SiteId(fwd.target), Message::of(fwd));
    });
  }
  const SiteId coord = net.add_site([](const net::Packet&) {});
  for (int x = 0; x < opts.extra_sites; ++x) {
    net.add_site([](const net::Packet&) {});
  }

  // Hold an activity pin across control scheduling: without it the clock
  // can fire the first control and advance virtual time before the
  // remaining controls are scheduled, shifting their (now + delay)
  // absolute times run-to-run.
  std::optional<time::Pin> setup_pin;
  setup_pin.emplace(clock);

  // Inert fault plan, armed through the network's control queue: a
  // partition + heal between two members that never exchange packets, and
  // a loss burst whose link options equal the defaults. Timed to coincide
  // with the first epoch's relay and member delivery waves, so the
  // actions' *ordering* against those deliveries is explored while their
  // *effect* is nil — existing-protocol cells must stay clean.
  std::optional<net::TimerService> timers;
  std::optional<chaos::ChaosEngine> engine;
  if (opts.with_faults) {
    timers.emplace(&clock);
    engine.emplace(net, *timers, chaos::ChaosEngine::Route::kNetwork);
    chaos::FaultPlan plan;
    plan.partition(kEpochGap + kHop, member_sites[0], member_sites[1]);
    plan.heal(kEpochGap + 2 * kHop, member_sites[0], member_sites[1]);
    plan.loss_burst(kEpochGap + kHop, kEpochGap + 2 * kHop, link);
    engine->arm(plan);
  }

  // Epoch scripts. Each epoch the coordinator seeds two data messages and
  // one view announcement per member, each through a rotating relay
  // (payload p, member m -> relay (p + m + e) % R): any two members route
  // a given payload through different relays, so the relay-lane race
  // decides per-member arrival order independently. Seeds are sent
  // data-first, so the default FIFO merge delivers data before the view
  // announcement on every member — the violation needs exploration.
  for (int e = 0; e < epochs; ++e) {
    net.schedule_control(
        kEpochGap * (e + 1), "epoch:" + std::to_string(e),
        [&net, coord, member_sites, n_members, n_relays, e] {
          for (int p = 0; p < 3; ++p) {
            for (int m = 0; m < n_members; ++m) {
              const SiteId relay(
                  static_cast<std::uint32_t>(n_members + (p + m + e) % n_relays));
              NetMsg msg;
              msg.relay_hop = true;
              msg.target = member_sites[static_cast<std::size_t>(m)].value();
              if (p == 2) {
                msg.view = true;
                msg.id = static_cast<std::uint64_t>(e) + 1;
                msg.quota = 2 * (static_cast<std::uint64_t>(e) + 1);
              } else {
                msg.id = 2 * static_cast<std::uint64_t>(e) + static_cast<std::uint64_t>(p) + 1;
              }
              net.send(coord, relay, Message::of(msg));
            }
          }
        });
  }

  // All packets of epoch e complete well before epoch e + 1 (kEpochGap >>
  // 2 * kHop), so the finish control one gap after the last epoch fires
  // strictly after every delivery and fault action.
  std::promise<void> done;
  net.schedule_control(kEpochGap * (epochs + 1), "finish", [&done] { done.set_value(); });
  setup_pin.reset();  // release time: the simulation runs from here
  done.get_future().wait();
  net.drain();

  NetRunResult r;
  r.events = net.event_log();
  r.event_hash = net.event_hash();
  if (hook) r.executed = hook->trace();

  std::vector<verify::IncarnationTrace> traces;
  traces.reserve(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    verify::IncarnationTrace t;
    t.site = member_sites[m];
    t.incarnation = 0;
    t.crashed = false;
    t.deliveries = members[m].deliveries;
    t.views = members[m].views;
    traces.push_back(std::move(t));
  }
  const verify::VsReport report = verify::check_virtual_synchrony(traces);
  r.violated = !report.ok();
  if (r.violated) r.violation_summary = report.describe();
  return r;
}

NetRunResult replay_net_schedule(const NetCellOptions& opts, const ScheduleTrace& trace) {
  ReplayStrategy strategy(trace);
  NetRunResult r = run_net_schedule(opts, &strategy);
  r.replay_diverged = strategy.diverged();
  return r;
}

NetCellResult explore_net_cell(const NetCellOptions& opts) {
  NetCellResult res;
  res.options = opts;
  const std::size_t budget = schedule_budget(opts.max_schedules);

  auto note_run = [&](const NetRunResult& r) {
    ++res.schedules_run;
    res.decisions.add(r.executed);
  };

  auto on_violation = [&](const NetRunResult& r) {
    res.violation_found = true;
    res.first_violation = r.executed;
    res.violation_summary = r.violation_summary;
    ShrinkRunFn rerun = [&](const ScheduleTrace& forced) {
      NetRunResult rr = replay_net_schedule(opts, forced);
      note_run(rr);
      return ShrinkOutcome{rr.violated, rr.executed};
    };
    res.shrunk = shrink_trace(r.executed, rerun, opts.shrink_budget);
    res.repro = make_net_repro(opts, res.shrunk);
    dump_net_if_requested(res);
  };

  if (opts.strategy == StrategyKind::kExhaustive) {
    ExhaustiveStrategy strategy(opts.exhaustive_depth);
    for (std::size_t i = 0; i < budget; ++i) {
      NetRunResult r = run_net_schedule(opts, &strategy);
      note_run(r);
      if (r.violated) {
        on_violation(r);
        break;
      }
      if (!strategy.advance(r.executed)) break;  // space exhausted to depth
    }
  } else {
    for (std::size_t i = 0; i < budget; ++i) {
      std::unique_ptr<Strategy> strategy = make_net_strategy(opts, i);
      NetRunResult r = run_net_schedule(opts, strategy.get());
      note_run(r);
      if (r.violated) {
        on_violation(r);
        break;
      }
      if (opts.strategy == StrategyKind::kFirst) break;  // deterministic
    }
  }
  return res;
}

std::vector<NetCellResult> net_sweep(const std::vector<NetProtocol>& protocols,
                                     const std::vector<StrategyKind>& strategies,
                                     const std::vector<std::uint64_t>& seeds,
                                     const NetCellOptions& base) {
  std::vector<NetCellResult> results;
  results.reserve(protocols.size() * strategies.size() * seeds.size());
  for (NetProtocol protocol : protocols) {
    for (StrategyKind strategy : strategies) {
      for (std::uint64_t seed : seeds) {
        NetCellOptions opts = base;
        opts.protocol = protocol;
        opts.strategy = strategy;
        opts.seed = seed;
        results.push_back(explore_net_cell(opts));
      }
    }
  }
  return results;
}

}  // namespace samoa::explore
