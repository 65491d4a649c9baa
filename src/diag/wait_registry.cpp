#include "diag/wait_registry.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "util/thread_pool.hpp"

namespace samoa::diag {

const char* to_string(WaitKind kind) {
  switch (kind) {
    case WaitKind::kGateExact:
      return "gate-exact";
    case WaitKind::kGateWindow:
      return "gate-window";
    case WaitKind::kSerialTurn:
      return "serial-turn";
    case WaitKind::kClaim:
      return "claim";
    case WaitKind::kClaimAbort:
      return "claim-abort";
    case WaitKind::kDrain:
      return "drain";
    case WaitKind::kCompletion:
      return "completion";
    case WaitKind::kExternal:
      return "external";
  }
  return "?";
}

WaitRegistry& WaitRegistry::instance() {
  static WaitRegistry* reg = new WaitRegistry();  // leaked: outlives all users
  return *reg;
}

void WaitRegistry::note_admission(const void* subject, const char* name, std::uint64_t version,
                                  std::uint64_t comp) {
  std::unique_lock lock(mu_);
  auto& s = subjects_[subject];
  if (s.name.empty() && name != nullptr) s.name = name;
  s.holders.emplace(version, comp);
}

void WaitRegistry::note_release(const void* subject, std::uint64_t version) {
  std::unique_lock lock(mu_);
  auto it = subjects_.find(subject);
  if (it == subjects_.end()) return;
  auto& s = it->second;
  s.last_published = std::max(s.last_published, version);
  s.holders.erase(s.holders.begin(), s.holders.upper_bound(version));
}

void WaitRegistry::forget_subject(const void* subject) {
  std::unique_lock lock(mu_);
  subjects_.erase(subject);
}

void WaitRegistry::attach_source(const void* subject, const HolderSource* src) {
  std::unique_lock lock(mu_);
  subjects_[subject].source = src;
}

void WaitRegistry::register_pool(samoa::ElasticThreadPool* pool) {
  std::unique_lock lock(mu_);
  pools_.push_back(pool);
}

void WaitRegistry::unregister_pool(samoa::ElasticThreadPool* pool) {
  std::unique_lock lock(mu_);
  pools_.erase(std::remove(pools_.begin(), pools_.end(), pool), pools_.end());
}

std::uint64_t WaitRegistry::add_wait(WaitRecord rec) {
  std::unique_lock lock(mu_);
  rec.id = next_wait_id_++;
  const auto id = rec.id;
  if (!rec.subject_name.empty() && rec.subject != nullptr) {
    // Admissions only know microprotocol ids; the first waiter that knows
    // the human name backfills it for dumps.
    auto it = subjects_.find(rec.subject);
    if (it != subjects_.end() && it->second.name.empty()) it->second.name = rec.subject_name;
  }
  waits_.emplace(id, std::move(rec));
  return id;
}

void WaitRegistry::remove_wait(std::uint64_t id) {
  std::unique_lock lock(mu_);
  waits_.erase(id);
}

std::size_t WaitRegistry::wait_count() const {
  std::unique_lock lock(mu_);
  return waits_.size();
}

std::chrono::steady_clock::duration WaitRegistry::oldest_wait_age() const {
  std::unique_lock lock(mu_);
  if (waits_.empty()) return {};
  auto oldest = std::chrono::steady_clock::time_point::max();
  for (const auto& [id, rec] : waits_) oldest = std::min(oldest, rec.since);
  return std::chrono::steady_clock::now() - oldest;
}

Dump WaitRegistry::snapshot() const {
  Dump d;
  d.taken = std::chrono::steady_clock::now();
  std::vector<samoa::ElasticThreadPool*> pools;
  {
    std::unique_lock lock(mu_);
    d.waits.reserve(waits_.size());
    for (const auto& [id, rec] : waits_) d.waits.push_back(rec);
    for (const auto& [subject, s] : subjects_) {
      Dump::SubjectState ss;
      ss.subject = subject;
      ss.name = s.name;
      if (s.source != nullptr) {
        // Self-tracking subject (version gate): pull a lock-free snapshot.
        // Sources never call back into the registry, so querying them under
        // mu_ is safe.
        ss.last_published = s.source->last_published();
        ss.holders = s.source->outstanding_holders();
      } else {
        ss.last_published = s.last_published;
        for (const auto& [ver, comp] : s.holders) ss.holders.push_back({ver, comp});
      }
      d.subjects.push_back(std::move(ss));
    }
    // Pool snapshots nest the pool mutex under the registry mutex (the
    // registry lock also blocks unregister_pool, keeping the pointers
    // alive). Pools never call back into the registry under their lock.
    for (auto* p : pools_) d.pools.push_back(p->diag_state());
  }
  std::sort(d.waits.begin(), d.waits.end(),
            [](const WaitRecord& a, const WaitRecord& b) { return a.id < b.id; });
  std::sort(d.subjects.begin(), d.subjects.end(),
            [](const auto& a, const auto& b) { return a.subject < b.subject; });

  // --- derive wait-for edges ---
  std::unordered_map<const void*, const Dump::SubjectState*> subject_index;
  for (const auto& s : d.subjects) subject_index.emplace(s.subject, &s);
  for (const WaitRecord& w : d.waits) {
    auto sit = subject_index.find(w.subject);
    if (sit == subject_index.end()) continue;
    const Dump::SubjectState* s = sit->second;
    // Every outstanding holder at or below the version the waiter needs
    // must publish before the wait can end; each is a real blocker.
    // kSerialTurn waits for now_serving == ticket, so strictly-older
    // tickets block; gate waits need lv to reach awaiting_lo, so holders
    // up to and including awaiting_lo block. Only the *nearest* few are
    // materialised as edges: with thousands of queued waiters a full
    // cross-product is quadratic, and a cycle through a farther holder
    // still shows up transitively via that holder's own wait record.
    const bool inclusive = w.kind != WaitKind::kSerialTurn;
    constexpr std::size_t kMaxHoldersPerWait = 8;
    auto past_end = std::upper_bound(
        s->holders.begin(), s->holders.end(), w.awaiting_lo,
        [](std::uint64_t lo, const HolderEntry& h) { return lo < h.version; });
    if (!inclusive) {
      while (past_end != s->holders.begin() && std::prev(past_end)->version == w.awaiting_lo) {
        --past_end;
      }
    }
    auto first = past_end;
    for (std::size_t n = 0; first != s->holders.begin() && n < kMaxHoldersPerWait; ++n) --first;
    for (auto hit = first; hit != past_end; ++hit) {
      const HolderEntry& h = *hit;
      if (h.comp == w.comp) continue;  // waiting on an older version of itself
      if (w.comp == 0) continue;
      WaitEdge e;
      e.from_comp = w.comp;
      e.to_comp = h.comp;
      std::ostringstream os;
      os << "comp " << w.comp << " " << to_string(w.kind) << " on " << s->name << " needs v"
         << w.awaiting_lo << (inclusive ? "" : " served") << "; v" << h.version << " held by comp "
         << h.comp;
      e.label = os.str();
      d.edges.push_back(std::move(e));
    }
  }
  // A computation whose task is queued in a pool that cannot schedule it
  // (no idle worker, growth exhausted) waits for the pool; the pool waits
  // for every computation its workers currently serve.
  for (const PoolState& p : d.pools) {
    const bool saturated =
        !p.queued_tags.empty() && p.idle == 0 && p.live - p.parked >= p.max_threads;
    if (!saturated) continue;
    std::unordered_set<std::uint64_t> queued_seen;
    for (std::uint64_t comp : p.queued_tags) {
      if (comp == 0 || !queued_seen.insert(comp).second) continue;
      WaitEdge e;
      e.from_comp = comp;
      e.to_pool = p.pool;
      std::ostringstream os;
      os << "comp " << comp << " has a runnable task queued in saturated pool (live=" << p.live
         << " parked=" << p.parked << " max=" << p.max_threads << ")";
      e.label = os.str();
      d.edges.push_back(std::move(e));
    }
    std::unordered_set<std::uint64_t> running_seen;
    for (std::uint64_t comp : p.running_tags) {
      if (comp == 0 || !running_seen.insert(comp).second) continue;
      WaitEdge e;
      e.from_pool = p.pool;
      e.to_comp = comp;
      std::ostringstream os;
      os << "pool worker occupied by comp " << comp;
      e.label = os.str();
      d.edges.push_back(std::move(e));
    }
  }

  // --- cycle detection (iterative DFS over comp/pool nodes) ---
  // Node key: computations get their id, pools get a pointer-derived key
  // in a disjoint range.
  auto node_of = [](std::uint64_t comp, const samoa::ElasticThreadPool* pool) -> std::uint64_t {
    return comp != 0 ? comp : reinterpret_cast<std::uintptr_t>(pool) | (1ull << 63);
  };
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> out;  // node -> edge idx
  for (std::size_t i = 0; i < d.edges.size(); ++i) {
    out[node_of(d.edges[i].from_comp, d.edges[i].from_pool)].push_back(i);
  }
  std::unordered_map<std::uint64_t, int> colour;  // 0 white 1 grey 2 black
  std::vector<std::size_t> path;                  // edge indices along DFS
  std::vector<WaitEdge> cycle;
  std::function<bool(std::uint64_t)> dfs = [&](std::uint64_t node) -> bool {
    colour[node] = 1;
    auto it = out.find(node);
    if (it != out.end()) {
      for (std::size_t ei : it->second) {
        const auto to = node_of(d.edges[ei].to_comp, d.edges[ei].to_pool);
        const int c = colour[to];
        if (c == 1) {
          // Found a back edge: unwind `path` to the first edge leaving `to`.
          path.push_back(ei);
          std::size_t start = 0;
          for (std::size_t i = 0; i < path.size(); ++i) {
            if (node_of(d.edges[path[i]].from_comp, d.edges[path[i]].from_pool) == to) {
              start = i;
              break;
            }
          }
          for (std::size_t i = start; i < path.size(); ++i) cycle.push_back(d.edges[path[i]]);
          return true;
        }
        if (c == 0) {
          path.push_back(ei);
          if (dfs(to)) return true;
          path.pop_back();
        }
      }
    }
    colour[node] = 2;
    return false;
  };
  for (const auto& [node, edges] : out) {
    (void)edges;
    if (colour[node] == 0 && dfs(node)) break;
  }
  d.cycle = std::move(cycle);
  return d;
}

std::string Dump::to_text() const {
  std::ostringstream os;
  os << "=== samoa blocked-state dump ===\n";
  os << waits.size() << " blocked thread(s), " << pools.size() << " pool(s), " << subjects.size()
     << " gated subject(s)\n";
  const auto now = taken;
  auto print_wait = [&](const WaitRecord& w) {
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - w.since).count();
    os << "  [wait " << w.id << "] " << to_string(w.kind) << " subject=" << w.subject_name
       << " awaiting=[" << w.awaiting_lo << "," << w.awaiting_hi << ") observed=" << w.observed
       << " comp=" << w.comp << (w.pool != nullptr ? " on-pool-worker" : "") << " blocked for "
       << ms << "ms\n";
  };
  constexpr std::size_t kMaxIndividual = 40;
  if (waits.size() <= kMaxIndividual) {
    for (const WaitRecord& w : waits) print_wait(w);
  } else {
    // Too many to list: show the oldest few (the likely head-of-line
    // blockers) and aggregate the rest by what they wait on.
    std::vector<WaitRecord> oldest(waits);
    std::sort(oldest.begin(), oldest.end(),
              [](const WaitRecord& a, const WaitRecord& b) { return a.since < b.since; });
    os << "oldest " << kMaxIndividual / 2 << " waits:\n";
    for (std::size_t i = 0; i < kMaxIndividual / 2; ++i) print_wait(oldest[i]);
    std::map<std::string, std::size_t> groups;
    for (const WaitRecord& w : waits) {
      std::ostringstream key;
      key << to_string(w.kind) << " subject=" << w.subject_name << " awaiting_lo="
          << w.awaiting_lo;
      ++groups[key.str()];
    }
    os << "all " << waits.size() << " waits grouped:\n";
    for (const auto& [key, n] : groups) os << "  " << n << " x " << key << "\n";
  }
  for (const PoolState& p : pools) {
    os << "  [pool " << p.pool << "] live=" << p.live << " idle=" << p.idle
       << " parked=" << p.parked << " queued=" << p.queued << " max=" << p.max_threads
       << " peak=" << p.peak << "\n";
    if (!p.queued_tags.empty()) {
      os << "    queued comps:";
      for (auto t : p.queued_tags) os << " " << t;
      os << "\n";
    }
    if (!p.running_tags.empty()) {
      os << "    running comps:";
      for (auto t : p.running_tags) os << " " << t;
      os << "\n";
    }
  }
  for (const SubjectState& s : subjects) {
    if (s.holders.empty()) continue;
    os << "  [subject " << (s.name.empty() ? "?" : s.name) << " @" << s.subject
       << "] published=" << s.last_published << " outstanding:";
    for (const auto& h : s.holders) os << " v" << h.version << "->comp" << h.comp;
    os << "\n";
  }
  if (!cycle.empty()) {
    os << "DEADLOCK CYCLE (" << cycle.size() << " edges):\n";
    for (const WaitEdge& e : cycle) os << "  " << e.label << "\n";
  } else if (!edges.empty()) {
    constexpr std::size_t kMaxEdges = 80;
    os << "wait-for edges (no cycle found):\n";
    for (std::size_t i = 0; i < std::min(edges.size(), kMaxEdges); ++i) {
      os << "  " << edges[i].label << "\n";
    }
    if (edges.size() > kMaxEdges) os << "  ... " << edges.size() - kMaxEdges << " more\n";
  }
  return os.str();
}

namespace {
void json_escape(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
  os << '"';
}
}  // namespace

std::string Dump::to_json() const {
  std::ostringstream os;
  os << "{\"waits\":[";
  for (std::size_t i = 0; i < waits.size(); ++i) {
    const WaitRecord& w = waits[i];
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(taken - w.since).count();
    if (i) os << ",";
    os << "{\"id\":" << w.id << ",\"kind\":\"" << to_string(w.kind) << "\",\"subject\":";
    json_escape(os, w.subject_name);
    os << ",\"awaiting_lo\":" << w.awaiting_lo << ",\"awaiting_hi\":" << w.awaiting_hi
       << ",\"observed\":" << w.observed << ",\"comp\":" << w.comp
       << ",\"on_pool_worker\":" << (w.pool != nullptr ? "true" : "false")
       << ",\"blocked_ms\":" << ms << "}";
  }
  os << "],\"pools\":[";
  for (std::size_t i = 0; i < pools.size(); ++i) {
    const PoolState& p = pools[i];
    if (i) os << ",";
    os << "{\"live\":" << p.live << ",\"idle\":" << p.idle << ",\"parked\":" << p.parked
       << ",\"queued\":" << p.queued << ",\"max\":" << p.max_threads << ",\"peak\":" << p.peak
       << ",\"queued_comps\":[";
    for (std::size_t j = 0; j < p.queued_tags.size(); ++j) {
      if (j) os << ",";
      os << p.queued_tags[j];
    }
    os << "],\"running_comps\":[";
    for (std::size_t j = 0; j < p.running_tags.size(); ++j) {
      if (j) os << ",";
      os << p.running_tags[j];
    }
    os << "]}";
  }
  os << "],\"subjects\":[";
  bool first = true;
  for (const SubjectState& s : subjects) {
    if (s.holders.empty()) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":";
    json_escape(os, s.name);
    os << ",\"published\":" << s.last_published << ",\"holders\":[";
    for (std::size_t j = 0; j < s.holders.size(); ++j) {
      if (j) os << ",";
      os << "{\"version\":" << s.holders[j].version << ",\"comp\":" << s.holders[j].comp << "}";
    }
    os << "]}";
  }
  os << "],\"deadlock\":" << (cycle.empty() ? "false" : "true") << ",\"cycle\":[";
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i) os << ",";
    json_escape(os, cycle[i].label);
  }
  os << "]}";
  return os.str();
}

namespace {
thread_local int t_wait_depth = 0;
}  // namespace

ScopedWait::ScopedWait(WaitKind kind, const void* subject, std::string subject_name,
                       std::uint64_t awaiting_lo, std::uint64_t awaiting_hi,
                       std::uint64_t observed) {
  // Nested waits (an instrumented primitive parking inside an already
  // registered wait, e.g. wait_done's OneShotEvent) stay invisible: the
  // outer record describes the park, and pool/observer must see
  // exactly one park per blocked thread.
  outermost_ = ++t_wait_depth == 1;
  if (!outermost_) return;
  WaitRecord rec;
  rec.kind = kind;
  rec.subject = subject;
  rec.subject_name = std::move(subject_name);
  rec.awaiting_lo = awaiting_lo;
  rec.awaiting_hi = awaiting_hi;
  rec.observed = observed;
  rec.comp = current_computation();
  rec.thread = std::this_thread::get_id();
  rec.since = std::chrono::steady_clock::now();
  kind_ = kind;
  comp_ = rec.comp;
  pool_ = samoa::ElasticThreadPool::current();
  rec.pool = pool_;
  id_ = WaitRegistry::instance().add_wait(std::move(rec));
  // Release this worker's runnable slot for the duration of the park —
  // the pool may need to grow to run the task that unblocks us.
  if (pool_ != nullptr) pool_->note_worker_parked();
  if (WaitObserver* obs = WaitRegistry::instance().observer()) obs->on_wait_park(kind_, comp_);
}

ScopedWait::~ScopedWait() {
  --t_wait_depth;
  if (!outermost_) return;
  if (WaitObserver* obs = WaitRegistry::instance().observer()) obs->on_wait_unpark(kind_, comp_);
  if (pool_ != nullptr) pool_->note_worker_unparked();
  WaitRegistry::instance().remove_wait(id_);
}

namespace {
thread_local std::uint64_t t_current_computation = 0;
}

std::uint64_t current_computation() { return t_current_computation; }

ScopedComputation::ScopedComputation(std::uint64_t comp) : prev_(t_current_computation) {
  t_current_computation = comp;
}

ScopedComputation::~ScopedComputation() { t_current_computation = prev_; }

}  // namespace samoa::diag
