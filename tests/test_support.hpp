// Shared fixtures for the concurrency-control tests: small instrumented
// microprotocols and helpers to build the paper's example protocols.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "verify/checker.hpp"

namespace samoa::testing {

/// One seed knob for every randomized test (property sweeps, stress
/// fuzzing, schedule exploration): SAMOA_TEST_SEED overrides the default
/// when set, so a CI failure under a swept seed reruns locally with
/// `SAMOA_TEST_SEED=<n> ctest ...`. Tests must put the effective seed in
/// their failure output (SCOPED_TRACE / assertion message / test name).
inline std::uint64_t test_seed(std::uint64_t def) {
  if (const char* env = std::getenv("SAMOA_TEST_SEED"); env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<std::uint64_t>(v);
  }
  return def;
}

/// The network carries bytes: a test that only counts or orders packets
/// sends one int as a datagram, and `datagram_value` reads it back.
inline std::vector<std::uint8_t> datagram(int value) {
  std::vector<std::uint8_t> bytes(sizeof value);
  std::memcpy(bytes.data(), &value, sizeof value);
  return bytes;
}
inline int datagram_value(const std::vector<std::uint8_t>& bytes) {
  int value = 0;
  std::memcpy(&value, bytes.data(), std::min(sizeof value, bytes.size()));
  return value;
}

/// Microprotocol with a single handler that optionally busy-waits and
/// counts its executions. `in_flight`/`max_in_flight` detect concurrent
/// executions on the same microprotocol (which would violate isolation).
class ProbeMp : public Microprotocol {
 public:
  explicit ProbeMp(std::string name, std::chrono::microseconds work = {})
      : Microprotocol(std::move(name)), work_(work) {
    handler = &register_handler("run", [this](Context&, const Message&) {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      if (work_.count() > 0) spin_for(work_);
      calls.fetch_add(1);
      in_flight.fetch_sub(1);
    });
  }

  const Handler* handler = nullptr;
  std::atomic<int> calls{0};
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};

 private:
  std::chrono::microseconds work_;
};

/// Microprotocol whose handler blocks until released — for constructing
/// deterministic schedules in tests.
class BlockingMp : public Microprotocol {
 public:
  explicit BlockingMp(std::string name) : Microprotocol(std::move(name)) {
    handler = &register_handler("run", [this](Context&, const Message&) {
      started.set();
      release.wait();
      calls.fetch_add(1);
    });
  }

  const Handler* handler = nullptr;
  OneShotEvent started;
  OneShotEvent release;
  std::atomic<int> calls{0};
};

/// Appends each execution to a shared order log (for schedule assertions).
class LoggingMp : public Microprotocol {
 public:
  LoggingMp(std::string name, std::vector<std::string>& log, std::mutex& log_mu)
      : Microprotocol(std::move(name)) {
    handler = &register_handler("run", [this, &log, &log_mu](Context&, const Message&) {
      std::unique_lock lock(log_mu);
      log.push_back(this->name());
    });
  }
  const Handler* handler = nullptr;
};

/// Assert that a runtime's recorded trace satisfies the isolation property.
inline IsolationReport expect_isolated(Runtime& rt) {
  auto report = check_isolation(rt.trace()->snapshot());
  EXPECT_TRUE(report.isolated) << report.summary();
  return report;
}

}  // namespace samoa::testing
