// CausalCast — causal-order broadcast on top of RelCast.
//
// Classic vector-clock causal delivery (Birman-Schiper-Stephenson style):
// every broadcast carries the sender's vector clock; a receiver delivers a
// message from origin o only when it is the next one from o
// (vc[o] == VC[o] + 1) and every causal predecessor from other sites has
// been delivered (vc[k] <= VC[k] for k != o). Messages arriving early are
// buffered. Own messages are delivered at submit time.
//
// The vector clock travels inside AppMessage::data (a magic-prefixed
// binary header built with the net/codec ByteWriter), so CausalCast rides
// the existing reliable broadcast unchanged — microprotocol layering as
// the paper's framework intends. Causal broadcasts are recognised by the
// kCausalChannelBit of their MsgId, never by their payload bytes: a plain
// reliable broadcast may carry any bytes, a causal header included.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/view.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

/// Decoded causal header + payload.
struct CausalMsg {
  SiteId origin;
  std::map<SiteId, std::uint64_t> vc;  // sender's clock *after* increment
  std::string payload;
};

class CausalCast : public GcMicroprotocol {
 public:
  CausalCast(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view);

  const Handler* submit_handler() const { return submit_; }
  const Handler* on_rdeliver_handler() const { return on_rdeliver_; }
  const Handler* view_change_handler() const { return view_change_; }

  /// Messages that had to wait in the causality buffer before delivery.
  std::uint64_t buffered_count() const { return buffered_.value(); }
  std::uint64_t delivered_count() const { return delivered_.value(); }

  /// Encode / decode the causal header; decode returns false for ordinary
  /// (non-causal) payloads.
  static std::string encode(const CausalMsg& msg);
  static bool decode(const std::string& data, CausalMsg& out);

 private:
  bool deliverable(const CausalMsg& m) const;
  void deliver(Outbox& out, const CausalMsg& m);
  void drain_buffer(Outbox& out);

  SiteId self_;
  View view_;
  std::map<SiteId, std::uint64_t> vc_;  // delivered-so-far per origin
  std::vector<CausalMsg> buffer_;
  std::uint64_t local_seq_ = 0;  // MsgId subspace for causal broadcasts
  Counter buffered_;
  Counter delivered_;

  const Handler* submit_ = nullptr;
  const Handler* on_rdeliver_ = nullptr;
  const Handler* view_change_ = nullptr;
};

}  // namespace samoa::gc
