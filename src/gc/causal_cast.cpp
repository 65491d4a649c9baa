#include "gc/causal_cast.hpp"

#include <algorithm>

#include "net/codec.hpp"

namespace samoa::gc {

namespace {
// Two-byte magic prefix marking a causal header inside AppMessage::data.
constexpr char kMagic0 = '\x01';
constexpr char kMagic1 = 'V';
}  // namespace

std::string CausalCast::encode(const CausalMsg& msg) {
  net::ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(kMagic0));
  w.put_u8(static_cast<std::uint8_t>(kMagic1));
  w.put_varint(msg.origin.value());
  w.put_varint(msg.vc.size());
  for (const auto& [site, clock] : msg.vc) {
    w.put_varint(site.value());
    w.put_varint(clock);
  }
  w.put_string(msg.payload);
  const auto bytes = w.take();
  return std::string(bytes.begin(), bytes.end());
}

bool CausalCast::decode(const std::string& data, CausalMsg& out) {
  if (data.size() < 2 || data[0] != kMagic0 || data[1] != kMagic1) return false;
  const std::vector<std::uint8_t> bytes(data.begin(), data.end());
  net::ByteReader r(bytes);
  try {
    r.get_u8();
    r.get_u8();
    out.origin = SiteId(static_cast<SiteId::value_type>(r.get_varint()));
    const auto n = r.get_varint();
    if (n > r.remaining()) return false;
    out.vc.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto site = SiteId(static_cast<SiteId::value_type>(r.get_varint()));
      out.vc[site] = r.get_varint();
    }
    out.payload = r.get_string();
    return r.exhausted();
  } catch (const net::CodecError&) {
    return false;
  }
}

CausalCast::CausalCast(const GcOptions& opts, const GcEvents& gc_events, SiteId self,
                       View initial_view)
    : GcMicroprotocol("causal", opts, gc_events), self_(self), view_(std::move(initial_view)) {
  submit_ = handle("submit", [this](Outbox& out, const std::string& payload) {
    CausalMsg msg;
    msg.origin = self_;
    ++vc_[self_];
    msg.vc = vc_;
    msg.payload = payload;
    // Own messages are delivered locally right away (they causally
    // depend only on what this site already delivered).
    delivered_.add();
    out.trigger_all(events().causal_deliver, Message::of(msg.payload));
    // MsgId subspace bit 30 keeps causal ids apart from abcast / rbcast.
    AppMessage app{make_msg_id(self_, kCausalChannelBit | epoch_bits(options().id_epoch) |
                                          ++local_seq_),
                   encode(msg)};
    out.trigger(events().bcast, Message::of(app));
  });

  on_rdeliver_ = handle("on_rdeliver", [this](Outbox& out, const AppMessage& app) {
    // Causal broadcasts carry the causal channel bit (set by submit); any
    // other payload is not ours, however its bytes happen to decode.
    if (!in_channel(app.id, kCausalChannelBit)) return;
    CausalMsg msg;
    if (!decode(app.data, msg)) return;                    // malformed header
    if (msg.origin == self_) return;                       // delivered at submit
    if (msg.vc.count(msg.origin) == 0) return;             // malformed header
    if (msg.vc.at(msg.origin) <= vc_[msg.origin]) return;  // duplicate/old
    if (deliverable(msg)) {
      deliver(out, msg);
      drain_buffer(out);
    } else {
      buffered_.add();
      buffer_.push_back(std::move(msg));
    }
  });

  view_change_ = handle("viewChange", [this](Outbox&, const View& next) { view_ = next; });
}

bool CausalCast::deliverable(const CausalMsg& m) const {
  for (const auto& [site, clock] : m.vc) {
    auto it = vc_.find(site);
    const std::uint64_t mine = it == vc_.end() ? 0 : it->second;
    if (site == m.origin) {
      if (clock != mine + 1) return false;  // must be the next from origin
    } else if (clock > mine) {
      return false;  // missing a causal predecessor from `site`
    }
  }
  return true;
}

void CausalCast::deliver(Outbox& out, const CausalMsg& m) {
  vc_[m.origin] = m.vc.at(m.origin);
  delivered_.add();
  out.trigger_all(events().causal_deliver, Message::of(m.payload));
}

void CausalCast::drain_buffer(Outbox& out) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (deliverable(*it)) {
        CausalMsg m = std::move(*it);
        buffer_.erase(it);
        deliver(out, m);
        progressed = true;
        break;  // iterator invalidated; rescan
      }
    }
  }
}

}  // namespace samoa::gc
