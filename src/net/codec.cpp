#include "net/codec.hpp"

#include <limits>
#include <utility>

namespace samoa::net {

namespace {

using namespace samoa::gc;

/// An encoding starts with room for the header and fields of every control
/// packet and of a small batch, so most packets take one allocation.
constexpr std::size_t kReserve = 128;

/// Each Wire alternative's fields in wire order: the one table that both
/// directions walk. `io` is a Writer (M const) or a Reader.
template <typename IO, typename M>
void fields(IO& io, M& m) {
  using T = std::remove_const_t<M>;
  if constexpr (std::is_same_v<T, RcData>) {
    io(m.seq, m.body);
  } else if constexpr (std::is_same_v<T, RcAck>) {
    io(m.seq);
  } else if constexpr (std::is_same_v<T, FdHeartbeat>) {
    io();  // no body
  } else if constexpr (std::is_same_v<T, CsPrepare> || std::is_same_v<T, CsAccepted>) {
    io(m.instance, m.round);
  } else if constexpr (std::is_same_v<T, CsPromise>) {
    io(m.instance, m.round, m.accepted_round, m.accepted_value);
  } else if constexpr (std::is_same_v<T, CsAccept>) {
    io(m.instance, m.round, m.value);
  } else if constexpr (std::is_same_v<T, CsDecide>) {
    io(m.instance, m.value);
  } else if constexpr (std::is_same_v<T, ViewInstall>) {
    io(m.view_id, m.members, m.next_instance);
  } else if constexpr (std::is_same_v<T, SwimPing>) {
    io(m.seq, m.updates);
  } else if constexpr (std::is_same_v<T, SwimAck>) {
    io(m.seq, m.on_behalf_of, m.updates);
  } else {
    static_assert(std::is_same_v<T, SwimPingReq>);
    io(m.seq, m.target, m.updates);
  }
}

/// Integers are varints, a string is its length and bytes, an optional a
/// presence byte, and a list its length and items.
struct Writer {
  ByteWriter& w;

  template <typename... F>
  void operator()(const F&... f) {
    (put(f), ...);
  }
  void put(std::uint64_t v) { w.put_varint(v); }
  void put(SiteId s) { w.put_varint(s.value()); }
  void put(const AppMessage& m) {
    w.put_varint(m.id);
    w.put_string(m.data);
  }
  void put(const SwimUpdate& u) {
    w.put_u8(static_cast<std::uint8_t>(u.status));
    put(u.site);
    put(u.incarnation);
  }
  void put(const std::optional<ConsensusValue>& v) {
    w.put_bool(v.has_value());
    if (v) put(*v);
  }
  template <typename T>
  void put(const std::vector<T>& items) {
    w.put_varint(items.size());
    for (const T& item : items) put(item);
  }
};

/// Writer's inverse. Every read is bounds-checked and throws CodecError.
struct Reader {
  ByteReader& r;

  template <typename... F>
  void operator()(F&... f) {
    (get(f), ...);
  }
  void get(std::uint64_t& v) { v = r.get_varint(); }
  void get(SiteId& s) {
    const std::uint64_t v = r.get_varint();
    if (v > std::numeric_limits<SiteId::value_type>::max()) {
      throw CodecError("site id out of range");
    }
    s = SiteId(static_cast<SiteId::value_type>(v));
  }
  void get(AppMessage& m) {
    get(m.id);
    m.data = r.get_string();
  }
  void get(SwimUpdate& u) {
    const auto status = r.get_u8();
    if (status > 2) throw CodecError("bad swim status " + std::to_string(status));
    u.status = static_cast<SwimStatus>(status);
    get(u.site);
    get(u.incarnation);
  }
  void get(std::optional<ConsensusValue>& v) {
    if (r.get_bool()) get(v.emplace());
  }
  template <typename T>
  void get(std::vector<T>& items) {
    const auto n = r.get_varint();
    // Every item takes at least one byte: a longer count is certainly
    // malformed — reject before allocating.
    if (n > r.remaining()) throw CodecError("list length exceeds payload");
    items.resize(static_cast<std::size_t>(n));
    for (T& item : items) get(item);
  }
};

/// Make `wire` hold a default-constructed alternative number `index`.
template <std::size_t... I>
void emplace_alternative(Wire& wire, std::size_t index, std::index_sequence<I...>) {
  ((index == I ? static_cast<void>(wire.emplace<I>()) : static_cast<void>(0)), ...);
}

}  // namespace

void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_string(const std::string& s) {
  put_varint(s.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

std::uint8_t ByteReader::get_u8() {
  if (pos_ >= bytes_.size()) throw CodecError("truncated input: u8");
  return bytes_[pos_++];
}

std::uint64_t ByteReader::get_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw CodecError("malformed varint: too long");
    const std::uint8_t byte = get_u8();
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

std::string ByteReader::get_string() {
  const auto n = get_varint();
  if (n > remaining()) throw CodecError("truncated input: string");
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::vector<std::uint8_t> encode_wire(SiteId from, std::uint64_t frontier, const gc::Wire& wire) {
  ByteWriter w(kReserve);
  Writer out{w};
  out(from, frontier);
  w.put_u8(static_cast<std::uint8_t>(wire.index() + 1));  // the tag
  std::visit([&out](const auto& msg) { fields(out, msg); }, wire);
  return w.take();
}

gc::FromWire decode_wire(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  Reader in{r};
  FromWire fw;
  in(fw.from, fw.frontier);
  const std::uint8_t tag = r.get_u8();
  if (tag == 0 || tag > std::variant_size_v<Wire>) {
    throw CodecError("unknown wire tag " + std::to_string(tag));
  }
  emplace_alternative(fw.wire, tag - 1u, std::make_index_sequence<std::variant_size_v<Wire>>{});
  std::visit([&in](auto& msg) { fields(in, msg); }, fw.wire);
  if (!r.exhausted()) throw CodecError("trailing bytes after wire message");
  return fw;
}

}  // namespace samoa::net
