// Binary wire codec.
//
// Protocol frameworks "support primitives that can simplify the
// construction of network protocols, such as ... marshalling messages to
// the network format" (paper Section 1). This module provides that
// substrate: a compact, self-describing binary encoding for the
// group-communication Wire messages, built on a varint writer/reader.
// Every GroupNode packet crosses the simulated network as these bytes:
// Transport encodes each one, and GroupNode::on_packet decodes it and
// drops a datagram that does not decode — exactly the code a real UDP
// transport would run.
//
// Encoding: LEB128-style varints for integers, length-prefixed strings
// and lists, one tag byte per Wire alternative (its index in the variant
// plus one). A packet is its header (the sender's site id and ABcast
// frontier, see gc::FromWire), the tag and the body's fields in order.
// Decoding is bounds-checked and throws CodecError on truncated or
// malformed input (never UB).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "gc/wire.hpp"

namespace samoa::net {

class CodecError : public SamoaError {
 public:
  explicit CodecError(const std::string& what) : SamoaError(what) {}
};

/// Append-only binary writer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Start with room for `capacity` bytes.
  explicit ByteWriter(std::size_t capacity) { bytes_.reserve(capacity); }

  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_varint(std::uint64_t v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_string(const std::string& s);

  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked binary reader.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint8_t get_u8();
  std::uint64_t get_varint();
  bool get_bool() { return get_u8() != 0; }
  std::string get_string();

  bool exhausted() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

/// Marshal a Wire message (with its header: sender and frontier) to bytes
/// and back. The decode of any encode is identity (round-trip
/// property-tested); decode of arbitrary bytes either succeeds or throws
/// CodecError.
std::vector<std::uint8_t> encode_wire(SiteId from, std::uint64_t frontier, const gc::Wire& wire);
gc::FromWire decode_wire(const std::vector<std::uint8_t>& bytes);

}  // namespace samoa::net
