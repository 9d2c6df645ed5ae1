// Binary encoding of control-channel messages.
//
// Frame layout (big-endian):
//   u8  version        (kProtocolVersion)
//   u8  type           (MsgType)
//   u16 length         (whole frame, header included)
//   u32 xid
//   ... type-specific body ...
// Decoding is fully bounds-checked; malformed frames yield Errors, never
// undefined behaviour (fuzz-style tests feed random bytes through decode()).
#pragma once

#include <span>
#include <vector>

#include "tsu/proto/messages.hpp"
#include "tsu/util/status.hpp"

namespace tsu::proto {

std::vector<std::byte> encode(const Message& message);

// Zero-allocation variant: appends the encoded frame to `out` (cleared
// first). Re-using one scratch vector across calls amortizes the buffer to
// its high-water capacity - the channel's frame pool is built on this.
void encode_into(const Message& message, std::vector<std::byte>& out);

// Appends the encoded frame to `out` without clearing it: compile_plan lays
// a plan's frames back to back in one buffer this way.
void encode_append(const Message& message, std::vector<std::byte>& out);

// Writes into `out` (cleared first) a Batch frame whose `count` elements
// are the already-encoded frames laid back to back in `elements`: the
// batch header and count, the element bytes verbatim, then the same length
// patch every frame gets. Byte-identical to encode(make_batch(xid, m)) of
// the messages those frames encode; the controller outbox builds its batch
// frames this way from the xid-patched frames it holds.
void encode_batch_into(std::uint32_t xid, std::size_t count,
                       std::span<const std::byte> elements,
                       std::vector<std::byte>& out);

// Encoded size of make_flow_mod(xid, mod) in bytes, computed from the
// layout without encoding; compile_plan sizes a plan's frame buffer with
// it. A codec test pins it to encode() for every match shape.
std::size_t flow_mod_frame_size(const FlowMod& mod) noexcept;

// Patches the xid field (header bytes [4,8), big-endian) of an
// already-encoded frame in place - the xid analogue of the length
// patch_u16 the Batch encoder uses. Pre-compiled plan frames are encoded
// once with xid 0 and patched per send, so the cached bytes stay immutable
// and the wire bytes stay identical to a fresh encode with that xid.
void patch_xid(std::span<std::byte> frame, std::uint32_t xid) noexcept;

// Inspection of a well-formed encoded frame without decoding it, for code
// that routes bytes: the message type (header byte 1), the messages it
// carries (a Batch's element count, else 1), and whether it is or contains
// a BarrierRequest (the channel's blackhole gate closes only on those).
MsgType frame_type(std::span<const std::byte> frame) noexcept;
std::size_t frame_messages(std::span<const std::byte> frame) noexcept;
bool carries_barrier_request(std::span<const std::byte> frame) noexcept;

// Decodes exactly one frame from the start of `data`.
Result<Message> decode(std::span<const std::byte> data);

// Streaming helper: decodes every complete frame in `data` (frames are
// self-delimiting via the length field); returns the byte count consumed.
struct DecodeStreamResult {
  std::vector<Message> messages;
  std::size_t consumed = 0;
};
Result<DecodeStreamResult> decode_stream(std::span<const std::byte> data);

}  // namespace tsu::proto
