// Wire framing for the networked design-query protocol.
//
// Newline-delimited JSON: one frame is one complete JSON document followed
// by '\n' (an optional '\r' before the newline is tolerated and stripped,
// so the protocol is usable from netcat/telnet). Our JSON writers escape
// control characters, so a document can never contain a raw newline — the
// delimiter is unambiguous.
//
// FrameDecoder turns an arbitrary byte stream (partial reads, several
// frames per read, frames split across reads) back into frames, enforcing
// a per-frame byte limit: a line that exceeds the limit is *dropped* but
// the connection survives — the decoder discards until the terminating
// newline and then emits a Frame with `oversized` set so the caller can
// answer with a descriptive error and keep the session alive.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace metacore::net {

/// Default per-frame cap (1 MiB) — far above any real query, far below
/// anything that could be used to balloon server memory.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1 << 20;

struct Frame {
  /// The frame payload (the line without its terminator). Empty and
  /// meaningless when `oversized` is set.
  std::string payload;
  /// The line exceeded the decoder's limit; `dropped_bytes` of payload
  /// were discarded (the connection stream stays in sync).
  bool oversized = false;
  std::size_t dropped_bytes = 0;
};

/// Appends `payload` to `out` as one wire frame. Throws std::logic_error
/// if the payload contains a raw newline (it would desynchronize the
/// stream; our serializers never produce one).
void append_frame(std::string& out, std::string_view payload);

class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Buffers `size` bytes of stream data.
  void feed(const char* data, std::size_t size);

  /// Extracts the next complete frame, or std::nullopt when more bytes are
  /// needed. Blank lines (empty payload after '\r' stripping) are skipped —
  /// they are keep-alive noise, not frames.
  std::optional<Frame> next();

  /// Bytes currently buffered awaiting a newline (excludes bytes already
  /// discarded from an oversized line in progress).
  std::size_t buffered() const noexcept { return buffer_.size(); }

  std::size_t max_frame_bytes() const noexcept { return max_frame_bytes_; }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
  bool discarding_ = false;
  std::size_t discarded_ = 0;
};

}  // namespace metacore::net
