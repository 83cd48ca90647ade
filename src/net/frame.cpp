#include "net/frame.hpp"

#include <stdexcept>

namespace metacore::net {

void append_frame(std::string& out, std::string_view payload) {
  if (payload.find('\n') != std::string_view::npos) {
    throw std::logic_error("frame payload must not contain a raw newline");
  }
  out.append(payload.data(), payload.size());
  out.push_back('\n');
}

FrameDecoder::FrameDecoder(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes == 0 ? kDefaultMaxFrameBytes
                                            : max_frame_bytes) {}

void FrameDecoder::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

std::optional<Frame> FrameDecoder::next() {
  for (;;) {
    const std::size_t pos = buffer_.find('\n');
    if (discarding_) {
      if (pos == std::string::npos) {
        // Still inside the oversized line: drop everything buffered.
        discarded_ += buffer_.size();
        buffer_.clear();
        return std::nullopt;
      }
      Frame frame;
      frame.oversized = true;
      frame.dropped_bytes = discarded_ + pos;
      buffer_.erase(0, pos + 1);
      discarding_ = false;
      discarded_ = 0;
      return frame;
    }
    if (pos == std::string::npos) {
      if (buffer_.size() > max_frame_bytes_) {
        // The line already exceeds the cap with no terminator in sight:
        // switch to discard mode so buffered memory stays bounded.
        discarding_ = true;
        discarded_ = buffer_.size();
        buffer_.clear();
      }
      return std::nullopt;
    }
    Frame frame;
    frame.payload.assign(buffer_, 0, pos);
    buffer_.erase(0, pos + 1);
    if (!frame.payload.empty() && frame.payload.back() == '\r') {
      frame.payload.pop_back();
    }
    if (frame.payload.size() > max_frame_bytes_) {
      frame.oversized = true;
      frame.dropped_bytes = frame.payload.size();
      frame.payload.clear();
      return frame;
    }
    if (frame.payload.empty()) continue;  // blank keep-alive line
    return frame;
  }
}

}  // namespace metacore::net
