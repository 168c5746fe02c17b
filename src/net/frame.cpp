#include "net/frame.h"

#include <cstring>

namespace fedcl::net {

namespace {

void put_u32(std::uint8_t* dst, std::uint32_t v) {
  dst[0] = static_cast<std::uint8_t>(v);
  dst[1] = static_cast<std::uint8_t>(v >> 8);
  dst[2] = static_cast<std::uint8_t>(v >> 16);
  dst[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* src) {
  return static_cast<std::uint32_t>(src[0]) |
         (static_cast<std::uint32_t>(src[1]) << 8) |
         (static_cast<std::uint32_t>(src[2]) << 16) |
         (static_cast<std::uint32_t>(src[3]) << 24);
}

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kWelcome:
      return "welcome";
    case MsgType::kTrainRequest:
      return "train-request";
    case MsgType::kUpdate:
      return "update";
    case MsgType::kTrainError:
      return "train-error";
    case MsgType::kBusy:
      return "busy";
    case MsgType::kBye:
      return "bye";
  }
  return "unknown";
}

const char* frame_status_name(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kClosed:
      return "closed";
    case FrameStatus::kTimeout:
      return "timeout";
    case FrameStatus::kIo:
      return "io-error";
    case FrameStatus::kBadMagic:
      return "bad-magic";
    case FrameStatus::kBadVersion:
      return "bad-version";
    case FrameStatus::kBadType:
      return "bad-type";
    case FrameStatus::kOversized:
      return "oversized";
  }
  return "unknown";
}

bool write_frame(TcpConn& conn, MsgType type, const std::uint8_t* payload,
                 std::size_t payload_len) {
  std::uint8_t header[kFrameHeaderBytes];
  put_u32(header, kFrameMagic);
  header[4] = kProtocolVersion;
  header[5] = static_cast<std::uint8_t>(type);
  header[6] = 0;  // reserved
  header[7] = 0;  // reserved
  put_u32(header + 8, static_cast<std::uint32_t>(payload_len));
  if (!conn.send_all(header, sizeof(header))) return false;
  if (payload_len == 0) return true;
  return conn.send_all(payload, payload_len);
}

bool write_frame(TcpConn& conn, MsgType type,
                 const std::vector<std::uint8_t>& payload) {
  return write_frame(conn, type, payload.data(), payload.size());
}

FrameStatus read_frame(TcpConn& conn, Frame& out, std::size_t max_payload,
                       int timeout_ms) {
  std::uint8_t header[kFrameHeaderBytes];
  switch (conn.recv_exact(header, sizeof(header), timeout_ms)) {
    case IoStatus::kOk:
      break;
    case IoStatus::kClosed:
      return FrameStatus::kClosed;
    case IoStatus::kTimeout:
      return FrameStatus::kTimeout;
    case IoStatus::kError:
      return FrameStatus::kIo;
  }
  if (get_u32(header) != kFrameMagic) return FrameStatus::kBadMagic;
  if (header[4] != kProtocolVersion) return FrameStatus::kBadVersion;
  const std::uint8_t type = header[5];
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kBye)) {
    return FrameStatus::kBadType;
  }
  const std::uint32_t payload_len = get_u32(header + 8);
  // The cap gates the allocation: a flipped length bit fails here, not
  // in the allocator.
  if (payload_len > max_payload) return FrameStatus::kOversized;
  out.type = static_cast<MsgType>(type);
  out.payload.resize(payload_len);
  if (payload_len > 0) {
    switch (conn.recv_exact(out.payload.data(), payload_len, timeout_ms)) {
      case IoStatus::kOk:
        break;
      case IoStatus::kClosed:
        return FrameStatus::kClosed;  // truncated mid-payload
      case IoStatus::kTimeout:
        return FrameStatus::kTimeout;
      case IoStatus::kError:
        return FrameStatus::kIo;
    }
  }
  return FrameStatus::kOk;
}

}  // namespace fedcl::net
