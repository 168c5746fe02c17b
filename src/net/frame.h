// Wire framing for the serving path — the normative spec lives in
// docs/PROTOCOL.md §2; this header is its implementation.
//
// Every message is one frame: a fixed 12-byte little-endian header
// (magic "FCL1", version, message type, reserved, payload length)
// followed by `payload_len` payload bytes. Framing errors are typed so
// the server can ledger them per reason (bad magic vs. oversized vs.
// truncated) instead of collapsing everything into "I/O failed".
#pragma once

#include <cstdint>
#include <vector>

#include "net/socket.h"

namespace fedcl::net {

// "FCL1" read as a little-endian u32.
inline constexpr std::uint32_t kFrameMagic = 0x314C4346;
// Bumped on any incompatible wire change, the sealed Update envelope
// (PROTOCOL.md §4) and what a worker must accept included, so a
// mismatched peer fails at its first frame instead of at every update.
// Version 4: a worker trains any client id in [0, K).
inline constexpr std::uint8_t kProtocolVersion = 4;
inline constexpr std::size_t kFrameHeaderBytes = 12;
// Default admission cap on one frame's payload. A model broadcast for
// the paper-scale benchmarks stays well under this; anything larger is
// a protocol violation, not a workload.
inline constexpr std::size_t kDefaultMaxPayload = 64u << 20;  // 64 MiB

// Message types (docs/PROTOCOL.md §3). The numeric values are wire
// format — never renumber.
enum class MsgType : std::uint8_t {
  kHello = 1,         // client -> server: worker_index, num_workers
  kWelcome = 2,       // server -> client: resolved experiment descriptor
  kTrainRequest = 3,  // server -> client: round, client ids, global weights
  kUpdate = 4,        // client -> server: one sealed client update
  kTrainError = 5,    // client -> server: per-client failure report
  kBusy = 6,          // server -> client: admission refused; close follows
  kBye = 7,           // either direction: orderly end of session
};

const char* msg_type_name(MsgType type);

// Outcome of reading one frame. The first four mirror IoStatus; the
// rest are protocol violations detected in the header.
enum class FrameStatus {
  kOk,
  kClosed,      // peer closed between frames (orderly when idle)
  kTimeout,     // header or payload did not arrive in time
  kIo,          // socket error
  kBadMagic,    // first four bytes are not "FCL1"
  kBadVersion,  // unsupported protocol version
  kBadType,     // message type outside the known range
  kOversized,   // payload_len above the admission cap
};

const char* frame_status_name(FrameStatus status);

struct Frame {
  MsgType type = MsgType::kBye;
  std::vector<std::uint8_t> payload;
};

// Sends one frame (header + payload). False on any socket error.
bool write_frame(TcpConn& conn, MsgType type,
                 const std::uint8_t* payload, std::size_t payload_len);
bool write_frame(TcpConn& conn, MsgType type,
                 const std::vector<std::uint8_t>& payload);

// Reads one frame within timeout_ms, enforcing `max_payload` before
// allocating anything. On kOk, `out` holds the message; on any other
// status `out` is unspecified and the connection should be closed (the
// stream is no longer framed).
FrameStatus read_frame(TcpConn& conn, Frame& out,
                       std::size_t max_payload = kDefaultMaxPayload,
                       int timeout_ms = 30000);

}  // namespace fedcl::net
