#include "protocol/flight_recorder.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <span>
#include <utility>

#include "common/json.h"

namespace vkey::protocol {

FlightDetail& FlightDetail::operator<<(std::string_view text) {
  text_.append(std::span(text));
  return *this;
}

FlightDetail& FlightDetail::operator<<(std::uint64_t n) {
  char digits[20] = {};
  const auto [end, ec] = std::to_chars(std::begin(digits), std::end(digits), n);
  return *this << std::string_view(std::begin(digits), end);
}

FlightDetail& FlightDetail::number(double v) {
  std::array<char, json::kNumberChars> text{};
  const std::size_t n = json::format_number(v, text);
  text_.append(std::span<const char>(text).first(n));
  return *this;
}

std::string to_string(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::kAttemptStart: return "attempt-start";
    case FlightEventKind::kAttemptEnd: return "attempt-end";
    case FlightEventKind::kFrameTx: return "frame-tx";
    case FlightEventKind::kFrameRx: return "frame-rx";
    case FlightEventKind::kDrop: return "drop";
    case FlightEventKind::kCorrupt: return "corrupt";
    case FlightEventKind::kWireReject: return "wire-reject";
    case FlightEventKind::kReorder: return "reorder";
    case FlightEventKind::kDuplicate: return "duplicate";
    case FlightEventKind::kRetransmit: return "retransmit";
    case FlightEventKind::kBackoff: return "backoff";
    case FlightEventKind::kAckTx: return "ack-tx";
    case FlightEventKind::kAckRx: return "ack-rx";
    case FlightEventKind::kStaleAck: return "stale-ack";
    case FlightEventKind::kGaveUp: return "gave-up";
    case FlightEventKind::kReject: return "reject";
    case FlightEventKind::kStateChange: return "state-change";
    case FlightEventKind::kInjected: return "injected";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity, trace::NowFn now)
    : now_(std::move(now)), ring_(capacity) {}

void FlightRecorder::record(FlightEventKind kind, std::string_view actor,
                            std::string_view detail, std::uint64_t session_id,
                            std::uint64_t nonce) {
  FlightDetail text;
  text << detail;
  record(kind, actor, text, session_id, nonce);
}

void FlightRecorder::record(FlightEventKind kind, std::string_view actor,
                            const FlightDetail& detail,
                            std::uint64_t session_id, std::uint64_t nonce) {
  FlightEvent ev;
  ev.seq = next_seq_++;
  ev.t_ms = now_ ? now_() : static_cast<double>(ev.seq);
  ev.kind = kind;
  ev.actor = actor;
  ev.detail = detail;
  ev.session_id = session_id;
  ev.nonce = nonce;

  trace::TraceLog& log = trace::TraceLog::global();
  if (log.enabled()) {
    std::vector<trace::Attr> attrs;
    attrs.emplace_back("actor", ev.actor);
    if (!ev.detail.empty()) {
      attrs.emplace_back("detail", std::string(ev.detail.str()));
    }
    if (ev.session_id != 0) attrs.emplace_back("session", ev.session_id);
    attrs.emplace_back("nonce", ev.nonce);
    log.instant("flight." + to_string(kind), ev.t_ms, trace::Domain::kVirtual,
                std::move(attrs));
  }

  ring_.push(std::move(ev));
}

std::string FlightRecorder::dump() const {
  std::string out = "flight recorder: " + std::to_string(ring_.size()) +
                    " event(s), " + std::to_string(ring_.dropped()) +
                    " dropped\n";
  char line[64];
  ring_.for_each([&out, &line](const FlightEvent& ev) {
    // Fixed-point stamp: virtual times are exact doubles from the SimClock,
    // so this formatting is deterministic across hosts.
    std::snprintf(line, sizeof(line), "  [%12.3f ms] #%llu ", ev.t_ms,
                  static_cast<unsigned long long>(ev.seq));
    out += line;
    out += to_string(ev.kind);
    out += ' ';
    out += ev.actor;
    if (!ev.detail.empty()) {
      out += ' ';
      out += ev.detail.str();
    }
    if (ev.session_id != 0) {
      out += " session=" + std::to_string(ev.session_id);
    }
    out += " nonce=" + std::to_string(ev.nonce);
    out += '\n';
  });
  return out;
}

}  // namespace vkey::protocol
