// Typed payloads of the worker protocol frames (frame.hpp carries them).
//
// Job identity on the wire is the DISPATCHER's job id: the worker runs
// each remote job under its own local Session id but reports events and
// results keyed by the id the client submitted, so the dispatcher never
// needs an id translation table.
#ifndef BISMO_NET_PROTOCOL_HPP
#define BISMO_NET_PROTOCOL_HPP

#include <cstdint>
#include <string>

#include "net/wire.hpp"

namespace bismo::net {

/// Worker -> client greeting, sent once per connection before anything
/// else.  The dispatcher rejects mismatched versions and failed
/// self-checks instead of exchanging undecodable frames later.
struct HelloMsg {
  std::uint16_t version = kProtocolVersion;
  std::string name;         ///< WorkerOptions::name
  std::uint64_t width = 1;  ///< the worker session's parallel width
  std::string fft_backend;  ///< fft::backend_name() of the worker process
  bool self_check_ok = false;  ///< wire_self_check() result at startup
};

/// Client -> worker job submission.
struct SubmitMsg {
  std::uint64_t job_id = 0;  ///< dispatcher job id (echoed in events/results)
  api::JobSpec spec;
  std::uint64_t coalesce_key = 0;
  std::uint64_t lanes_hint = 0;
  std::uint64_t batch_index = 0;
  std::uint64_t batch_count = 1;
};

/// Worker -> client event relay (kStarted / kStep; terminal state rides
/// the ResultMsg).
struct EventMsg {
  std::uint64_t job_id = 0;
  api::JobEvent event;
};

/// Worker -> client terminal result.
struct ResultMsg {
  std::uint64_t job_id = 0;
  api::JobResult result;
};

/// Worker -> client liveness beacon with live serving gauges.
struct HeartbeatMsg {
  api::Session::Stats stats;
  std::uint64_t jobs_in_flight = 0;  ///< remote jobs open on this connection
};

/// Client -> worker per-job cancel.
struct CancelMsg {
  std::uint64_t job_id = 0;
};

void encode_hello(WireWriter& w, const HelloMsg& msg);
HelloMsg decode_hello(WireReader& r);

void encode_submit(WireWriter& w, const SubmitMsg& msg);
SubmitMsg decode_submit(WireReader& r);

void encode_event_msg(WireWriter& w, const EventMsg& msg);
EventMsg decode_event_msg(WireReader& r);

void encode_result_msg(WireWriter& w, const ResultMsg& msg);
ResultMsg decode_result_msg(WireReader& r);

void encode_heartbeat(WireWriter& w, const HeartbeatMsg& msg);
HeartbeatMsg decode_heartbeat(WireReader& r);

void encode_cancel(WireWriter& w, const CancelMsg& msg);
CancelMsg decode_cancel(WireReader& r);

}  // namespace bismo::net

#endif  // BISMO_NET_PROTOCOL_HPP
