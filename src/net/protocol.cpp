#include "net/protocol.hpp"

namespace bismo::net {

void encode_hello(WireWriter& w, const HelloMsg& msg) {
  w.u16(msg.version);
  w.str(msg.name);
  w.u64(msg.width);
  w.str(msg.fft_backend);
  w.boolean(msg.self_check_ok);
}

HelloMsg decode_hello(WireReader& r) {
  HelloMsg msg;
  msg.version = r.u16();
  msg.name = r.str();
  msg.width = r.u64();
  msg.fft_backend = r.str();
  msg.self_check_ok = r.boolean();
  r.expect_end();
  return msg;
}

void encode_submit(WireWriter& w, const SubmitMsg& msg) {
  w.u64(msg.job_id);
  encode_job_spec(w, msg.spec);
  w.u64(msg.coalesce_key);
  w.u64(msg.lanes_hint);
  w.u64(msg.batch_index);
  w.u64(msg.batch_count);
}

SubmitMsg decode_submit(WireReader& r) {
  SubmitMsg msg;
  msg.job_id = r.u64();
  msg.spec = decode_job_spec(r);
  msg.coalesce_key = r.u64();
  msg.lanes_hint = r.u64();
  msg.batch_index = r.u64();
  msg.batch_count = r.u64();
  r.expect_end();
  return msg;
}

void encode_event_msg(WireWriter& w, const EventMsg& msg) {
  w.u64(msg.job_id);
  encode_job_event(w, msg.event);
}

EventMsg decode_event_msg(WireReader& r) {
  EventMsg msg;
  msg.job_id = r.u64();
  msg.event = decode_job_event(r);
  r.expect_end();
  return msg;
}

void encode_result_msg(WireWriter& w, const ResultMsg& msg) {
  w.u64(msg.job_id);
  encode_job_result(w, msg.result);
}

ResultMsg decode_result_msg(WireReader& r) {
  ResultMsg msg;
  msg.job_id = r.u64();
  msg.result = decode_job_result(r);
  r.expect_end();
  return msg;
}

void encode_heartbeat(WireWriter& w, const HeartbeatMsg& msg) {
  encode_stats(w, msg.stats);
  w.u64(msg.jobs_in_flight);
}

HeartbeatMsg decode_heartbeat(WireReader& r) {
  HeartbeatMsg msg;
  msg.stats = decode_stats(r);
  msg.jobs_in_flight = r.u64();
  r.expect_end();
  return msg;
}

void encode_cancel(WireWriter& w, const CancelMsg& msg) {
  w.u64(msg.job_id);
}

CancelMsg decode_cancel(WireReader& r) {
  CancelMsg msg;
  msg.job_id = r.u64();
  r.expect_end();
  return msg;
}

}  // namespace bismo::net
