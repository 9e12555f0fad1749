#include "core/record_store.h"

#include "core/replica_key.h"
#include "net/ipv4.h"

namespace rloop::core {

void RecordStore::prepare(const net::Trace& trace) {
  const std::size_t n = trace.size();
  trace_ = &trace;
  ts_.resize(n);
  dst_.resize(n);
  ttl_.resize(n);
  ok_.resize(n);
  key_hash_.resize(n);
}

bool RecordStore::fill_row(std::size_t i) {
  const std::span<const std::byte> bytes = (*trace_)[i].bytes();
  ts_[i] = (*trace_)[i].ts;
  const auto ip = net::Ipv4Header::parse(bytes);
  ok_[i] = ip ? 1 : 0;
  dst_[i] = ip ? ip->dst.value : 0;
  ttl_[i] = ip ? ip->ttl : 0;
  key_hash_[i] = ip ? replica_key_hash(bytes) : 0;
  return ip.has_value();
}

RecordStore RecordStore::build(const net::Trace& trace) {
  RecordStore store;
  store.prepare(trace);
  for (std::size_t i = 0; i < trace.size(); ++i) store.fill_row(i);
  return store;
}

}  // namespace rloop::core
