#include "core/record_store.h"

#include "core/replica_key.h"

namespace rloop::core {

void RecordStore::prepare(const net::Trace& trace, std::size_t n) {
  trace_ = &trace;
  ts_.resize(n);
  dst_.resize(n);
  dst24_.resize(n);
  ttl_.resize(n);
  ok_.resize(n);
  key_hash_.resize(n);
}

RecordStore RecordStore::build(const net::Trace& trace,
                               const std::vector<ParsedRecord>& records) {
  RecordStore store;
  store.prepare(trace, records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ParsedRecord& rec = records[i];
    store.set_row(i, rec, rec.ok ? replica_key_hash(trace[i].bytes()) : 0);
  }
  return store;
}

}  // namespace rloop::core
