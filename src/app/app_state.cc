#include "src/app/app_state.h"

namespace incod {

namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v & 0xff));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v >> 16));
  PutU16(out, static_cast<uint16_t>(v & 0xffff));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v >> 32));
  PutU32(out, static_cast<uint32_t>(v & 0xffffffff));
}

void PutString(std::vector<uint8_t>& out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void PutKvEntries(std::vector<uint8_t>& out, const std::vector<KvEntry>& entries) {
  PutU32(out, static_cast<uint32_t>(entries.size()));
  for (const KvEntry& e : entries) {
    PutU64(out, e.key);
    PutU32(out, e.value_bytes);
  }
}

}  // namespace

std::vector<uint8_t> SerializeAppState(const AppState& state) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(state.proto));
  out.push_back(static_cast<uint8_t>(state.data.index()));
  if (const KvAppState* kv = std::get_if<KvAppState>(&state.data)) {
    PutKvEntries(out, kv->primary);
    PutKvEntries(out, kv->secondary);
  } else if (const PaxosAppState* px = std::get_if<PaxosAppState>(&state.data)) {
    PutU16(out, px->ballot);
    PutU32(out, px->next_instance);
    PutU32(out, px->acceptor_id);
    PutU32(out, px->last_voted_instance);
    PutU32(out, px->trim_watermark);
    PutU32(out, static_cast<uint32_t>(px->slots.size()));
    for (const PaxosAcceptorSlot& slot : px->slots) {
      PutU32(out, slot.instance);
      PutU16(out, slot.rnd);
      PutU16(out, slot.vrnd);
      PutU64(out, slot.value);
      PutU64(out, slot.client);
    }
  } else if (const DnsAppState* dns = std::get_if<DnsAppState>(&state.data)) {
    PutU32(out, static_cast<uint32_t>(dns->records.size()));
    for (const DnsZoneEntry& r : dns->records) {
      PutString(out, r.name);
      PutU32(out, r.ipv4);
      PutU32(out, r.ttl);
    }
  }
  return out;
}

}  // namespace incod
