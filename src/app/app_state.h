// Typed application state snapshots (the unified App state contract).
//
// The paper's on-demand shifts are only transparent when the application's
// state survives (or deliberately does not survive) the move between host
// software and an in-network target (§9.2: LaKe's caches re-warm after a
// gated park; a new Paxos leader re-learns its sequence). AppState captures
// exactly the state each case study carries:
//   * KvAppState    — cache/store contents in LRU order (LaKe L1/L2,
//                     memcached, NetCache register arrays),
//   * PaxosAppState — ballot, next usable instance, and the acceptor's
//                     trim watermark and per-instance vote log above it,
//   * DnsAppState   — the warm copy of the zone the placement answers from.
// Snapshots are plain data: any placement of the same app family can
// restore another's snapshot, which is what lets a single generic
// StateTransferMigrator replace per-app migration plumbing.
#ifndef INCOD_SRC_APP_APP_STATE_H_
#define INCOD_SRC_APP_APP_STATE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/kvs/kv_store.h"
#include "src/net/node.h"
#include "src/paxos/paxos_wire.h"

namespace incod {

// --- KVS ---
// Entries are ordered least- to most-recently-used so replaying them with
// Set() reproduces the source store's exact LRU order (bit-identical
// snapshot round trips).
struct KvAppState {
  std::vector<KvEntry> primary;    // Host store / LaKe L1 / switch cache.
  std::vector<KvEntry> secondary;  // LaKe L2 (empty elsewhere).
};

// --- Paxos ---
struct PaxosAcceptorSlot {
  uint32_t instance = 0;
  uint16_t rnd = 0;
  uint16_t vrnd = 0;
  PaxosValue value = kPaxosNoop;
  NodeId client = 0;
};

struct PaxosAppState {
  uint16_t ballot = 0;
  uint32_t next_instance = 1;          // Leader: next usable sequence number.
  uint32_t acceptor_id = 0;
  uint32_t last_voted_instance = 0;
  uint32_t trim_watermark = 0;           // Acceptor: log trimmed through here.
  std::vector<PaxosAcceptorSlot> slots;  // Acceptor vote log, by instance.
};

// --- DNS ---
struct DnsZoneEntry {
  std::string name;
  uint32_t ipv4 = 0;
  uint32_t ttl = 0;
};

// The zone copy the placement answers from, sorted by name (zone-cache
// warmth: a restored placement answers exactly what the source did).
struct DnsAppState {
  std::vector<DnsZoneEntry> records;
};

using AppStateData = std::variant<std::monostate, KvAppState, PaxosAppState, DnsAppState>;

// A typed snapshot of one application's transferable state.
struct AppState {
  AppProto proto = AppProto::kRaw;
  std::string app_name;  // Producer (diagnostics only; not matched on restore).
  AppStateData data;

  bool empty() const { return std::holds_alternative<std::monostate>(data); }
};

// Deterministic byte encoding of a snapshot. Two snapshots of identical
// state serialize to identical bytes — the contract the round-trip tests
// check ("bit-identical").
std::vector<uint8_t> SerializeAppState(const AppState& state);

}  // namespace incod

#endif  // INCOD_SRC_APP_APP_STATE_H_
