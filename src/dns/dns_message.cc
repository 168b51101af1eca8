#include "src/dns/dns_message.h"

#include <cstdio>
#include <stdexcept>

namespace incod {

namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v & 0xff));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<uint8_t>(v & 0xff));
}

bool GetU16(const std::vector<uint8_t>& in, size_t* pos, uint16_t* v) {
  if (*pos + 2 > in.size()) {
    return false;
  }
  *v = static_cast<uint16_t>((in[*pos] << 8) | in[*pos + 1]);
  *pos += 2;
  return true;
}

bool GetU32(const std::vector<uint8_t>& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) {
    return false;
  }
  *v = (static_cast<uint32_t>(in[*pos]) << 24) |
       (static_cast<uint32_t>(in[*pos + 1]) << 16) |
       (static_cast<uint32_t>(in[*pos + 2]) << 8) | static_cast<uint32_t>(in[*pos + 3]);
  *pos += 4;
  return true;
}

void RequireValidName(const std::string& name) {
  if (!IsValidDnsName(name)) {
    throw std::invalid_argument("EncodeName: invalid DNS name: " + name);
  }
}

// Wire bytes of an uncompressed name: one length byte per label in place of
// each dot, plus the leading length byte and the root label.
size_t NameWireBytes(const std::string& name) {
  RequireValidName(name);
  return name.size() + 2;
}

void EncodeName(std::vector<uint8_t>& out, const std::string& name) {
  RequireValidName(name);
  size_t start = 0;
  while (start <= name.size()) {
    size_t dot = name.find('.', start);
    if (dot == std::string::npos) {
      dot = name.size();
    }
    const size_t len = dot - start;
    out.push_back(static_cast<uint8_t>(len));
    for (size_t i = start; i < dot; ++i) {
      out.push_back(static_cast<uint8_t>(name[i]));
    }
    if (dot == name.size()) {
      break;
    }
    start = dot + 1;
  }
  out.push_back(0);  // Root label.
}

bool DecodeName(const std::vector<uint8_t>& in, size_t* pos, std::string* name) {
  name->clear();
  size_t total = 0;
  while (true) {
    if (*pos >= in.size()) {
      return false;
    }
    const uint8_t len = in[*pos];
    ++*pos;
    if (len == 0) {
      return true;
    }
    if ((len & 0xc0) != 0) {
      return false;  // Compression pointers unsupported (Emu subset).
    }
    if (*pos + len > in.size()) {
      return false;
    }
    total += len + 1;
    if (total > 254) {
      return false;
    }
    if (!name->empty()) {
      name->push_back('.');
    }
    name->append(reinterpret_cast<const char*>(in.data() + *pos), len);
    *pos += len;
  }
}

}  // namespace

DnsRdata Ipv4ToRdata(uint32_t ipv4) {
  DnsRdata out;
  out.push_back(static_cast<uint8_t>((ipv4 >> 24) & 0xff));
  out.push_back(static_cast<uint8_t>((ipv4 >> 16) & 0xff));
  out.push_back(static_cast<uint8_t>((ipv4 >> 8) & 0xff));
  out.push_back(static_cast<uint8_t>(ipv4 & 0xff));
  return out;
}

uint32_t RdataToIpv4(const DnsRdata& rdata) {
  if (rdata.size() != 4) {
    throw std::invalid_argument("RdataToIpv4: need 4 bytes");
  }
  return (static_cast<uint32_t>(rdata[0]) << 24) | (static_cast<uint32_t>(rdata[1]) << 16) |
         (static_cast<uint32_t>(rdata[2]) << 8) | static_cast<uint32_t>(rdata[3]);
}

std::string Ipv4ToString(uint32_t ipv4) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ipv4 >> 24) & 0xff, (ipv4 >> 16) & 0xff,
                (ipv4 >> 8) & 0xff, ipv4 & 0xff);
  return buf;
}

std::optional<uint32_t> ParseIpv4(const std::string& dotted) {
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  unsigned d = 0;
  char extra = 0;
  if (std::sscanf(dotted.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &extra) != 4) {
    return std::nullopt;
  }
  if (a > 255 || b > 255 || c > 255 || d > 255) {
    return std::nullopt;
  }
  return (a << 24) | (b << 16) | (c << 8) | d;
}

int CountLabels(const std::string& name) {
  if (name.empty()) {
    return 0;
  }
  int labels = 1;
  for (char ch : name) {
    if (ch == '.') {
      ++labels;
    }
  }
  return labels;
}

bool IsValidDnsName(const std::string& name) {
  if (name.empty() || name.size() > 253) {
    return false;
  }
  size_t label_len = 0;
  for (char ch : name) {
    if (ch == '.') {
      if (label_len == 0 || label_len > 63) {
        return false;
      }
      label_len = 0;
    } else {
      ++label_len;
    }
  }
  return label_len > 0 && label_len <= 63;
}

std::vector<uint8_t> EncodeDnsMessage(const DnsMessage& message) {
  std::vector<uint8_t> out;
  PutU16(out, message.id);
  uint16_t flags = 0;
  if (message.is_response) {
    flags |= 0x8000;
  }
  if (message.authoritative) {
    flags |= 0x0400;
  }
  if (message.recursion_desired) {
    flags |= 0x0100;
  }
  if (message.recursion_available) {
    flags |= 0x0080;
  }
  flags |= static_cast<uint16_t>(message.rcode) & 0x000f;
  PutU16(out, flags);
  PutU16(out, static_cast<uint16_t>(message.questions.size()));
  PutU16(out, static_cast<uint16_t>(message.answers.size()));
  PutU16(out, 0);  // NSCOUNT
  PutU16(out, 0);  // ARCOUNT
  for (const auto& q : message.questions) {
    EncodeName(out, q.name);
    PutU16(out, q.qtype);
    PutU16(out, q.qclass);
  }
  for (const auto& rr : message.answers) {
    EncodeName(out, rr.name);
    PutU16(out, rr.rtype);
    PutU16(out, rr.rclass);
    PutU32(out, rr.ttl);
    PutU16(out, static_cast<uint16_t>(rr.rdata.size()));
    out.insert(out.end(), rr.rdata.begin(), rr.rdata.end());
  }
  return out;
}

std::optional<DnsMessage> DecodeDnsMessage(const std::vector<uint8_t>& wire) {
  DnsMessage msg;
  size_t pos = 0;
  uint16_t flags = 0;
  uint16_t qdcount = 0;
  uint16_t ancount = 0;
  uint16_t nscount = 0;
  uint16_t arcount = 0;
  if (!GetU16(wire, &pos, &msg.id) || !GetU16(wire, &pos, &flags) ||
      !GetU16(wire, &pos, &qdcount) || !GetU16(wire, &pos, &ancount) ||
      !GetU16(wire, &pos, &nscount) || !GetU16(wire, &pos, &arcount)) {
    return std::nullopt;
  }
  msg.is_response = (flags & 0x8000) != 0;
  msg.authoritative = (flags & 0x0400) != 0;
  msg.recursion_desired = (flags & 0x0100) != 0;
  msg.recursion_available = (flags & 0x0080) != 0;
  msg.rcode = static_cast<DnsRcode>(flags & 0x000f);
  for (uint16_t i = 0; i < qdcount; ++i) {
    DnsQuestion q;
    if (!DecodeName(wire, &pos, &q.name) || !GetU16(wire, &pos, &q.qtype) ||
        !GetU16(wire, &pos, &q.qclass)) {
      return std::nullopt;
    }
    msg.questions.push_back(std::move(q));
  }
  for (uint16_t i = 0; i < ancount; ++i) {
    DnsResourceRecord rr;
    uint16_t rdlength = 0;
    if (!DecodeName(wire, &pos, &rr.name) || !GetU16(wire, &pos, &rr.rtype) ||
        !GetU16(wire, &pos, &rr.rclass) || !GetU32(wire, &pos, &rr.ttl) ||
        !GetU16(wire, &pos, &rdlength)) {
      return std::nullopt;
    }
    if (pos + rdlength > wire.size()) {
      return std::nullopt;
    }
    if (!rr.rdata.assign(wire.begin() + static_cast<long>(pos),
                         wire.begin() + static_cast<long>(pos + rdlength))) {
      return std::nullopt;  // Beyond the modeled rdata subset (A/AAAA).
    }
    pos += rdlength;
    msg.answers.push_back(std::move(rr));
  }
  return msg;
}

uint32_t DnsWireBytes(const DnsMessage& message) {
  // What EncodeDnsMessage would emit, summed without encoding: the 12-byte
  // header, each question's name + type + class, each answer's name + type
  // + class + TTL + rdlength + rdata; then Ethernet/IP/UDP headers
  // (14+20+8).
  size_t bytes = 12;
  for (const auto& q : message.questions) {
    bytes += NameWireBytes(q.name) + 4;
  }
  for (const auto& rr : message.answers) {
    bytes += NameWireBytes(rr.name) + 10 + rr.rdata.size();
  }
  return static_cast<uint32_t>(bytes) + 42;
}

}  // namespace incod
