#include "hbn/serve/checkpoint.h"

#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace hbn::serve {
namespace {

constexpr const char* kHeader = "hbn-checkpoint v1";
constexpr const char* kLatest = "LATEST";

[[noreturn]] void parseFail(const std::string& why) {
  throw std::invalid_argument("checkpoint: " + why);
}

/// FNV-1a 64-bit over the serialized payload: cheap, dependency-free,
/// and enough to turn silent bit rot into a loud restore failure.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void appendInt(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, ptr);
}

void appendInt(std::string& out, std::int64_t value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, ptr);
}

void appendHex(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value, 16);
  out.append(buf, ptr);
}

void appendCounts(std::string& out, const char* tag,
                  const std::vector<core::Count>& values) {
  out += tag;
  out += ' ';
  appendInt(out, static_cast<std::uint64_t>(values.size()));
  for (const core::Count v : values) {
    out += ' ';
    appendInt(out, static_cast<std::int64_t>(v));
  }
  out += '\n';
}

void readCounts(std::istream& in, const char* tag,
                std::vector<core::Count>& out, int expected) {
  std::string seen;
  std::size_t count = 0;
  if (!(in >> seen >> count) || seen != tag ||
      count != static_cast<std::size_t>(expected)) {
    parseFail(std::string("bad ") + tag + " section");
  }
  out.resize(count);
  for (core::Count& v : out) {
    if (!(in >> v) || v < 0) parseFail(std::string(tag) + " value");
  }
}

/// Doubles round-trip as their raw 64-bit pattern in hex — exact by
/// construction (istream extraction cannot parse hexfloat text).
std::uint64_t markBits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double markValue(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Reads a `<tag> <bytes>\n<payload>` block (the framing that lets the
/// embedded workload / policy text contain anything, including lines
/// that look like checkpoint sections).
std::string readBlock(std::istream& in, const char* tag) {
  std::string seen;
  std::size_t bytes = 0;
  if (!(in >> seen >> bytes) || seen != tag) {
    parseFail(std::string("bad ") + tag + " block header");
  }
  if (bytes > (1u << 30)) parseFail(std::string(tag) + " block too large");
  in.get();  // the newline after the byte count
  std::string payload(bytes, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in.gcount()) != bytes) {
    parseFail(std::string(tag) + " block truncated");
  }
  return payload;
}

std::string renderPayload(const CheckpointData& data) {
  // Direct string appends (to_chars, single reserve): checkpoint
  // rendering sits on the serve loop's critical path at every
  // checkpoint boundary, and ostream formatting dominated its cost.
  std::string os;
  os.reserve(data.workloadText.size() + data.policyState.size() +
             static_cast<std::size_t>(data.numEdges) * 40 + 512);
  os += kHeader;
  os += "\npolicy ";
  os += data.policySpec;
  os += "\ndims ";
  appendInt(os, static_cast<std::int64_t>(data.numObjects));
  os += ' ';
  appendInt(os, static_cast<std::int64_t>(data.numNodes));
  os += ' ';
  appendInt(os, static_cast<std::int64_t>(data.numEdges));
  os += "\nprogress ";
  appendInt(os, data.servedTotal);
  os += ' ';
  appendInt(os, data.epochs);
  os += ' ';
  appendInt(os, data.replacements);
  os += ' ';
  appendInt(os, static_cast<std::int64_t>(data.replications));
  os += ' ';
  appendInt(os, static_cast<std::int64_t>(data.invalidations));
  os += ' ';
  appendInt(os, data.passesBegun);
  // The two leading stats slots are retired counters (degraded epochs,
  // handoff retries), written as 0 so the format stays v1.
  os += "\nstats 0 0 ";
  appendInt(os, data.checkpointsWritten);
  // Raw bit patterns: the doubles round-trip bit for bit, which the
  // drift trigger's growth deltas need for digest identity.
  os += "\nmarks ";
  appendHex(os, markBits(data.serveCongestionMark));
  os += ' ';
  appendHex(os, markBits(data.lowerBoundMark));
  os += '\n';
  appendCounts(os, "loads", data.loads);
  appendCounts(os, "serve-loads", data.serveLoads);
  os += "workload ";
  appendInt(os, static_cast<std::uint64_t>(data.workloadText.size()));
  os += '\n';
  os += data.workloadText;
  os += "policy-state ";
  appendInt(os, static_cast<std::uint64_t>(data.policyState.size()));
  os += '\n';
  os += data.policyState;
  return os;
}

}  // namespace

void writeCheckpoint(const CheckpointData& data, std::ostream& os) {
  const std::string payload = renderPayload(data);
  os << payload << "checksum " << std::hex << fnv1a(payload) << std::dec
     << '\n';
}

CheckpointData readCheckpoint(std::istream& in) {
  // Slurp, split at the trailing checksum line, verify, then parse the
  // payload — so truncation and corruption both fail before any field
  // is half-applied.
  std::ostringstream slurp;
  slurp << in.rdbuf();
  const std::string text = slurp.str();
  const std::size_t mark = text.rfind("checksum ");
  if (mark == std::string::npos || (mark != 0 && text[mark - 1] != '\n')) {
    parseFail("missing checksum line (truncated file?)");
  }
  const std::string payload = text.substr(0, mark);
  std::uint64_t stored = 0;
  {
    std::istringstream tail(text.substr(mark));
    std::string tag;
    if (!(tail >> tag >> std::hex >> stored)) parseFail("bad checksum line");
  }
  if (stored != fnv1a(payload)) {
    parseFail("checksum mismatch (corrupted snapshot)");
  }

  std::istringstream is(payload);
  std::string word, version;
  if (!(is >> word >> version) || word != "hbn-checkpoint") {
    parseFail("not a checkpoint file");
  }
  if (version != "v1") parseFail("unsupported version '" + version + "'");

  CheckpointData data;
  if (!(is >> word >> data.policySpec) || word != "policy") {
    parseFail("bad policy line");
  }
  if (!(is >> word >> data.numObjects >> data.numNodes >> data.numEdges) ||
      word != "dims" || data.numObjects < 1 || data.numNodes < 1 ||
      data.numEdges < 0) {
    parseFail("bad dims line");
  }
  if (!(is >> word >> data.servedTotal >> data.epochs >> data.replacements >>
        data.replications >> data.invalidations >> data.passesBegun) ||
      word != "progress") {
    parseFail("bad progress line");
  }
  // Older writers may have put nonzero counts in the two retired slots;
  // they are parsed and discarded.
  std::uint64_t retired[2] = {0, 0};
  if (!(is >> word >> retired[0] >> retired[1] >> data.checkpointsWritten) ||
      word != "stats") {
    parseFail("bad stats line");
  }
  std::uint64_t serveMarkBits = 0;
  std::uint64_t boundMarkBits = 0;
  if (!(is >> word >> std::hex >> serveMarkBits >> boundMarkBits >>
        std::dec) ||
      word != "marks") {
    parseFail("bad marks line");
  }
  data.serveCongestionMark = markValue(serveMarkBits);
  data.lowerBoundMark = markValue(boundMarkBits);
  readCounts(is, "loads", data.loads, data.numEdges);
  readCounts(is, "serve-loads", data.serveLoads, data.numEdges);
  data.workloadText = readBlock(is, "workload");
  data.policyState = readBlock(is, "policy-state");
  return data;
}

std::string writeCheckpointFile(const CheckpointData& data,
                                const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create checkpoint dir " + dir + ": " +
                             ec.message());
  }
  const std::string name =
      "checkpoint-" + std::to_string(data.epochs) + ".hbn";
  const fs::path final = fs::path(dir) / name;
  const fs::path tmp = fs::path(dir) / (name + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open " + tmp.string() +
                               " for writing");
    }
    writeCheckpoint(data, out);
    out.flush();
    if (!out) {
      throw std::runtime_error("write failed for " + tmp.string());
    }
  }
  fs::rename(tmp, final, ec);
  if (ec) {
    throw std::runtime_error("cannot publish " + final.string() + ": " +
                             ec.message());
  }
  // LATEST via the same rename dance: readers either see the old
  // pointer or the new one, never a torn write.
  const fs::path latestTmp = fs::path(dir) / (std::string(kLatest) + ".tmp");
  {
    std::ofstream out(latestTmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open " + latestTmp.string());
    }
    out << name << '\n';
  }
  fs::rename(latestTmp, fs::path(dir) / kLatest, ec);
  if (ec) {
    throw std::runtime_error("cannot update LATEST in " + dir + ": " +
                             ec.message());
  }
  return final.string();
}

CheckpointData readCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open checkpoint " + path);
  return readCheckpoint(in);
}

std::string latestCheckpointPath(const std::string& dir) {
  namespace fs = std::filesystem;
  std::ifstream in(fs::path(dir) / kLatest);
  std::string name;
  if (!in || !(in >> name) || name.empty()) {
    throw std::runtime_error("no checkpoint in " + dir +
                             " (missing or empty LATEST)");
  }
  return (fs::path(dir) / name).string();
}

}  // namespace hbn::serve
