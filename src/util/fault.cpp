#include "hbn/util/fault.h"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace hbn::util {
namespace {

[[noreturn]] void specFail(std::string_view text, const std::string& why) {
  throw std::invalid_argument("fault spec '" + std::string(text) + "': " +
                              why);
}

std::uint64_t parseUint(std::string_view text, std::string_view spec,
                        const char* what) {
  std::uint64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    specFail(spec, std::string(what) + " expects an unsigned integer, got '" +
                       std::string(text) + "'");
  }
  return value;
}

}  // namespace

const char* faultKindName(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::ShardThrow: return "shard-throw";
    case FaultKind::HandoffFail: return "handoff-fail";
  }
  return "unknown";
}

FaultSpec parseFaultSpec(std::string_view text) {
  FaultSpec spec;
  const std::size_t at = text.find('@');
  if (at == std::string_view::npos) {
    specFail(text, "expected kind@epochN (e.g. shard-throw@epoch5)");
  }
  const std::string_view kind = text.substr(0, at);
  if (kind == "shard-throw") {
    spec.kind = FaultKind::ShardThrow;
  } else if (kind == "handoff-fail") {
    spec.kind = FaultKind::HandoffFail;
  } else {
    specFail(text, "unknown kind '" + std::string(kind) +
                       "'; available: shard-throw handoff-fail");
  }

  std::string_view rest = text.substr(at + 1);
  bool epochSeen = false;
  while (!rest.empty()) {
    std::size_t colon = rest.find(':');
    if (colon == std::string_view::npos) colon = rest.size();
    const std::string_view part = rest.substr(0, colon);
    rest = colon < rest.size() ? rest.substr(colon + 1) : std::string_view{};
    if (part.rfind("epoch", 0) == 0) {
      spec.epoch = parseUint(part.substr(5), text, "epoch");
      epochSeen = true;
    } else if (part.rfind("shard", 0) == 0 && part.find('=') ==
                                                  std::string_view::npos) {
      if (spec.kind != FaultKind::ShardThrow) {
        specFail(text, "shard only applies to shard-throw");
      }
      spec.shard = static_cast<int>(parseUint(part.substr(5), text, "shard"));
    } else if (part.rfind("times=", 0) == 0) {
      const std::uint64_t times = parseUint(part.substr(6), text, "times=");
      if (times < 1 || times > 1'000'000) {
        specFail(text, "times= out of range [1, 1000000]");
      }
      spec.times = static_cast<int>(times);
    } else {
      specFail(text, "unknown part '" + std::string(part) +
                         "'; expected epochN, shardM, or times=K");
    }
  }
  if (!epochSeen) {
    specFail(text, "missing epochN trigger (e.g. " + std::string(kind) +
                       "@epoch3)");
  }
  return spec;
}

void FaultInjector::add(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  specs_.push_back(spec);
  refreshArmedMask();
}

void FaultInjector::addSpecs(std::string_view specs) {
  std::size_t pos = 0;
  while (pos <= specs.size()) {
    std::size_t comma = specs.find(',', pos);
    if (comma == std::string_view::npos) comma = specs.size();
    const std::string_view item = specs.substr(pos, comma - pos);
    if (!item.empty()) add(parseFaultSpec(item));
    pos = comma + 1;
  }
}

bool FaultInjector::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return specs_.empty();
}

bool FaultInjector::fire(FaultKind kind, std::uint64_t epoch, int shard) {
  if (!armedFast(kind)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (FaultSpec& spec : specs_) {
    if (spec.kind != kind || spec.times <= 0 || spec.epoch != epoch) {
      continue;
    }
    if (spec.shard >= 0 && spec.shard != shard) continue;
    --spec.times;
    ++triggered_;
    refreshArmedMask();
    return true;
  }
  return false;
}

std::uint64_t FaultInjector::triggered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return triggered_;
}

std::string FaultInjector::describe() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream oss;
  bool first = true;
  for (const FaultSpec& spec : specs_) {
    if (spec.times <= 0) continue;
    if (!first) oss << ',';
    first = false;
    oss << faultKindName(spec.kind) << "@epoch" << spec.epoch;
    if (spec.shard >= 0) oss << ":shard" << spec.shard;
    if (spec.times != 1) oss << ":times=" << spec.times;
  }
  return oss.str();
}

void FaultInjector::refreshArmedMask() {
  unsigned mask = 0;
  for (const FaultSpec& spec : specs_) {
    if (spec.times > 0) mask |= 1u << static_cast<unsigned>(spec.kind);
  }
  armedKinds_.store(mask, std::memory_order_relaxed);
}

std::shared_ptr<FaultInjector> makeFaultInjector(std::string_view specs) {
  if (specs.empty()) return nullptr;
  auto injector = std::make_shared<FaultInjector>();
  injector->addSpecs(specs);
  if (injector->empty()) return nullptr;
  return injector;
}

}  // namespace hbn::util
