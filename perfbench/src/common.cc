#include "common.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "obs/metrics.h"
#include "util/fileio.h"
#include "util/string_util.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::string ReadFileOrDie(const std::string& path) {
  auto bytes = hosr::util::ReadFileToString(path);
  if (!bytes.ok()) Die(bytes.status().ToString());
  return std::move(bytes).value();
}

std::vector<uint32_t> ReadStream(const std::string& path) {
  const std::string bytes = ReadFileOrDie(path);
  if (bytes.empty() || bytes.size() % 4 != 0) Die("bad stream " + path);
  std::vector<uint32_t> users(bytes.size() / 4);
  std::memcpy(users.data(), bytes.data(), bytes.size());
  return users;
}

std::vector<int> ParseInts(const std::string& text) {
  std::vector<int> out;
  for (const std::string& part : hosr::util::Split(text, ',')) {
    if (!part.empty()) out.push_back(std::stoi(part));
  }
  return out;
}

ProcSample SampleProc(const std::string& pid) {
  ProcSample sample;
  sample.pid_stat = ReadFileOrDie("/proc/" + pid + "/stat");
  sample.stat = ReadFileOrDie("/proc/stat");
  sample.wall_ns = NowNs();
  return sample;
}

namespace {

std::string NumText(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}
}  // namespace

void Json::Key(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += hosr::obs::JsonEscapeString(key);
  body_ += "\": ";
}

Json& Json::Num(std::string_view key, double value) {
  Key(key);
  body_ += NumText(value);
  return *this;
}

Json& Json::Int(std::string_view key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Str(std::string_view key, std::string_view value) {
  Key(key);
  body_ += '"';
  body_ += hosr::obs::JsonEscapeString(value);
  body_ += '"';
  return *this;
}

Json& Json::Bool(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::Nums(std::string_view key, const std::vector<double>& values) {
  Key(key);
  body_ += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += NumText(values[i]);
  }
  body_ += ']';
  return *this;
}

Json& Json::Raw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string ProcListJson(const std::vector<ProcSample>& samples) {
  std::string out = "[";
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) out += ", ";
    out += Json()
               .Int("wall_ns", samples[i].wall_ns)
               .Str("pid_stat", samples[i].pid_stat)
               .Str("stat", samples[i].stat)
               .Done();
  }
  return out + "]";
}

std::string Json::Done() const { return "{" + body_ + "}"; }

uint16_t SpanLog::NameId(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

int32_t SpanLog::Open(uint16_t name, int64_t unit, int32_t parent) {
  spans_.push_back(Span{name, 0, parent, unit, NowNs(), 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t index) { spans_[index].end_ns = NowNs(); }

hosr::util::Status SpanLog::Write(const std::string& path) const {
  static_assert(sizeof(Span) == 32, "span records are 32 bytes");
  std::string bytes(spans_.size() * sizeof(Span), '\0');
  if (!spans_.empty()) {
    std::memcpy(bytes.data(), spans_.data(), bytes.size());
  }
  return hosr::util::WriteFileAtomic(path, bytes);
}

std::string SpanLog::NamesJson() const {
  std::string out = "[";
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"' + hosr::obs::JsonEscapeString(names_[i]) + '"';
  }
  return out + "]";
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

void WriteOrDie(const std::string& path, std::string_view contents) {
  if (auto status = hosr::util::WriteFileAtomic(path, contents); !status.ok()) {
    Die("cannot write " + path + ": " + status.ToString());
  }
}

}  // namespace perfbench
