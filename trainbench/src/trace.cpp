#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace trainbench::trace {

namespace {

const Clock::time_point kStart = Clock::now();

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

struct ThreadLog {
  std::vector<Span> spans;
  std::vector<EpochComm> comm;
};

// Every thread that ever recorded owns one log here. Logs are never freed:
// an idle pool or channel thread may still hold its pointer.
std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

std::mutex g_cache_mu;
bool g_has_cache = false;
plexus::io::BlockCache::Stats g_cache;

thread_local ThreadLog* t_log = nullptr;
thread_local int t_rank = -1;
thread_local int t_epoch = -1;
thread_local std::vector<std::uint64_t> t_open;  // ids of this thread's open spans

ThreadLog& local_log() {
  if (t_log == nullptr) {
    auto log = std::make_unique<ThreadLog>();
    t_log = log.get();
    const std::lock_guard lock(g_logs_mu);
    g_logs.push_back(std::move(log));
  }
  return *t_log;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kStart).count();
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_thread_rank(int rank) { t_rank = rank; }
void set_thread_epoch(int epoch) { t_epoch = epoch; }

Scope::Scope(const char* name, Kind kind, std::int64_t flops) {
  if (!enabled()) return;
  active_ = true;
  span_.name = name;
  span_.kind = kind;
  span_.rank = t_rank;
  span_.epoch = t_epoch;
  span_.flops = flops;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open.empty() ? 0 : t_open.back();
  t_open.push_back(span_.id);
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_open.pop_back();
  local_log().spans.push_back(span_);
}

void record_epoch_comm(const EpochComm& c) {
  if (enabled()) local_log().comm.push_back(c);
}

void record_cache(const plexus::io::BlockCache::Stats& s) {
  if (!enabled()) return;
  const std::lock_guard lock(g_cache_mu);
  g_has_cache = true;
  g_cache.hits = std::max(g_cache.hits, s.hits);
  g_cache.misses = std::max(g_cache.misses, s.misses);
  g_cache.bytes_loaded = std::max(g_cache.bytes_loaded, s.bytes_loaded);
  g_cache.evictions = std::max(g_cache.evictions, s.evictions);
  g_cache.resident_bytes = std::max(g_cache.resident_bytes, s.resident_bytes);
  g_cache.peak_resident_bytes = std::max(g_cache.peak_resident_bytes, s.peak_resident_bytes);
}

Drained drain() {
  Drained out;
  {
    const std::lock_guard lock(g_logs_mu);
    for (auto& log : g_logs) {
      out.spans.insert(out.spans.end(), log->spans.begin(), log->spans.end());
      out.comm.insert(out.comm.end(), log->comm.begin(), log->comm.end());
      log->spans.clear();
      log->comm.clear();
    }
  }
  const std::lock_guard lock(g_cache_mu);
  out.has_cache = g_has_cache;
  out.cache = g_cache;
  g_has_cache = false;
  g_cache = {};
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& s : spans) {
    // tid: the simulated rank; the main thread (set-up spans) is tid 100.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"epoch\":%d,\"flops\":%lld}}",
                 first ? "" : ",\n", s.name, s.rank < 0 ? 100 : s.rank,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 s.epoch, static_cast<long long>(s.flops));
    first = false;
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot finish trace file " + path);
}

}  // namespace trainbench::trace
