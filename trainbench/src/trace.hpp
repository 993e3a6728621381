#pragma once
/// \file trace.hpp
/// In-memory span recorder of the traced benchmark binary. Spans are taken
/// around calls into the program's public entry points (the link-time
/// wrappers in wrap.cpp and the benchmark's own set-up calls), kept in
/// per-thread buffers while recording is on, and drained by the main thread
/// between training calls, when no rank thread is running.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "loader/block_cache.hpp"

namespace trainbench::trace {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the benchmark process started (static initialisation).
std::int64_t now_ns();

enum class Kind : std::uint8_t {
  Setup,       ///< benchmark set-up call (generation, preprocessing, sharding)
  ModelBuild,  ///< DistGcn constructor
  Epoch,       ///< DistGcn::train_epoch
  Forward,     ///< DistGcnLayer::forward
  Evaluate,    ///< DistGcn::evaluate
  Spmm,        ///< sparse::spmm* entry point
  Gemm,        ///< dense::gemm / dense::matmul
};

struct Span {
  const char* name = "";
  Kind kind = Kind::Setup;
  int rank = -1;   ///< simulated rank of the calling thread, -1 off the cluster
  int epoch = -1;  ///< epoch being trained, -1 outside DistGcn::train_epoch
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t flops = 0;  ///< kernel spans only
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span
};

/// Communicator::stats() delta over one train_epoch call on one rank.
struct EpochComm {
  int rank = -1;
  int epoch = -1;
  plexus::comm::CommStats delta;
};

struct Drained {
  std::vector<Span> spans;
  std::vector<EpochComm> comm;
  bool has_cache = false;
  plexus::io::BlockCache::Stats cache;  ///< latest streaming block-cache snapshot
};

void set_enabled(bool on);
bool enabled();

/// Rank / epoch attribution of the calling thread, inherited by the kernel
/// spans it records.
void set_thread_rank(int rank);
void set_thread_epoch(int epoch);

/// RAII span: records [construction, destruction) when recording is on.
class Scope {
 public:
  Scope(const char* name, Kind kind, std::int64_t flops = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

void record_epoch_comm(const EpochComm& c);
/// Keep the field-wise maximum of the snapshots: every counter is monotone,
/// so the maximum is the cache's state after its last recorded use.
void record_cache(const plexus::io::BlockCache::Stats& s);

/// Move everything recorded so far out of the buffers. Call only while no
/// other thread records.
Drained drain();

/// Chrome-trace JSON ("traceEvents", complete events, microseconds).
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace trainbench::trace
