// One run of the Plexus training benchmark (README.md): set up one proxy
// workload from --seed, call the training entry point in whole rounds for
// --seconds, check the outputs against the serial reference and the stated
// properties, and print one JSON result line.
//
//   trainbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//              [--smoke] [--out-dir <dir>]
//
// The untraced binary reports the end-to-end metrics; the traced binary
// (TRAINBENCH_TRACED, linked with wrap.cpp) alternates untraced and traced
// rounds and reports the per-layer metrics, the tracing overhead and a
// Chrome-trace span file.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/dataset_view.hpp"
#include "core/preprocess.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/rmat_shards.hpp"
#include "model/serial_gcn.hpp"
#include "perfmodel/perfmodel.hpp"
#include "trace.hpp"
#include "util/simd.hpp"

#ifndef TRAINBENCH_TRACED
#define TRAINBENCH_TRACED 0
#endif

namespace {

namespace comm = plexus::comm;
namespace core = plexus::core;
namespace graph = plexus::graph;
namespace fs = std::filesystem;
namespace trace = trainbench::trace;

constexpr bool kTracedBinary = TRAINBENCH_TRACED != 0;

/// Epochs per training call, and the leading epochs every per-epoch figure
/// skips (the paper's rule, TrainResult::avg_epoch_seconds).
constexpr int kEpochs = 5;
constexpr int kSkip = 2;
constexpr int kMeasuredEpochs = kEpochs - kSkip;
constexpr double kMB = 1e6;  // the program's own unit for wire volumes

struct Workload {
  const char* name;
  const char* dataset;  ///< Table-4 registry name (graph::dataset_info)
  std::int64_t nodes;
  std::int64_t smoke_nodes;
  core::Aggregation aggregation;
  bool streaming;
  std::int64_t budget_bytes;  ///< block-cache budget, streaming only
  std::int64_t smoke_budget_bytes;
};

// Sizes keep one run near 2 GB of peak RSS; README.md gives the reasons.
constexpr Workload kWorkloads[] = {
    {"products-sparse", "ogbn-products", 1 << 15, 1 << 11, core::Aggregation::Sparse, false, 0, 0},
    {"reddit-dense", "Reddit", 1 << 14, 1 << 10, core::Aggregation::Dense, false, 0, 0},
    {"papers-stream", "ogbn-papers100M", 1 << 16, 1 << 11, core::Aggregation::Dense, true,
     std::int64_t{8} << 20, std::int64_t{96} << 10},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage_error(const std::string& msg) {
  throw std::invalid_argument(msg +
                              "\nusage: trainbench --workload <name> --seed <n> --seconds <s> "
                              "--trace 0|1 [--smoke] [--out-dir <dir>]");
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage_error("bad --seed " + val);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds >= 0.0)) usage_error("bad --seconds " + val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage_error("bad --trace " + val);
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      usage_error("unknown flag " + key);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  usage_error("unknown workload " + name);
}

double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean over the epochs from kSkip on.
double mean_measured(const core::TrainResult& r,
                     const std::function<double(const core::EpochStats&)>& field) {
  double sum = 0.0;
  for (std::size_t e = kSkip; e < r.epochs.size(); ++e) sum += field(r.epochs[e]);
  return sum / kMeasuredEpochs;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

core::TrainOptions train_options(const Workload& w, std::int64_t budget_bytes) {
  core::TrainOptions opt;
  opt.grid = {2, 2, 2};
  opt.model.hidden_dims = {128, 128};
  opt.model.options.agg_row_blocks = 8;
  opt.epochs = kEpochs;
  opt.evaluate_validation = true;
  opt.aggregation = w.aggregation;
  opt.backend = comm::Backend::Sim;
  opt.wire = comm::WirePrecision::Fp32;
  opt.rss_budget_bytes = w.streaming ? budget_bytes : -1;
  return opt;
}

/// Removes the shard directory however the run ends.
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    if (!path.empty()) fs::remove_all(path, ec);
  }
};

/// fsync every file of `dir`, so that writeback of the freshly written
/// shards does not overlap the measured training calls.
void flush_to_disk(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const int fd = open(entry.path().c_str(), O_RDONLY);
    if (fd < 0 || fsync(fd) != 0) {
      if (fd >= 0) close(fd);
      throw std::runtime_error("cannot flush " + entry.path().string());
    }
    close(fd);
  }
}

struct Setup {
  graph::Graph graph;           ///< resident workloads
  core::PlexusDataset dataset;  ///< resident workloads
  std::string shard_dir;        ///< streaming workload
  std::int64_t num_nodes = 0;
  std::int64_t feature_dim = 0;
  std::int64_t num_classes = 0;
  std::int64_t adjacency_nnz = 0;  ///< per adjacency version, self loops included
  double generate_s = 0.0;
  double preprocess_s = 0.0;  ///< resident only: rmat_to_shards does both in one call
  double shards_written_mb = 0.0;
};

void set_up(const Workload& w, const Args& a, std::int64_t nodes, const core::TrainOptions& opt,
            Setup& s) {
  const graph::DatasetInfo& info = graph::dataset_info(w.dataset);
  s.feature_dim = info.feature_dim;
  s.num_classes = info.num_classes;
  if (w.streaming) {
    auto spec = graph::proxy_shards_spec(info, nodes, a.seed);
    spec.scheme = static_cast<int>(opt.scheme);
    spec.num_layers = opt.model.num_layers();
    spec.pad_multiple = opt.grid.size();
    spec.preprocess_seed = opt.preprocess_seed;
    spec.parts = opt.grid.size();
    const std::int64_t t0 = trace::now_ns();
    graph::RmatShardsResult r;
    {
      const trace::Scope span("graph.rmat_to_shards", trace::Kind::Setup);
      r = graph::rmat_to_shards(s.shard_dir, spec);
    }
    s.generate_s = seconds_between(t0, trace::now_ns());
    s.num_nodes = r.num_nodes;
    s.adjacency_nnz = r.adjacency_nnz;
    s.shards_written_mb = static_cast<double>(r.bytes_written) / kMB;
    return;
  }
  std::int64_t t0 = trace::now_ns();
  {
    const trace::Scope span("graph.make_proxy", trace::Kind::Setup);
    s.graph = graph::make_proxy(info, nodes, a.seed);
  }
  s.generate_s = seconds_between(t0, trace::now_ns());
  t0 = trace::now_ns();
  {
    const trace::Scope span("core.preprocess_graph", trace::Kind::Setup);
    s.dataset = core::preprocess_graph(s.graph, opt.scheme, opt.model.num_layers(),
                                       opt.grid.size(), opt.preprocess_seed);
  }
  s.preprocess_s = seconds_between(t0, trace::now_ns());
  s.num_nodes = s.graph.num_nodes;
  s.adjacency_nnz = s.dataset.adj_even.nnz();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::vector<Metric>;

/// Snake-case names of comm::Collective, in enum order.
constexpr std::array<const char*, 7> kCollectiveNames = {
    "barrier", "broadcast", "all_gather", "all_reduce", "reduce_scatter", "all_to_all", "send"};

/// Per-layer metrics of one traced training call. Host spans are summed per
/// rank over the measured epochs, maximised over ranks (the straggler sets
/// the epoch) and divided by the measured epoch count.
Metrics round_layer_metrics(const trace::Drained& d, const core::TrainResult& r, int ranks) {
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<double> build(n), epoch(n), fwd(n), eval(n), spmm(n), gemm(n);
  std::vector<double> spmm_calls(n), gemm_calls(n);
  double spmm_flops = 0.0, gemm_flops = 0.0;
  for (const auto& s : d.spans) {
    if (s.rank < 0 || s.rank >= ranks) continue;
    const auto k = static_cast<std::size_t>(s.rank);
    const double dur = seconds_between(s.start_ns, s.end_ns);
    const bool measured = s.epoch >= kSkip;
    switch (s.kind) {
      case trace::Kind::ModelBuild: build[k] += dur; break;
      case trace::Kind::Evaluate: eval[k] += dur; break;
      case trace::Kind::Epoch: if (measured) epoch[k] += dur; break;
      case trace::Kind::Forward: if (measured) fwd[k] += dur; break;
      case trace::Kind::Spmm:
        if (measured) {
          spmm[k] += dur;
          spmm_calls[k] += 1;
          spmm_flops += static_cast<double>(s.flops);
        }
        break;
      case trace::Kind::Gemm:
        if (measured) {
          gemm[k] += dur;
          gemm_calls[k] += 1;
          gemm_flops += static_cast<double>(s.flops);
        }
        break;
      case trace::Kind::Setup: break;
    }
  }
  std::vector<double> other(n), backward(n);
  for (std::size_t k = 0; k < n; ++k) {
    other[k] = epoch[k] - spmm[k] - gemm[k];
    backward[k] = epoch[k] - fwd[k];
  }
  const auto max_of = [](const std::vector<double>& v) { return *std::max_element(v.begin(), v.end()); };
  const auto per_epoch = [&](const std::vector<double>& v) { return max_of(v) / kMeasuredEpochs; };
  // Throughput over the busy time of all ranks together.
  const auto gflops = [](double flops, const std::vector<double>& busy) {
    const double t = std::accumulate(busy.begin(), busy.end(), 0.0);
    return t > 0 ? flops / t * 1e-9 : 0.0;
  };

  // Communicator::stats() deltas of the measured epochs, per rank.
  std::vector<std::array<double, 7>> calls(n), wire(n);
  std::vector<double> exposed(n), hidden(n), total_calls(n), total_wire(n);
  for (const auto& c : d.comm) {
    if (c.rank < 0 || c.rank >= ranks || c.epoch < kSkip) continue;
    const auto k = static_cast<std::size_t>(c.rank);
    for (std::size_t op = 0; op < kCollectiveNames.size(); ++op) {
      const auto& e = c.delta.by_op[op];
      calls[k][op] += static_cast<double>(e.calls);
      wire[k][op] += static_cast<double>(e.wire_bytes);
      exposed[k] += e.sim_seconds;
      hidden[k] += e.hidden_seconds;
      total_calls[k] += static_cast<double>(e.calls);
      total_wire[k] += static_cast<double>(e.wire_bytes);
    }
  }
  double hidden_sum = 0.0, exposed_sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    hidden_sum += hidden[k];
    exposed_sum += exposed[k];
  }

  Metrics m;
  m.push_back({"core.model_build_s", max_of(build), "s"});
  m.push_back({"core.epoch_wall_s", per_epoch(epoch), "s"});
  m.push_back({"core.forward_wall_s", per_epoch(fwd), "s"});
  m.push_back({"core.backward_step_wall_s", per_epoch(backward), "s"});
  m.push_back({"core.evaluate_s", max_of(eval), "s"});
  m.push_back({"core.other_host_s", per_epoch(other), "s"});
  m.push_back({"sparse.spmm_host_s", per_epoch(spmm), "s"});
  m.push_back({"sparse.spmm_calls", per_epoch(spmm_calls), "count"});
  m.push_back({"sparse.spmm_gflops", gflops(spmm_flops, spmm), "GFLOP/s"});
  m.push_back({"sparse.spmm_sim_ms",
               mean_measured(r, [](const auto& e) { return e.spmm_seconds; }) * 1e3, "ms"});
  m.push_back({"dense.gemm_host_s", per_epoch(gemm), "s"});
  m.push_back({"dense.gemm_calls", per_epoch(gemm_calls), "count"});
  m.push_back({"dense.gemm_gflops", gflops(gemm_flops, gemm), "GFLOP/s"});
  m.push_back({"dense.gemm_sim_ms",
               mean_measured(r, [](const auto& e) { return e.gemm_seconds; }) * 1e3, "ms"});
  m.push_back({"dense.elementwise_sim_ms",
               mean_measured(r, [](const auto& e) { return e.elementwise_seconds; }) * 1e3, "ms"});
  m.push_back({"comm.exposed_sim_ms", per_epoch(exposed) * 1e3, "ms"});
  m.push_back({"comm.hidden_sim_ms", per_epoch(hidden) * 1e3, "ms"});
  m.push_back({"comm.overlap_ratio",
               hidden_sum + exposed_sum > 0 ? hidden_sum / (hidden_sum + exposed_sum) : 0.0,
               "ratio"});
  m.push_back({"comm.wire_mb", per_epoch(total_wire) / kMB, "MB"});
  m.push_back({"comm.calls", per_epoch(total_calls), "count"});
  for (std::size_t op = 0; op < kCollectiveNames.size(); ++op) {
    std::vector<double> c(n), w(n);
    for (std::size_t k = 0; k < n; ++k) {
      c[k] = calls[k][op];
      w[k] = wire[k][op];
    }
    const std::string base = std::string("comm.") + kCollectiveNames[op];
    m.push_back({base + ".calls", per_epoch(c), "count"});
    m.push_back({base + ".wire_mb", per_epoch(w) / kMB, "MB"});
  }
  const auto& cs = d.cache;
  const double accesses = static_cast<double>(cs.hits + cs.misses);
  m.push_back({"loader.cache_hits", static_cast<double>(cs.hits), "count"});
  m.push_back({"loader.cache_misses", static_cast<double>(cs.misses), "count"});
  m.push_back({"loader.cache_hit_ratio", accesses > 0 ? static_cast<double>(cs.hits) / accesses : 0.0,
               "ratio"});
  m.push_back({"loader.bytes_loaded_mb", static_cast<double>(cs.bytes_loaded) / kMB, "MB"});
  m.push_back({"loader.evictions", static_cast<double>(cs.evictions), "count"});
  m.push_back({"loader.peak_cache_mb", static_cast<double>(cs.peak_resident_bytes) / kMB, "MB"});
  m.push_back({"loader.io_exposed_s",
               mean_measured(r, [](const auto& e) { return e.io_exposed_seconds; }), "s"});
  m.push_back({"loader.io_streamed_mb",
               mean_measured(r, [](const auto& e) { return e.io_bytes_streamed; }) / kMB, "MB"});
  return m;
}

// ---------------------------------------------------------------------------
// Checks. Each one is a pure predicate, run on the measured value and on a
// perturbed copy: a check counts only if it passes the first and rejects the
// second.
// ---------------------------------------------------------------------------

/// Distributed losses track the serial reference; reduction-order differences
/// grow under Adam, hence the per-epoch tolerance growth (the same rule as
/// tests/test_distributed.cpp).
double loss_tolerance(std::size_t epoch) { return 2e-3 * std::pow(1.8, static_cast<double>(epoch)); }

bool losses_track_reference(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size() || got.empty()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= loss_tolerance(i))) return false;
  }
  return true;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct CheckReport {
  std::vector<std::string> lines;
  bool ok = true;

  void add(const std::string& name, bool pass, bool perturbed_pass, const std::string& detail) {
    const bool live = !perturbed_pass;
    ok = ok && pass && live;
    lines.push_back(name + ": " + (pass ? "pass" : "FAIL") + ", perturbed input " +
                    (live ? "rejected" : "ACCEPTED") + " (" + detail + ")");
  }
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::int64_t adjacency_bytes_on_disk(const std::string& dir) {
  std::int64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().filename().string().rfind("adj", 0) == 0) {
      total += static_cast<std::int64_t>(entry.file_size());
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void print_result(bool correct, int attempted, int failed, const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string host_line(const Workload& w, const Args& a, std::int64_t nodes) {
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  utsname u{};
  uname(&u);
  return std::string("# host ") + host + " " + u.machine + ", " +
         std::to_string(std::thread::hardware_concurrency()) + " cores, simd " +
         plexus::simd::target_name(plexus::simd::active_target()) + "; workload " +
         w.name + " (" + w.dataset + " proxy, " + std::to_string(nodes) + " nodes), seed " +
         std::to_string(a.seed) + ", " + std::to_string(kEpochs) + " epochs per round, grid 2x2x2, " +
         (a.trace ? "traced" : "untraced");
}

int run(const Args& a) {
  if (a.trace != kTracedBinary) {
    throw std::invalid_argument(kTracedBinary ? "trainbench_traced runs only with --trace 1"
                                              : "trainbench runs only with --trace 0");
  }
  const Workload& w = find_workload(a.workload);
  const std::int64_t nodes = a.smoke ? w.smoke_nodes : w.nodes;
  const std::int64_t budget = a.smoke ? w.smoke_budget_bytes : w.budget_bytes;
  const core::TrainOptions opt = train_options(w, budget);
  fs::create_directories(a.out_dir);

  // ---- set-up (the cold set-up, timed from process start) -----------------
  trace::set_enabled(a.trace);
  Setup setup;
  DirGuard shard_guard;
  if (w.streaming) {
    setup.shard_dir = (fs::path(a.out_dir) / ("shards-" + std::string(w.name) + "-" +
                                              std::to_string(getpid())))
                          .string();
    shard_guard.path = setup.shard_dir;
  }
  set_up(w, a, nodes, opt, setup);
  const double setup_s = seconds_between(0, trace::now_ns());
  if (w.streaming) flush_to_disk(setup.shard_dir);
  std::vector<trace::Span> spans = trace::drain().spans;

  // ---- measured rounds -----------------------------------------------------
  const auto train_once = [&]() {
    return w.streaming ? core::train_plexus_streaming(setup.shard_dir, opt)
                       : core::train_plexus(setup.dataset, opt);
  };
  std::vector<double> plain_s, traced_s;
  std::vector<std::vector<double>> round_losses;
  std::vector<Metrics> round_layers;
  core::TrainResult first;
  double rss_mb = 0.0;  // read before any check work
  int attempted = 0, failed = 0;
  const std::int64_t t_rounds = trace::now_ns();
  const std::int64_t t_end = t_rounds + static_cast<std::int64_t>(a.seconds * 1e9);
  // Traced runs alternate untraced and traced rounds so that the overhead
  // ratio compares neighbours; they need one of each.
  for (;;) {
    const bool have_both = !plain_s.empty() && (!a.trace || !traced_s.empty());
    if (trace::now_ns() >= t_end && (have_both || failed > 0)) break;
    const bool traced_round = a.trace && attempted % 2 == 1;
    trace::set_enabled(traced_round);
    ++attempted;
    try {
      const std::int64_t t0 = trace::now_ns();
      core::TrainResult r = train_once();
      const double dt = seconds_between(t0, trace::now_ns());
      trace::set_enabled(false);
      (traced_round ? traced_s : plain_s).push_back(dt);
      std::fprintf(stderr, "round %d%s: %.4f s, peak rss %.1f MB\n", attempted,
                   traced_round ? " (traced)" : "", dt, peak_rss_mb());
      round_losses.push_back(r.losses());
      if (traced_round) {
        trace::Drained d = trace::drain();
        round_layers.push_back(round_layer_metrics(d, r, opt.grid.size()));
        spans.insert(spans.end(), d.spans.begin(), d.spans.end());
      }
      if (round_losses.size() == 1) {
        // One training call's high-water mark: later calls in the same
        // process add allocator retention, which would tie the figure to
        // the number of rounds the host managed.
        rss_mb = peak_rss_mb();
        first = std::move(r);
      }
    } catch (const std::exception& e) {
      trace::set_enabled(false);
      trace::drain();
      ++failed;
      std::fprintf(stderr, "round %d failed: %s\n", attempted, e.what());
    }
  }
  const double sim_epoch_ms = first.avg_epoch_seconds(kSkip) * 1e3;

  // ---- checks --------------------------------------------------------------
  const std::int64_t t_checks = trace::now_ns();
  CheckReport checks;
  if (round_losses.empty()) {
    checks.ok = false;
    checks.lines.push_back("no training call succeeded");
  } else {
    const graph::DatasetInfo& info = graph::dataset_info(w.dataset);
    if (w.streaming) setup.graph = graph::make_proxy(info, nodes, a.seed);  // same graph
    const std::vector<double> ref =
        plexus::ref::train_serial_gcn(setup.graph, opt.model, kEpochs).losses();
    const std::vector<double>& got = round_losses.front();
    std::vector<double> bad = got;
    bad.back() += 2.0 * loss_tolerance(bad.size() - 1);
    std::string detail = "epoch losses";
    for (std::size_t i = 0; i < got.size() && i < ref.size(); ++i) {
      detail.append(" ").append(fmt(got[i])).append("/").append(fmt(ref[i]));
    }
    checks.add("losses match ref::train_serial_gcn", losses_track_reference(got, ref),
               losses_track_reference(bad, ref), detail + " (distributed/serial)");

    bool same = true;
    for (const auto& l : round_losses) same = same && bitwise_equal(l, got);
    std::vector<double> flipped = got;
    flipped.back() = std::nextafter(flipped.back(), 1e300);
    checks.add("every round's losses are bitwise identical", same, bitwise_equal(flipped, got),
               std::to_string(round_losses.size()) + " rounds");

    const double chance = 1.0 / static_cast<double>(info.num_classes);
    const auto above_chance = [chance](double acc) { return acc > chance; };
    const double acc = first.epochs.back().train_accuracy;
    checks.add("final train accuracy above chance", above_chance(acc), above_chance(chance),
               "accuracy " + fmt(acc) + ", chance " + fmt(chance));

    const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
    checks.add("simulated epoch time is positive and finite", positive(sim_epoch_ms),
               positive(std::nan("")), fmt(sim_epoch_ms) + " ms");

    if (w.streaming) {
      // train_plexus_streaming keeps its view private; this pass trains the
      // same directory through a named budgeted view, as that call does, to
      // read the block cache's counters.
      const core::ShardedDatasetView view(setup.shard_dir, budget);
      const core::TrainResult vr = core::train_plexus(view, opt);
      const auto cs = view.cache_stats();
      const std::int64_t adj_bytes = adjacency_bytes_on_disk(setup.shard_dir);
      const auto within = [](std::int64_t peak, std::int64_t limit) {
        return peak > 0 && peak <= limit;
      };
      checks.add("block-cache peak within the budget", within(cs.peak_resident_bytes, budget),
                 within(budget + 1, budget),
                 "peak " + std::to_string(cs.peak_resident_bytes) + " B, budget " +
                     std::to_string(budget) + " B");
      const auto covers = [](std::int64_t loaded, std::int64_t files) {
        return files > 0 && loaded >= files;
      };
      checks.add("bytes loaded cover the adj* files", covers(cs.bytes_loaded, adj_bytes),
                 covers(adj_bytes - 1, adj_bytes),
                 "loaded " + std::to_string(cs.bytes_loaded) + " B, files " +
                     std::to_string(adj_bytes) + " B");
      checks.add("named-view training matches train_plexus_streaming bitwise",
                 bitwise_equal(vr.losses(), got), bitwise_equal(flipped, got), "losses");
    }
  }

  // ---- report --------------------------------------------------------------
  Metrics metrics;
  if (!a.trace) {
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"train_s", median(plain_s), "s"});
    metrics.push_back({"sim_epoch_ms", sim_epoch_ms, "ms"});
    metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  } else {
    metrics.push_back({"graph.generate_s", setup.generate_s, "s"});
    metrics.push_back({"graph.adjacency_nnz", static_cast<double>(setup.adjacency_nnz), "count"});
    metrics.push_back({"core.preprocess_s", setup.preprocess_s, "s"});
    metrics.push_back({"loader.shards_written_mb", setup.shards_written_mb, "MB"});
    if (!round_layers.empty()) {
      for (std::size_t i = 0; i < round_layers.front().size(); ++i) {
        std::vector<double> v;
        for (const auto& rl : round_layers) v.push_back(rl[i].value);
        metrics.push_back({round_layers.front()[i].name, median(v), round_layers.front()[i].unit});
      }
    }
    plexus::perf::WorkloadStats ws;
    ws.num_nodes = setup.num_nodes;
    ws.num_nonzeros = setup.adjacency_nnz;
    ws.layer_dims = {setup.feature_dim, 128, 128, setup.num_classes};
    const double predicted_ms =
        plexus::perf::predict_epoch(*opt.machine, ws, opt.grid).total() * 1e3;
    metrics.push_back({"perfmodel.predicted_epoch_ms", predicted_ms, "ms"});
    metrics.push_back(
        {"perfmodel.prediction_ratio", sim_epoch_ms > 0 ? predicted_ms / sim_epoch_ms : 0.0, "ratio"});
    const double plain = median(plain_s);
    metrics.push_back({"trace.overhead_ratio", plain > 0 ? median(traced_s) / plain : 0.0, "ratio"});

    const std::string trace_path =
        (fs::path(a.out_dir) / ("trace-" + std::string(w.name) + "-seed" + std::to_string(a.seed) +
                                ".json"))
            .string();
    trace::write_chrome_trace(trace_path, spans);
    std::fprintf(stderr, "span trace: %s (%zu spans); train_s untraced %.4f, traced %.4f\n",
                 trace_path.c_str(), spans.size(), plain, median(traced_s));
  }
  for (auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      checks.ok = false;
      checks.lines.push_back("metric " + m.name + " is not finite");
      m.value = -1.0;
    }
  }

  for (const auto& l : checks.lines) std::fprintf(stderr, "check %s\n", l.c_str());
  std::fprintf(stderr, "phases: set-up %.2f s, %d rounds %.2f s, checks %.2f s\n", setup_s,
               attempted, seconds_between(t_rounds, t_checks),
               seconds_between(t_checks, trace::now_ns()));
  std::printf("%s\n", host_line(w, a, nodes).c_str());
  print_result(checks.ok, attempted, failed, metrics);
  return checks.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "trainbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trainbench: %s\n", e.what());
    return 1;
  }
}
