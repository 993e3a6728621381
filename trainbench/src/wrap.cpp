// Link-time wrappers of the traced benchmark binary. CMakeLists.txt links it
// with `-Wl,--wrap=<symbol>` for every symbol below, so each call that one of
// the program's object files makes into another lands here first; the
// wrapper records a span (trace.hpp) and forwards to `__real_<symbol>`.
// Calls inside one translation unit are not redirected, so nested kernel
// calls are not counted twice.
//
// The wrappers are declared as free functions with the member functions'
// Itanium C++ ABI: the hidden result pointer (class return types) comes first,
// then `this`, then the arguments; a class argument passed by value
// (GcnSpec) travels as a pointer to the caller's temporary and is passed on
// untouched.

#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "core/dataset_view.hpp"
#include "core/model.hpp"
#include "dense/gemm.hpp"
#include "dense/matrix.hpp"
#include "sparse/csr.hpp"
#include "trace.hpp"

namespace core = plexus::core;
namespace dense = plexus::dense;
namespace sparse = plexus::sparse;
namespace sim = plexus::sim;
namespace trace = trainbench::trace;

namespace {

// The streaming view the calling rank's model reads from, if any; set by the
// DistGcn constructor wrapper, which precedes every epoch of that model.
thread_local const core::ShardedDatasetView* t_view = nullptr;

void snapshot_cache() {
  if (t_view != nullptr && t_view->streaming() && trace::enabled()) {
    trace::record_cache(t_view->cache_stats());
  }
}

std::int64_t spmm_flops(std::int64_t nnz, const dense::Matrix& b) { return 2 * nnz * b.cols(); }

}  // namespace

extern "C" {

// ---- core -----------------------------------------------------------------

void __real__ZN6plexus4core7DistGcnC1ERNS_3sim11RankContextERKNS0_11DatasetViewERKNS0_6Grid3DENS0_7GcnSpecE(
    core::DistGcn* self, sim::RankContext& ctx, const core::DatasetView& view,
    const core::Grid3D& grid, core::GcnSpec* spec);
void __wrap__ZN6plexus4core7DistGcnC1ERNS_3sim11RankContextERKNS0_11DatasetViewERKNS0_6Grid3DENS0_7GcnSpecE(
    core::DistGcn* self, sim::RankContext& ctx, const core::DatasetView& view,
    const core::Grid3D& grid, core::GcnSpec* spec) {
  trace::set_thread_rank(ctx.rank());
  trace::set_thread_epoch(-1);
  t_view = dynamic_cast<const core::ShardedDatasetView*>(&view);
  const trace::Scope span("core.model_build", trace::Kind::ModelBuild);
  __real__ZN6plexus4core7DistGcnC1ERNS_3sim11RankContextERKNS0_11DatasetViewERKNS0_6Grid3DENS0_7GcnSpecE(
      self, ctx, view, grid, spec);
}

core::EpochStats __real__ZN6plexus4core7DistGcn11train_epochERNS_3sim11RankContextEi(
    core::DistGcn* self, sim::RankContext& ctx, int epoch);
core::EpochStats __wrap__ZN6plexus4core7DistGcn11train_epochERNS_3sim11RankContextEi(
    core::DistGcn* self, sim::RankContext& ctx, int epoch) {
  trace::set_thread_rank(ctx.rank());
  trace::set_thread_epoch(epoch);
  const plexus::comm::CommStats before = ctx.comm.stats();
  core::EpochStats s;
  {
    const trace::Scope span("core.train_epoch", trace::Kind::Epoch);
    s = __real__ZN6plexus4core7DistGcn11train_epochERNS_3sim11RankContextEi(self, ctx, epoch);
  }
  trace::EpochComm ec;
  ec.rank = ctx.rank();
  ec.epoch = epoch;
  const plexus::comm::CommStats& after = ctx.comm.stats();
  for (std::size_t k = 0; k < after.by_op.size(); ++k) {
    auto& d = ec.delta.by_op[k];
    const auto& a = after.by_op[k];
    const auto& b = before.by_op[k];
    d.calls = a.calls - b.calls;
    d.bytes = a.bytes - b.bytes;
    d.wire_bytes = a.wire_bytes - b.wire_bytes;
    d.sim_seconds = a.sim_seconds - b.sim_seconds;
    d.hidden_seconds = a.hidden_seconds - b.hidden_seconds;
  }
  trace::record_epoch_comm(ec);
  snapshot_cache();
  trace::set_thread_epoch(-1);
  return s;
}

double __real__ZN6plexus4core7DistGcn8evaluateERNS_3sim11RankContextERKSt6vectorIhSaIhEE(
    core::DistGcn* self, sim::RankContext& ctx, const std::vector<std::uint8_t>& mask);
double __wrap__ZN6plexus4core7DistGcn8evaluateERNS_3sim11RankContextERKSt6vectorIhSaIhEE(
    core::DistGcn* self, sim::RankContext& ctx, const std::vector<std::uint8_t>& mask) {
  trace::set_thread_rank(ctx.rank());
  double acc = 0.0;
  {
    const trace::Scope span("core.evaluate", trace::Kind::Evaluate);
    acc = __real__ZN6plexus4core7DistGcn8evaluateERNS_3sim11RankContextERKSt6vectorIhSaIhEE(
        self, ctx, mask);
  }
  snapshot_cache();
  return acc;
}

dense::Matrix __real__ZN6plexus4core12DistGcnLayer7forwardERNS_3sim11RankContextERKNS_5dense6MatrixEbmRNS0_12KernelTimersE(
    core::DistGcnLayer* self, sim::RankContext& ctx, const dense::Matrix& f_in, bool last,
    std::uint64_t epoch_seed, core::KernelTimers& timers);
dense::Matrix __wrap__ZN6plexus4core12DistGcnLayer7forwardERNS_3sim11RankContextERKNS_5dense6MatrixEbmRNS0_12KernelTimersE(
    core::DistGcnLayer* self, sim::RankContext& ctx, const dense::Matrix& f_in, bool last,
    std::uint64_t epoch_seed, core::KernelTimers& timers) {
  const trace::Scope span("core.layer_forward", trace::Kind::Forward);
  return __real__ZN6plexus4core12DistGcnLayer7forwardERNS_3sim11RankContextERKNS_5dense6MatrixEbmRNS0_12KernelTimersE(
      self, ctx, f_in, last, epoch_seed, timers);
}

// ---- sparse ---------------------------------------------------------------

void __real__ZN6plexus6sparse9spmm_rowsERKNS0_3CsrERKNS_5dense6MatrixERS5_ll(
    const sparse::Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t r0,
    std::int64_t r1);
void __wrap__ZN6plexus6sparse9spmm_rowsERKNS0_3CsrERKNS_5dense6MatrixERS5_ll(
    const sparse::Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t r0,
    std::int64_t r1) {
  const trace::Scope span("sparse.spmm_rows", trace::Kind::Spmm,
                          spmm_flops(a.range_nnz(r0, r1), b));
  __real__ZN6plexus6sparse9spmm_rowsERKNS0_3CsrERKNS_5dense6MatrixERS5_ll(a, b, c, r0, r1);
}

void __real__ZN6plexus6sparse16spmm_rows_serialERKNS0_3CsrERKNS_5dense6MatrixERS5_llb(
    const sparse::Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t r0,
    std::int64_t r1, bool accumulate);
void __wrap__ZN6plexus6sparse16spmm_rows_serialERKNS0_3CsrERKNS_5dense6MatrixERS5_llb(
    const sparse::Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t r0,
    std::int64_t r1, bool accumulate) {
  const trace::Scope span("sparse.spmm_rows_serial", trace::Kind::Spmm,
                          spmm_flops(a.range_nnz(r0, r1), b));
  __real__ZN6plexus6sparse16spmm_rows_serialERKNS0_3CsrERKNS_5dense6MatrixERS5_llb(
      a, b, c, r0, r1, accumulate);
}

void __real__ZN6plexus6sparse14spmm_into_rowsERKNS0_3CsrERKNS_5dense6MatrixERS5_l(
    const sparse::Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t out_r0);
void __wrap__ZN6plexus6sparse14spmm_into_rowsERKNS0_3CsrERKNS_5dense6MatrixERS5_l(
    const sparse::Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t out_r0) {
  const trace::Scope span("sparse.spmm_into_rows", trace::Kind::Spmm, spmm_flops(a.nnz(), b));
  __real__ZN6plexus6sparse14spmm_into_rowsERKNS0_3CsrERKNS_5dense6MatrixERS5_l(a, b, c, out_r0);
}

void __real__ZN6plexus6sparse4spmmERKNS0_3CsrERKNS_5dense6MatrixERS5_(
    const sparse::Csr& a, const dense::Matrix& b, dense::Matrix& c);
void __wrap__ZN6plexus6sparse4spmmERKNS0_3CsrERKNS_5dense6MatrixERS5_(
    const sparse::Csr& a, const dense::Matrix& b, dense::Matrix& c) {
  const trace::Scope span("sparse.spmm", trace::Kind::Spmm, spmm_flops(a.nnz(), b));
  __real__ZN6plexus6sparse4spmmERKNS0_3CsrERKNS_5dense6MatrixERS5_(a, b, c);
}

dense::Matrix __real__ZN6plexus6sparse4spmmERKNS0_3CsrERKNS_5dense6MatrixE(
    const sparse::Csr& a, const dense::Matrix& b);
dense::Matrix __wrap__ZN6plexus6sparse4spmmERKNS0_3CsrERKNS_5dense6MatrixE(
    const sparse::Csr& a, const dense::Matrix& b) {
  const trace::Scope span("sparse.spmm", trace::Kind::Spmm, spmm_flops(a.nnz(), b));
  return __real__ZN6plexus6sparse4spmmERKNS0_3CsrERKNS_5dense6MatrixE(a, b);
}

void __real__ZN6plexus6sparse15spmm_accumulateERKNS0_3CsrERKNS_5dense6MatrixERS5_(
    const sparse::Csr& a, const dense::Matrix& b, dense::Matrix& c);
void __wrap__ZN6plexus6sparse15spmm_accumulateERKNS0_3CsrERKNS_5dense6MatrixERS5_(
    const sparse::Csr& a, const dense::Matrix& b, dense::Matrix& c) {
  const trace::Scope span("sparse.spmm_accumulate", trace::Kind::Spmm, spmm_flops(a.nnz(), b));
  __real__ZN6plexus6sparse15spmm_accumulateERKNS0_3CsrERKNS_5dense6MatrixERS5_(a, b, c);
}

// ---- dense ----------------------------------------------------------------

void __real__ZN6plexus5dense4gemmENS0_5TransES1_fRKNS0_6MatrixES4_fRS2_(
    dense::Trans ta, dense::Trans tb, float alpha, const dense::Matrix& a, const dense::Matrix& b,
    float beta, dense::Matrix& c);
void __wrap__ZN6plexus5dense4gemmENS0_5TransES1_fRKNS0_6MatrixES4_fRS2_(
    dense::Trans ta, dense::Trans tb, float alpha, const dense::Matrix& a, const dense::Matrix& b,
    float beta, dense::Matrix& c) {
  const trace::Scope span(
      "dense.gemm", trace::Kind::Gemm,
      2 * dense::op_rows(a, ta) * dense::op_cols(a, ta) * dense::op_cols(b, tb));
  __real__ZN6plexus5dense4gemmENS0_5TransES1_fRKNS0_6MatrixES4_fRS2_(ta, tb, alpha, a, b, beta, c);
}

dense::Matrix __real__ZN6plexus5dense6matmulERKNS0_6MatrixES3_NS0_5TransES4_(
    const dense::Matrix& a, const dense::Matrix& b, dense::Trans ta, dense::Trans tb);
dense::Matrix __wrap__ZN6plexus5dense6matmulERKNS0_6MatrixES3_NS0_5TransES4_(
    const dense::Matrix& a, const dense::Matrix& b, dense::Trans ta, dense::Trans tb) {
  const trace::Scope span(
      "dense.matmul", trace::Kind::Gemm,
      2 * dense::op_rows(a, ta) * dense::op_cols(a, ta) * dense::op_cols(b, tb));
  return __real__ZN6plexus5dense6matmulERKNS0_6MatrixES3_NS0_5TransES4_(a, b, ta, tb);
}

}  // extern "C"
