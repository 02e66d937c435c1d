#include "kernels/analyze.h"

#include <utility>

#include "kernels/common.h"
#include "matrix/convert.h"
#include "matrix/csc.h"
#include "sim/machine.h"
#include "sim/memory.h"
#include "support/timer.h"

namespace capellini::kernels {

sim::Kernel BuildInDegreeKernel() {
  using sim::Special;
  sim::KernelBuilder b("analyze_indegree", kNumParams);

  const int tid = b.R("tid");
  const int nnz = b.R("nnz");
  const int ri = b.R("ri");
  const int counts = b.R("counts");
  const int row = b.R("row");
  const int addr = b.R("addr");
  const int pred = b.R("pred");
  const int one = b.R("one");
  const int old = b.R("old");

  // One thread per nonzero: counts[row_idx[t]] += 1 — Liu et al.'s
  // sptrsv_syncfree_analyser, verbatim.
  b.S2R(tid, Special::kGlobalTid);
  b.LdParam(nnz, kParamM);
  b.SetLt(pred, tid, nnz);
  b.ExitIfZero(pred);

  b.LdParam(ri, kParamColIdx);
  b.LdParam(counts, kParamGetValue);
  b.ShlI(addr, tid, 2);
  b.Add(addr, addr, ri);
  b.Ld4(row, addr);
  b.MovI(one, 1);
  b.ShlI(addr, row, 2);
  b.Add(addr, addr, counts);
  b.AtomAddI4(old, addr, one);
  b.Exit();
  return b.Build();
}

sim::Kernel BuildLevelPropagateKernel() {
  using sim::Special;
  sim::KernelBuilder b("analyze_levels", kNumParams);

  const int tid = b.R("tid");
  const int m = b.R("m");
  const int rp = b.R("rp");
  const int ci = b.R("ci");
  const int done = b.R("done");
  const int counts = b.R("counts");
  const int lvl = b.R("lvl");
  const int j = b.R("j");
  const int dep_end = b.R("dep_end");
  const int col = b.R("col");
  const int addr = b.R("addr");
  const int doneaddr = b.R("doneaddr");
  const int pred = b.R("pred");
  const int g = b.R("g");
  const int cand = b.R("cand");
  const int maxl = b.R("maxl");
  const int one = b.R("one");

  b.S2R(tid, Special::kGlobalTid);
  b.LdParam(m, kParamM);
  b.SetLt(pred, tid, m);
  b.ExitIfZero(pred);

  b.LdParam(rp, kParamRowPtr);
  b.LdParam(ci, kParamColIdx);
  b.LdParam(done, kParamGetValue);
  b.LdParam(counts, kParamAux0);
  b.LdParam(lvl, kParamAux1);

  // dep_end = row_ptr[i] + (counts[i] - 1): past-the-last strictly-lower
  // entry — the in-degree kernel's product is this thread's termination
  // bound (the diagonal itself is never drained).
  b.ShlI(addr, tid, 2);
  b.Add(addr, addr, rp);
  b.Ld4(j, addr);
  b.ShlI(addr, tid, 2);
  b.Add(addr, addr, counts);
  b.Ld4(dep_end, addr);
  b.AddI(dep_end, dep_end, -1);
  b.Add(dep_end, dep_end, j);
  b.MovI(maxl, -1);  // level = 1 + max(dep levels); no deps -> level 0

  sim::Label outer = b.NewLabel();
  sim::Label inner = b.NewLabel();
  sim::Label no_update = b.NewLabel();
  sim::Label after_inner = b.NewLabel();
  sim::Label next_pass = b.NewLabel();

  // The Writing-First drain, with published LEVELS in place of solution
  // components: consume every already-published dependency in CSR order,
  // folding max(level); publish-and-exit the moment the last one lands. Any
  // counter-style bounded spin here would reintroduce the Challenge-1
  // intra-warp deadlock — a lane parked at reconvergence can hold the very
  // level a sibling lane spins on.
  b.Bind(outer);
  b.Bind(inner);  // while j < dep_end && done[col_idx[j]]
  b.SetLt(pred, j, dep_end);
  b.Brz(pred, after_inner, after_inner);
  b.ShlI(addr, j, 2);
  b.Add(addr, addr, ci);
  b.Ld4(col, addr);
  b.ShlI(doneaddr, col, 2);
  b.Add(doneaddr, doneaddr, done);
  b.Ld4(g, doneaddr);
  b.Brz(g, after_inner, after_inner);
  b.ShlI(addr, col, 2);
  b.Add(addr, addr, lvl);
  b.Ld4(cand, addr);
  b.SetLt(pred, maxl, cand);
  b.Brz(pred, no_update, no_update);
  b.Mov(maxl, cand);
  b.Bind(no_update);
  b.AddI(j, j, 1);
  b.Jmp(inner);

  b.Bind(after_inner);  // all dependencies drained?
  b.SetEq(pred, j, dep_end);
  b.Brz(pred, next_pass, next_pass);

  // Write first: level[i] = maxl + 1, fence, flag, exit.
  b.AddI(maxl, maxl, 1);
  b.ShlI(addr, tid, 2);
  b.Add(addr, addr, lvl);
  b.St4(addr, maxl);
  b.Fence();
  b.MovI(one, 1);
  b.ShlI(addr, tid, 2);
  b.Add(addr, addr, done);
  b.MarkPublish();
  b.St4(addr, one);
  b.Exit();

  // Only the failed-pass backedge busy-waits, as in Algorithm 5.
  b.BeginSpin();
  b.Bind(next_pass);
  b.Jmp(outer);
  b.EndSpin();
  return b.Build();
}

Expected<DeviceAnalysisResult> AnalyzeOnDevice(
    const Csr& lower, const sim::DeviceConfig& config) {
  if (!lower.IsLowerTriangularWithDiagonal()) {
    return InvalidArgument(
        "on-device analysis needs a lower-triangular matrix with a full "
        "diagonal");
  }
  const std::int64_t m = lower.rows();
  if (m == 0) return InvalidArgument("empty system");
  const std::int64_t nnz = lower.nnz();

  DeviceAnalysisResult result;
  Timer host_timer;

  // The in-degree kernel reads rows off the CSC row_idx array (one counter
  // bump per nonzero, no row search); the structure transpose runs on the
  // host, as in the SyncFree solve path.
  const Csc csc = CsrToCsc(lower);
  result.host_ms += host_timer.ElapsedMs();

  sim::DeviceMemory memory;
  sim::Machine machine(config, &memory);
  const int threads_per_block = ThreadsPerBlock(config);

  const auto rows_u = static_cast<std::uint64_t>(m);
  const auto nnz_u = static_cast<std::uint64_t>(nnz);
  const sim::DevicePtr dev_row_ptr = memory.AllocArray<Idx>(rows_u + 1);
  const sim::DevicePtr dev_col_idx = memory.AllocArray<Idx>(nnz_u);
  const sim::DevicePtr dev_csc_row_idx = memory.AllocArray<Idx>(nnz_u);
  const sim::DevicePtr dev_counts =
      memory.AllocArray<std::int32_t>(rows_u);
  const sim::DevicePtr dev_done = memory.AllocArray<std::int32_t>(rows_u);
  const sim::DevicePtr dev_level = memory.AllocArray<std::int32_t>(rows_u);
  memory.CopyToDevice(dev_row_ptr, lower.row_ptr());
  memory.CopyToDevice(dev_col_idx, lower.col_idx());
  memory.CopyToDevice(dev_csc_row_idx, csc.row_idx());
  memory.Fill(dev_counts, rows_u * sizeof(std::int32_t), 0);
  memory.Fill(dev_done, rows_u * sizeof(std::int32_t), 0);
  memory.Fill(dev_level, rows_u * sizeof(std::int32_t), 0);

  static const sim::Kernel indegree_kernel = BuildInDegreeKernel();
  static const sim::Kernel propagate_kernel = BuildLevelPropagateKernel();

  std::vector<std::int64_t> params(kNumParams, 0);
  params[kParamM] = nnz;
  params[kParamColIdx] = static_cast<std::int64_t>(dev_csc_row_idx);
  params[kParamGetValue] = static_cast<std::int64_t>(dev_counts);
  auto degree_stats = machine.Launch(
      indegree_kernel,
      {.num_threads = nnz, .threads_per_block = threads_per_block}, params);
  if (!degree_stats.ok()) return degree_stats.status();
  result.stats = *degree_stats;

  params.assign(kNumParams, 0);
  params[kParamM] = m;
  params[kParamRowPtr] = static_cast<std::int64_t>(dev_row_ptr);
  params[kParamColIdx] = static_cast<std::int64_t>(dev_col_idx);
  params[kParamGetValue] = static_cast<std::int64_t>(dev_done);
  params[kParamAux0] = static_cast<std::int64_t>(dev_counts);
  params[kParamAux1] = static_cast<std::int64_t>(dev_level);
  auto level_stats = machine.Launch(
      propagate_kernel,
      {.num_threads = m, .threads_per_block = threads_per_block}, params);
  if (!level_stats.ok()) return level_stats.status();
  result.stats += *level_stats;

  std::vector<std::int32_t> level_of(static_cast<std::size_t>(m));
  memory.CopyFromDevice(std::span<std::int32_t>(level_of), dev_level);

  host_timer.Reset();
  result.levels = BuildLevelSetsFromLevelOf(std::move(level_of));
  result.host_ms += host_timer.ElapsedMs();
  result.exec_ms = config.CyclesToMs(result.stats.cycles);
  return result;
}

}  // namespace capellini::kernels
