//! Resilient GEMM execution: ABFT checksums, bounded retries,
//! checkpointed recovery and graceful degradation onto surviving cores.
//!
//! [`run_resilient`] wraps any resolved plan ([`ChosenStrategy`]) with a
//! recovery loop:
//!
//! * **Silent data corruption** (injected DMA payload corruption or
//!   scratchpad bit flips) is caught after the run by algorithm-based
//!   fault tolerance: row and column checksums of the final `C` are
//!   compared against checksums predicted in `f64` from `A`, `B` and the
//!   initial `C`.  Both sides are read in place in DDR by
//!   [`hostsimd::checksum_sweep`]; the initial `C` is the only operand
//!   copied, as the snapshot that suspect rows are restored from.  Only
//!   the suspect row range, widened to its enclosing units of the walk's
//!   [`RowGrid`], is re-executed: the re-run deals the walk's own tasks
//!   and row blocks, so the recovered `C` is bit-exact with a fault-free
//!   run.
//! * **DMA timeouts** abort the run mid-flight — either after the fault
//!   plan's full hang charge or earlier when a watchdog DMA budget is
//!   armed ([`dspsim::WatchdogConfig`]).  The affected row span is
//!   restored and retried after an exponential backoff charged on the
//!   simulated clock.
//! * **Core failures** retire the dead core from the machine's
//!   logical→physical map and re-run on the survivors.  M-parallel and
//!   TGEMM re-runs stay bit-exact; K-parallel re-runs regroup the GSM
//!   reduction and are only numerically (not bitwise) equivalent.
//! * **Checkpointing** ([`ResilienceConfig::ckpt_rows`] > 0) splits the M
//!   dimension into row spans that execute and row-checksum-verify one at
//!   a time.  A span is whole rounds of the walk ([`RowGrid::spans`]): it
//!   ends where every core's task ends, so no core idles inside a span,
//!   and it starts on the unit grid, so span-by-span execution is
//!   bit-exact with the monolithic run.  A fault then costs only the
//!   unverified span: verified spans are never restored or re-executed,
//!   so [`dspsim::FaultStats::rows_reexecuted`] stays strictly below a
//!   full restart's whenever there are two spans or more.  Each span
//!   still reloads its `B` panels and pays its own prologue, the
//!   checkpoint overhead a coarser `ckpt_rows` trades away.
//! * **Deadline preemption** ([`dspsim::SimError::WatchdogTripped`] with
//!   a `Core` unit) is *not* retried: it is a budget decision by the
//!   caller, surfaced immediately together with the rows verified so far
//!   (see [`ResilientRun`]).
//!
//! The checksum *verification* itself is host-side bookkeeping and is
//! modelled as free; only recovery work (backoff stalls, restored
//! transfers, re-executed tiles) is charged on the timing model.  With an
//! empty fault plan and checkpointing off the wrapper adds no simulated
//! time and no stat perturbation: the run report is bit-identical to an
//! unwrapped run.

use crate::exec::validate_problem;
use crate::walk::{RowGrid, Walk};
use crate::{ChosenStrategy, DdrMatrix, FtImm, FtimmError, GemmProblem};
use dspsim::{EventKind, Machine, RunReport, SimError};
use hostsimd::checksum_sweep;

/// Tuning knobs for the recovery loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Recovery attempts allowed before giving up with
    /// [`dspsim::SimError::DataCorrupt`] (or the underlying error).
    pub max_retries: u32,
    /// First backoff stall in simulated seconds; doubles per attempt.
    pub backoff_base_s: f64,
    /// Relative ABFT tolerance: a checksum mismatch larger than
    /// `abft_tol * (1 + |expected| + mass)` flags the row/column, where
    /// `mass` is the absolute product mass of the checked sum
    /// (`Σ|c0| + Σ|a|·|b|` over the row or column) computed from the
    /// operands before the first run.  Normalising by mass — not by the
    /// final `|C|` values — keeps heavily cancelled rows from tripping the
    /// check on their own fault-free rounding noise, and a corrupted value
    /// cannot inflate its own allowance.  The default sits well above the
    /// f32 rounding noise of the checked sums (measured ≲ 1e-7 of mass at
    /// K ≈ 350) while staying below the error a single exponent-bit flip
    /// in a mass-significant element causes; very deep problems
    /// (K ≫ 10⁴) may need it loosened.
    ///
    /// **Coverage.** A row or column is checked only when its mass lies
    /// within half the f32 range (the half is headroom for the rounding
    /// growth of f32 partial sums).  Beyond that — an infinite, NaN or
    /// near-overflow operand — the fault-free result may itself be
    /// non-finite, so no sum can tell corruption from the right answer:
    /// such rows and columns are not checked, and corruption that lands
    /// only in them goes undetected.  A checked row or column whose final
    /// sum is not finite is a mismatch.
    pub abft_tol: f64,
    /// Minimum checkpoint span in `C` rows.  `0` (the default) disables
    /// checkpointing: the whole problem is one span and a mid-run fault
    /// restarts it all.  A positive value executes and verifies the
    /// problem span by span, so recovery re-executes only the unverified
    /// span; each span is rounded up to whole rounds of the plan's walk
    /// ([`RowGrid::spans`]), so a value below one round checkpoints once
    /// per round.  Bit-exact either way; timing differs (per-span `B`
    /// panel reloads).
    pub ckpt_rows: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_retries: 4,
            backoff_base_s: 1e-6,
            abft_tol: 1e-6,
            ckpt_rows: 0,
        }
    }
}

/// `[signed sums, absolute masses]` along one dimension of a matrix.
type Sums = [Vec<f64>; 2];

fn zeros(n: usize) -> Sums {
    [vec![0.0; n], vec![0.0; n]]
}

/// [`checksum_sweep`] of `x`, read in place, into `[by_row, by_col]`,
/// weighted by `[col_w, row_w]` (unit weights where `None`).
fn sweep(
    m: &mut Machine,
    x: &DdrMatrix,
    [col_w, row_w]: [Option<&Sums>; 2],
    [by_row, by_col]: [&mut Sums; 2],
) -> Result<(), FtimmError> {
    let ones = vec![1.0; x.rows.max(x.cols)];
    let col_w = col_w.map_or([&ones[..x.cols]; 2], |[s, mass]| [s, mass]);
    let row_w = row_w.map_or([&ones[..x.rows]; 2], |[s, mass]| [s, mass]);
    let ([r0, r1], [c0, c1]) = (by_row, by_col);
    checksum_sweep(x.view_f32(m)?, x.ld, col_w, row_w, [r0, r1], [c0, c1]);
    Ok(())
}

/// Host-side ABFT reference state: the initial `C` and the `f64`
/// checksums the finished `C` must reproduce, captured before the first
/// run.
struct AbftRef {
    /// Initial `C` (dense `m × n`), for restoring corrupted rows.
    c0: Vec<f32>,
    /// Expected final row sums, `Σ_j c0[i][j] + Σ_k a[i][k]·rowsum(B)[k]`,
    /// and their masses, `Σ_j |c0[i][j]| + Σ_k |a[i][k]|·rowsum(|B|)[k]`
    /// — the total magnitude that flows through the row's accumulators.
    /// Rounding error scales with this mass, *not* with the final
    /// values: a heavily cancelled row can finish near zero while its f32
    /// accumulation carries the noise of thousands of large products, so
    /// normalising the tolerance by the final `|C|` sums (as an earlier
    /// revision did) false-positives on fault-free runs.
    row: Sums,
    /// Expected final column sums and masses (same bound, transposed).
    col: Sums,
}

/// Whether a checksum disagrees with its expectation `e`.  Only a
/// checksum whose pre-run `mass` lies within half the f32 range is
/// checked (see [`ResilienceConfig`]); a checked checksum whose `sum` is
/// not finite is a mismatch (`NaN > tol` is false, so `>` alone would let
/// it pass).
fn mismatch(sum: f64, e: f64, mass: f64, tol: f64) -> bool {
    mass <= f64::from(f32::MAX) / 2.0
        && (!sum.is_finite() || (sum - e).abs() > tol * (1.0 + e.abs() + mass))
}

impl AbftRef {
    /// Read the operands in place: C0's sums (and its copy, for
    /// restores), B's row sums, A against them (row expectations and A's
    /// column sums in one pass), then B against A's column sums (column
    /// expectations).
    fn capture(m: &mut Machine, p: &GemmProblem) -> Result<Self, FtimmError> {
        let (mm, nn, kk) = (p.m(), p.n(), p.k());
        let (mut row, mut col, mut b_rows, mut a_cols) =
            (zeros(mm), zeros(nn), zeros(kk), zeros(kk));
        sweep(m, &p.c, [None; 2], [&mut row, &mut col])?;
        sweep(m, &p.b, [None; 2], [&mut b_rows, &mut zeros(nn)])?;
        sweep(m, &p.a, [Some(&b_rows), None], [&mut row, &mut a_cols])?;
        sweep(m, &p.b, [None, Some(&a_cols)], [&mut zeros(kk), &mut col])?;
        let c0 = p.c.download(m)?;
        Ok(AbftRef { c0, row, col })
    }

    /// Check rows `[r0, r1)` of the finished `C` against their expected
    /// row sums and, with `cols` (on the whole of `C`), every column, in
    /// one pass over `C` in place.  `None` when clean, otherwise the
    /// smallest contiguous row range covering every suspect row (a
    /// column-only mismatch — a compensated row — flags all of them).
    fn verify(
        &self,
        m: &mut Machine,
        p: &GemmProblem,
        tol: f64,
        (r0, r1): (usize, usize),
        cols: bool,
    ) -> Result<Option<(usize, usize)>, FtimmError> {
        let c = p.c.view(r0, 0, r1 - r0, p.n());
        let (mut row, mut col) = (zeros(c.rows), zeros(c.cols));
        sweep(m, &c, [None; 2], [&mut row, &mut col])?;
        let [e, mass] = &self.row;
        let mut suspects = (r0..)
            .zip(&row[0])
            .filter(|&(i, &s)| mismatch(s, e[i], mass[i], tol));
        if let Some((first, _)) = suspects.next() {
            return Ok(Some((first, suspects.last().map_or(first, |(i, _)| i) + 1)));
        }
        let [e, mass] = &self.col;
        let bad_col = cols && (0..c.cols).any(|j| mismatch(col[0][j], e[j], mass[j], tol));
        Ok(bad_col.then_some((r0, r1)))
    }

    /// Restore rows `[r0, r1)` of `C` to their pre-run contents.
    fn restore_rows(
        &self,
        m: &mut Machine,
        p: &GemmProblem,
        r0: usize,
        r1: usize,
    ) -> Result<(), FtimmError> {
        let nn = p.n();
        p.c.view(r0, 0, r1 - r0, nn)
            .upload(m, &self.c0[r0 * nn..r1 * nn])
            .map_err(FtimmError::Sim)
    }
}

/// The row-restricted sub-problem `C[r0..r1, :] += A[r0..r1, :] × B`.
fn row_span(p: &GemmProblem, r0: usize, r1: usize) -> GemmProblem {
    GemmProblem {
        a: p.a.view(r0, 0, r1 - r0, p.k()),
        b: p.b,
        c: p.c.view(r0, 0, r1 - r0, p.n()),
    }
}

/// Charge an exponential backoff stall on every core that will take part
/// in the next attempt.
fn backoff(m: &mut Machine, cores: usize, rcfg: &ResilienceConfig, attempt: u32) {
    if rcfg.backoff_base_s <= 0.0 {
        return;
    }
    let stall = rcfg.backoff_base_s * f64::from(1u32 << attempt.min(20).saturating_sub(1));
    for id in 0..cores.clamp(1, m.alive_cores()) {
        m.stall(id, stall);
    }
}

/// Outcome of [`run_resilient_full`]: the run result plus the recovery
/// progress the caller (e.g. the job engine) needs even when the run
/// fails — how far checkpoints got and which cores were implicated.
#[derive(Debug)]
pub struct ResilientRun {
    /// The run report, or the terminal error.
    pub result: Result<RunReport, FtimmError>,
    /// `C` rows whose checkpoint completed (and, in functional modes,
    /// verified) before the run ended.  Equals `rows_total` on success.
    pub rows_verified: usize,
    /// The problem's M dimension.
    pub rows_total: usize,
    /// Physical cores implicated in transient faults, in occurrence
    /// order — including faults that were absorbed by a successful
    /// recovery.  Circuit breakers feed on this.
    pub fault_cores: Vec<usize>,
}

/// Shared immutable context for one resilient run.
struct Ctx<'a> {
    ft: &'a FtImm,
    plan: &'a ChosenStrategy,
    cores: usize,
    rcfg: &'a ResilienceConfig,
    grid: RowGrid,
}

/// Mutable recovery bookkeeping for one resilient run.
struct Recovery {
    attempt: u32,
    retries: u64,
    recomputed: u64,
    rows_reexecuted: u64,
    rows_verified: usize,
    fault_cores: Vec<usize>,
}

impl Recovery {
    fn new() -> Self {
        Recovery {
            attempt: 0,
            retries: 0,
            recomputed: 0,
            rows_reexecuted: 0,
            rows_verified: 0,
            fault_cores: Vec::new(),
        }
    }

    /// Charge one recovery attempt against the budget (returning `e` as
    /// the terminal error when it is exhausted) and stall the cores for
    /// the exponential backoff.
    fn charge(&mut self, cx: &Ctx, m: &mut Machine, e: FtimmError) -> Result<(), FtimmError> {
        if self.attempt >= cx.rcfg.max_retries {
            return Err(e);
        }
        self.attempt += 1;
        self.retries += 1;
        self.recomputed += 1;
        m.record_event(EventKind::Retry, e.implicated_core(), m.elapsed());
        backoff(m, cx.cores, cx.rcfg, self.attempt);
        Ok(())
    }
}

/// Execute rows `[r0, r1)` until one pass completes without a transient
/// fault, restoring and re-running the span on each absorbed fault.
fn execute_span(
    cx: &Ctx,
    m: &mut Machine,
    p: &GemmProblem,
    abft: Option<&AbftRef>,
    rec: &mut Recovery,
    r0: usize,
    r1: usize,
) -> Result<(), FtimmError> {
    loop {
        let sub = row_span(p, r0, r1);
        match cx.ft.run_plan(m, &sub, cx.plan, cx.cores) {
            Ok(_) => return Ok(()),
            Err(e) if e.is_transient_fault() => {
                if let Some(c) = e.implicated_core() {
                    rec.fault_cores.push(c);
                }
                if let FtimmError::Sim(SimError::CoreFailed { core, .. }) = &e {
                    m.retire_core(*core);
                    if m.alive_cores() == 0 {
                        return Err(e);
                    }
                }
                rec.charge(cx, m, e)?;
                // The aborted pass may have stored partial C panels inside
                // this span: restore the span and start it over.  Rows
                // outside the span were never touched by this pass.
                if let Some(r) = abft {
                    r.restore_rows(m, p, r0, r1)?;
                }
                rec.rows_reexecuted += (r1 - r0) as u64;
            }
            // Deadline preemption and caller errors are terminal here.
            Err(e) => return Err(e),
        }
    }
}

/// The corruption error reported when the retry budget runs out with a
/// row still failing verification.
fn corrupt_err(p: &GemmProblem, row: usize) -> FtimmError {
    FtimmError::Sim(SimError::DataCorrupt {
        region: "DDR",
        offset: p.c.elem_off(row, 0),
    })
}

/// Verify rows `[r0, r1)` (and, with `cols`, every column) until clean:
/// each suspect range is widened to its enclosing units of the grid,
/// restored and re-executed, so the re-run deals the walk's own tasks and
/// reproduces a fault-free run bit for bit.
fn verify_until_clean(
    cx: &Ctx,
    m: &mut Machine,
    p: &GemmProblem,
    r: &AbftRef,
    rec: &mut Recovery,
    rows: (usize, usize),
    cols: bool,
) -> Result<(), FtimmError> {
    while let Some(suspect) = r.verify(m, p, cx.rcfg.abft_tol, rows, cols)? {
        let (b0, b1) = cx.grid.widen(suspect, p.m());
        rec.charge(cx, m, corrupt_err(p, suspect.0))?;
        r.restore_rows(m, p, b0, b1)?;
        rec.rows_reexecuted += (b1 - b0) as u64;
        execute_span(cx, m, p, Some(r), rec, b0, b1)?;
    }
    Ok(())
}

fn run_spans(
    cx: &Ctx,
    m: &mut Machine,
    p: &GemmProblem,
    rec: &mut Recovery,
) -> Result<RunReport, FtimmError> {
    validate_problem(p)?;
    let abft = if m.mode.is_functional() {
        Some(AbftRef::capture(m, p)?)
    } else {
        None
    };

    let mm = p.m();
    let spans = cx.grid.spans(mm, cx.rcfg.ckpt_rows);
    let checkpointing = spans.len() > 1;

    for &(s0, s1) in &spans {
        execute_span(cx, m, p, abft.as_ref(), rec, s0, s1)?;
        // Row-checksum gate for this checkpoint span.  Column sums need
        // the whole C and run once at the end.
        if let (true, Some(r)) = (checkpointing, &abft) {
            verify_until_clean(cx, m, p, r, rec, (s0, s1), false)?;
        }
        rec.rows_verified = s1;
    }

    // Full-matrix verification: re-checks every row sum and adds the
    // column pass that catches row-compensated corruption.
    if let Some(r) = &abft {
        verify_until_clean(cx, m, p, r, rec, (0, mm), true)?;
    }

    let ids: Vec<usize> = (0..cx.cores.clamp(1, m.alive_cores())).collect();
    let mut rep = m.report(p.flops(), &ids);
    rep.faults.retries = rec.retries;
    rep.faults.recomputed_tiles = rec.recomputed;
    rep.faults.rows_reexecuted = rec.rows_reexecuted;
    Ok(rep)
}

/// Execute a resolved plan with ABFT verification, bounded retries,
/// optional row-span checkpointing and graceful core degradation,
/// reporting recovery progress even on failure.  See the module docs for
/// the fault model.
pub fn run_resilient_full(
    ft: &FtImm,
    m: &mut Machine,
    p: &GemmProblem,
    plan: &ChosenStrategy,
    cores: usize,
    rcfg: &ResilienceConfig,
) -> ResilientRun {
    let walk_cores = cores.clamp(1, m.alive_cores().min(m.cfg.cores_per_cluster));
    let cx = Ctx {
        ft,
        plan,
        cores,
        rcfg,
        grid: Walk::new(plan, p.m(), p.n(), p.k(), walk_cores).grid(),
    };
    let mut rec = Recovery::new();
    let result = run_spans(&cx, m, p, &mut rec);
    ResilientRun {
        result,
        rows_verified: rec.rows_verified,
        rows_total: p.m(),
        fault_cores: rec.fault_cores,
    }
}

/// Execute a resolved plan with ABFT verification, bounded retries and
/// graceful core degradation.  See the module docs for the fault model.
pub fn run_resilient(
    ft: &FtImm,
    m: &mut Machine,
    p: &GemmProblem,
    plan: &ChosenStrategy,
    cores: usize,
    rcfg: &ResilienceConfig,
) -> Result<RunReport, FtimmError> {
    run_resilient_full(ft, m, p, plan, cores, rcfg).result
}

/// A [`DdrMatrix`]-level convenience: verify a finished `C` against a
/// host oracle (`f64` accumulate), returning the worst absolute error.
/// Used by the chaos tests to validate degraded K-parallel runs whose
/// reduction regrouping changes bit patterns but not mathematics.
pub fn max_abs_error_vs_oracle(
    m: &mut Machine,
    c: &DdrMatrix,
    oracle: &[f64],
) -> Result<f64, FtimmError> {
    let got = c.download(m).map_err(FtimmError::Sim)?;
    Ok(got
        .iter()
        .zip(oracle)
        .map(|(&g, &o)| (g as f64 - o).abs())
        .fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, Strategy};
    use dspsim::{DmaPath, ExecMode, FaultPlan, HwConfig};

    fn problem(m: &mut Machine, mm: usize, nn: usize, kk: usize) -> GemmProblem {
        let p = GemmProblem::alloc(m, mm, nn, kk).unwrap();
        p.a.upload(m, &reference::fill_matrix(mm * kk, 1)).unwrap();
        p.b.upload(m, &reference::fill_matrix(kk * nn, 2)).unwrap();
        p.c.upload(m, &reference::fill_matrix(mm * nn, 3)).unwrap();
        p
    }

    #[test]
    fn fault_free_resilient_run_matches_plain_run_bitwise() {
        let ft = FtImm::new(HwConfig::default());
        let mut m1 = Machine::with_mode(ExecMode::Compiled);
        let p1 = problem(&mut m1, 64, 24, 48);
        let plan = ft.plan(&crate::GemmShape::new(64, 24, 48), Strategy::MPar, 4);
        let plain = ft.run_plan(&mut m1, &p1, &plan, 4).unwrap();
        let c_plain = p1.c.download(&mut m1).unwrap();

        let mut m2 = Machine::with_mode(ExecMode::Compiled);
        let p2 = problem(&mut m2, 64, 24, 48);
        let resil =
            run_resilient(&ft, &mut m2, &p2, &plan, 4, &ResilienceConfig::default()).unwrap();
        let c_resil = p2.c.download(&mut m2).unwrap();

        assert_eq!(plain.seconds.to_bits(), resil.seconds.to_bits());
        assert_eq!(plain.totals, resil.totals);
        assert_eq!(resil.faults.retries, 0);
        assert_eq!(resil.faults.injected(), 0);
        for (a, b) in c_plain.iter().zip(&c_resil) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn cancellation_heavy_fault_free_run_verifies_clean() {
        // Regression for an ABFT false positive: at 1×18×351 with this
        // fill seed one C column accumulates ~4.7e3 of absolute product
        // mass down to a final value of ~7, so its fault-free f32
        // rounding noise exceeded a tolerance normalised by the final
        // |C| values.  The mass-normalised allowance must verify it
        // clean on the first pass (also pinned as conformance fixture
        // `shard-failover-tgemm-1x18x351-*`).
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let s = 8802051278782657661u64 as u32;
        let p = GemmProblem::alloc(&mut m, 1, 18, 351).unwrap();
        p.a.upload(&mut m, &reference::fill_matrix(351, s.wrapping_add(1)))
            .unwrap();
        p.b.upload(&mut m, &reference::fill_matrix(351 * 18, s.wrapping_add(2)))
            .unwrap();
        p.c.upload(&mut m, &reference::fill_matrix(18, s.wrapping_add(3)))
            .unwrap();
        let plan = ft.plan(&crate::GemmShape::new(1, 18, 351), Strategy::TGemm, 1);
        let rcfg = ResilienceConfig {
            ckpt_rows: 4,
            ..ResilienceConfig::default()
        };
        let rep = run_resilient(&ft, &mut m, &p, &plan, 1, &rcfg).unwrap();
        assert_eq!(rep.faults.retries, 0);
        assert_eq!(rep.faults.rows_reexecuted, 0);
    }

    #[test]
    fn abft_catches_a_seeded_flip_and_recovers() {
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = problem(&mut m, 64, 24, 48);
        m.install_faults(&FaultPlan::new(9).corrupt_dma(dspsim::DmaPath::DdrToAm, 2));
        let plan = ft.plan(&crate::GemmShape::new(64, 24, 48), Strategy::MPar, 4);
        let rep = run_resilient(&ft, &mut m, &p, &plan, 4, &ResilienceConfig::default()).unwrap();
        assert_eq!(rep.faults.dma_corruptions, 1);
        assert!(rep.faults.retries >= 1);
        assert!(rep.faults.recomputed_tiles >= 1);
        assert!(rep.faults.rows_reexecuted >= 1);

        // Recovered C is bit-identical to a fault-free run.
        let mut m2 = Machine::with_mode(ExecMode::Compiled);
        let p2 = problem(&mut m2, 64, 24, 48);
        ft.run_plan(&mut m2, &p2, &plan, 4).unwrap();
        let want = p2.c.download(&mut m2).unwrap();
        let got = p.c.download(&mut m).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn recovery_of_a_corrupted_row_block_is_bit_exact() {
        // A corrupted `A_s` transfer taints rows of one 8-row block of a
        // 32-row task.  The suspect rows widen to that task (one `m_a`
        // unit), so the re-run deals the walk's own row blocks and
        // reproduces the fault-free bits, with or without checkpoints.
        let ft = FtImm::new(HwConfig::default());
        let plan = ft.plan(&crate::GemmShape::new(64, 24, 48), Strategy::MPar, 4);
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = problem(&mut m, 64, 24, 48);
        ft.run_plan(&mut m, &p, &plan, 4).unwrap();
        let want = p.c.download(&mut m).unwrap();
        for nth in 1..=7 {
            for ckpt_rows in [0, 16] {
                let mut m = Machine::with_mode(ExecMode::Compiled);
                let p = problem(&mut m, 64, 24, 48);
                m.install_faults(&FaultPlan::new(9).corrupt_dma(DmaPath::DdrToSm, nth));
                let rcfg = ResilienceConfig {
                    ckpt_rows,
                    ..ResilienceConfig::default()
                };
                let rep = run_resilient(&ft, &mut m, &p, &plan, 4, &rcfg).unwrap();
                let case = format!("DdrToSm #{nth} ckpt {ckpt_rows}");
                assert_eq!(rep.faults.dma_corruptions, 1, "{case}");
                assert_eq!(rep.faults.rows_reexecuted, 32, "{case}");
                let got = p.c.download(&mut m).unwrap();
                for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{case}: C[{i}] {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn zero_retry_budget_surfaces_corruption() {
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = problem(&mut m, 64, 24, 48);
        m.install_faults(&FaultPlan::new(3).corrupt_dma(dspsim::DmaPath::DdrToAm, 1));
        let plan = ft.plan(&crate::GemmShape::new(64, 24, 48), Strategy::MPar, 4);
        let rcfg = ResilienceConfig {
            max_retries: 0,
            ..ResilienceConfig::default()
        };
        let err = run_resilient(&ft, &mut m, &p, &plan, 4, &rcfg).unwrap_err();
        assert!(
            matches!(err, FtimmError::Sim(SimError::DataCorrupt { .. })),
            "got {err}"
        );
    }

    #[test]
    fn checkpointed_fault_free_run_is_bit_exact_with_the_monolithic_run() {
        let ft = FtImm::new(HwConfig::default());
        let plan = ft.plan(&crate::GemmShape::new(64, 24, 48), Strategy::MPar, 4);

        let mut m1 = Machine::with_mode(ExecMode::Compiled);
        let p1 = problem(&mut m1, 64, 24, 48);
        ft.run_plan(&mut m1, &p1, &plan, 4).unwrap();
        let want = p1.c.download(&mut m1).unwrap();

        let mut m2 = Machine::with_mode(ExecMode::Compiled);
        let p2 = problem(&mut m2, 64, 24, 48);
        let rcfg = ResilienceConfig {
            ckpt_rows: 16,
            ..ResilienceConfig::default()
        };
        let run = run_resilient_full(&ft, &mut m2, &p2, &plan, 4, &rcfg);
        let rep = run.result.unwrap();
        assert_eq!(run.rows_verified, 64);
        assert_eq!(rep.faults.rows_reexecuted, 0);
        let got = p2.c.download(&mut m2).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn failed_run_reports_checkpoint_progress() {
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = problem(&mut m, 64, 24, 48);
        // The 4-core plan's 32-row tasks run on one core, where each task
        // is a round: 16-row checkpoints round up to two 32-row spans.  A
        // corruption in the second span (DdrToSm sees four transfers per
        // span) with a zero retry budget: span 1 verifies, span 2 fails
        // terminally.
        m.install_faults(&FaultPlan::new(5).corrupt_dma(DmaPath::DdrToSm, 5));
        let plan = ft.plan(&crate::GemmShape::new(64, 24, 48), Strategy::MPar, 4);
        let rcfg = ResilienceConfig {
            max_retries: 0,
            ckpt_rows: 16,
            ..ResilienceConfig::default()
        };
        let run = run_resilient_full(&ft, &mut m, &p, &plan, 1, &rcfg);
        assert!(run.result.is_err());
        assert_eq!(run.rows_total, 64);
        assert!(
            run.rows_verified > 0 && run.rows_verified < 64,
            "corruption in a later span should leave earlier checkpoints verified \
             (got {} rows)",
            run.rows_verified
        );
    }

    /// The download-and-loop capture the in-place sweeps replaced: three
    /// dense copies, then scalar f64 chains.  `(rows, columns)`.
    fn capture_by_download(m: &mut Machine, p: &GemmProblem) -> (Sums, Sums) {
        let (mm, nn, kk) = (p.m(), p.n(), p.k());
        let a = p.a.download(m).unwrap();
        let b = p.b.download(m).unwrap();
        let c0 = p.c.download(m).unwrap();
        let (mut b_rowsum, mut b_rowsum_abs) = (vec![0.0f64; kk], vec![0.0f64; kk]);
        for k in 0..kk {
            for j in 0..nn {
                b_rowsum[k] += b[k * nn + j] as f64;
                b_rowsum_abs[k] += (b[k * nn + j] as f64).abs();
            }
        }
        let (mut a_colsum, mut a_colsum_abs) = (vec![0.0f64; kk], vec![0.0f64; kk]);
        for i in 0..mm {
            for k in 0..kk {
                a_colsum[k] += a[i * kk + k] as f64;
                a_colsum_abs[k] += (a[i * kk + k] as f64).abs();
            }
        }
        let (mut row, mut col) = (zeros(mm), zeros(nn));
        for i in 0..mm {
            let (mut s, mut mass) = (0.0f64, 0.0f64);
            for j in 0..nn {
                s += c0[i * nn + j] as f64;
                mass += (c0[i * nn + j] as f64).abs();
            }
            for k in 0..kk {
                s += a[i * kk + k] as f64 * b_rowsum[k];
                mass += (a[i * kk + k] as f64).abs() * b_rowsum_abs[k];
            }
            (row[0][i], row[1][i]) = (s, mass);
        }
        for j in 0..nn {
            let (mut s, mut mass) = (0.0f64, 0.0f64);
            for i in 0..mm {
                s += c0[i * nn + j] as f64;
                mass += (c0[i * nn + j] as f64).abs();
            }
            for k in 0..kk {
                s += a_colsum[k] * b[k * nn + j] as f64;
                mass += a_colsum_abs[k] * (b[k * nn + j] as f64).abs();
            }
            (col[0][j], col[1][j]) = (s, mass);
        }
        (row, col)
    }

    /// The download-and-loop verdict on rows `[r0, r1)`, then (when
    /// `cols`) on every column, against the reference sums.
    fn verdict_by_download(
        m: &mut Machine,
        p: &GemmProblem,
        (row, col): &(Sums, Sums),
        (r0, r1): (usize, usize),
        cols: bool,
    ) -> Option<(usize, usize)> {
        let nn = p.n();
        let c = p.c.view(r0, 0, r1 - r0, nn).download(m).unwrap();
        let off = |s: f64, e: f64, mass: f64| {
            !s.is_finite() || (s - e).abs() > 1e-6 * (1.0 + e.abs() + mass)
        };
        let bad: Vec<usize> = (r0..r1)
            .filter(|&i| {
                let s = c[(i - r0) * nn..][..nn].iter().map(|&v| v as f64).sum();
                off(s, row[0][i], row[1][i])
            })
            .collect();
        if let (Some(&b0), Some(&b1)) = (bad.first(), bad.last()) {
            return Some((b0, b1 + 1));
        }
        let bad_col = (0..nn).any(|j| {
            let s = (0..r1 - r0).map(|i| c[i * nn + j] as f64).sum();
            off(s, col[0][j], col[1][j])
        });
        (cols && bad_col).then_some((r0, r1))
    }

    /// A problem whose operands are views at `(2, 3)` into larger
    /// matrices (`ld > cols`, non-zero offset) when `strided`, with NaN in
    /// every word of the backing that is not the view's.
    fn layout_problem(
        m: &mut Machine,
        (mm, nn, kk): (usize, usize, usize),
        strided: bool,
    ) -> GemmProblem {
        let operand = |m: &mut Machine, rows: usize, cols: usize, seed: u32| {
            let pad = if strided { (3, 5) } else { (0, 0) };
            let full = DdrMatrix::alloc(m, rows + pad.0, cols + pad.1).unwrap();
            full.upload(m, &vec![f32::NAN; full.rows * full.cols])
                .unwrap();
            let v = full.view(pad.0.min(2), pad.1.min(3), rows, cols);
            v.upload(m, &reference::fill_matrix(rows * cols, seed))
                .unwrap();
            v
        };
        GemmProblem {
            a: operand(m, mm, kk, 11),
            b: operand(m, kk, nn, 12),
            c: operand(m, mm, nn, 13),
        }
    }

    /// Shapes with M, K and N tails off every block and lane size, down
    /// to 1×1×1, K = 1 and N = 1.
    const LAYOUT_SHAPES: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (6, 5, 1),
        (7, 1, 13),
        (13, 9, 17),
        (37, 24, 48),
        (64, 17, 33),
        (5, 96, 130),
        (19, 31, 7),
    ];

    #[test]
    fn in_place_capture_matches_the_download_capture() {
        for &shape in &LAYOUT_SHAPES {
            for strided in [false, true] {
                let mut m = Machine::with_mode(ExecMode::Compiled);
                let p = layout_problem(&mut m, shape, strided);
                let got = AbftRef::capture(&mut m, &p).unwrap();
                let (row, col) = capture_by_download(&mut m, &p);
                assert_eq!(got.c0, p.c.download(&mut m).unwrap());
                // Columns add in the same order as before: the same bits.
                assert_eq!(got.col, col, "{shape:?} strided={strided}");
                let pairs = |s: &Sums| s[0].iter().zip(&s[1]).map(|(&e, &m)| [e, m]).collect();
                let (got_rows, want_rows): (Vec<[f64; 2]>, Vec<_>) = (pairs(&got.row), pairs(&row));
                for (i, (g, w)) in got_rows.iter().zip(&want_rows).enumerate() {
                    assert!(
                        (0..2).all(|s| (g[s] - w[s]).abs() <= 1e-12 * w[1]),
                        "{shape:?} strided={strided} row {i}: {g:?} vs {w:?}"
                    );
                }
                assert_eq!(got_rows.len(), shape.0);
            }
        }
    }

    #[test]
    fn in_place_verdicts_match_the_download_verdicts() {
        let ft = FtImm::new(HwConfig::default());
        let tol = ResilienceConfig::default().abft_tol;
        let mut rng = 0x5EEDu64;
        for &(mm, nn, kk) in &LAYOUT_SHAPES {
            for strided in [false, true] {
                let mut m = Machine::with_mode(ExecMode::Compiled);
                let p = layout_problem(&mut m, (mm, nn, kk), strided);
                let abft = AbftRef::capture(&mut m, &p).unwrap();
                let want = capture_by_download(&mut m, &p);
                let plan = ft.plan(&crate::GemmShape::new(mm, nn, kk), Strategy::Auto, 4);
                ft.run_plan(&mut m, &p, &plan, 4).unwrap();
                let case = format!("{mm}x{nn}x{kk} strided={strided}");
                let whole = (0, mm);
                assert_eq!(
                    abft.verify(&mut m, &p, tol, whole, true).unwrap(),
                    None,
                    "{case}"
                );
                assert_eq!(verdict_by_download(&mut m, &p, &want, (0, mm), true), None);
                for (r0, r1) in (RowGrid { unit: 1, round: 8 }).spans(mm, 8) {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let word = (rng >> 33) as usize % ((r1 - r0) * nn);
                    let at = p.c.elem_off(r0 + word / nn, word % nn);
                    m.ddr.flip_f32_msb(at).unwrap();
                    let got = abft.verify(&mut m, &p, tol, (r0, r1), false).unwrap();
                    let span_want = verdict_by_download(&mut m, &p, &want, (r0, r1), false);
                    assert_eq!(got, span_want, "{case} span {r0}..{r1}");
                    assert!(
                        got.is_some(),
                        "{case}: a flip in span {r0}..{r1} went unseen"
                    );
                    let full = abft.verify(&mut m, &p, tol, whole, true).unwrap();
                    assert_eq!(full, verdict_by_download(&mut m, &p, &want, (0, mm), true));
                    m.ddr.flip_f32_msb(at).unwrap();
                }
            }
        }
    }
}
