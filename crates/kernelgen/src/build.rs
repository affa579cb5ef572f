//! Pricing and assembling micro-kernels from the steady-state schedule:
//! C-panel prologue, software-pipelined `kk` phase, depth remainder,
//! accumulator reduction and C store, per `mm` block.  The search prices
//! candidates in closed form; the winner's program is assembled on first
//! use.

use crate::modsched::{IterOp, ScheduleMemo, SlotOp, SteadySchedule};
use crate::{
    tiling, CompiledKernel, GenError, KernelLayout, KernelSpec, LineScheduler, RegMap, Tiling,
};
use dspsim::HwConfig;
use ftimm_isa::{
    AddrExpr, BufId, Bundle, Instruction, LoopLevel, MemSpace, Program, Scoreboard, Section,
};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

/// Plan of one `mm` block group (a run of blocks with the same `m_u`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPlan {
    /// First A/C row of the group.
    pub mm_base: usize,
    /// Rows per block.
    pub m_u: usize,
    /// Number of blocks in the group (level-0 loop trips).
    pub trips: u64,
    /// Depth unroll.
    pub k_u: usize,
    /// Full steady-state iterations (`⌊k_a / k_u⌋`).
    pub k_iters: usize,
    /// Depth remainder handled by the straight-line tail.
    pub k_tail: usize,
    /// Achieved initiation interval.
    pub ii: u32,
}

/// How many of the ranked candidate tilings [`MicroKernel::generate`]
/// considers.
pub const SEARCH_WIDTH: usize = 8;

/// Cycles of the pipelined `kk` halves alone — `k_iters + 1` halves of
/// II bundles per block — with every II at its resource lower bound.
/// A price can only add to it: scheduling never lowers an II, and the
/// C-panel prologue and the epilogue have non-negative length.
pub fn steady_cycles_lower_bound(spec: &KernelSpec, t: &Tiling, cfg: &HwConfig) -> u64 {
    let halves = (spec.k_a / t.k_u + 1) as u64;
    let mut cycles = (spec.m_s / t.m_u) as u64 * u64::from(t.ii) * halves;
    let m_rem = spec.m_s % t.m_u;
    if m_rem > 0 {
        cycles += u64::from(Tiling::ii_lower_bound(m_rem, t.k_u, t.v_n, cfg)) * halves;
    }
    cycles
}

/// A generated micro-kernel.
///
/// Generation prices a tiling in closed form and builds no program
/// ([`MicroKernel::program`] builds it on first use): everything timing
/// mode and the host path read — `blocks`, `cycles`, `flops` — is here.
#[derive(Debug, Clone)]
pub struct MicroKernel {
    /// The shape it computes.
    pub spec: KernelSpec,
    /// Scratchpad footprint.
    pub layout: KernelLayout,
    /// Block structure (main group, plus a remainder group if
    /// `m_s mod m_u ≠ 0`).
    pub blocks: Vec<BlockPlan>,
    /// Total cycles of one invocation (loops expanded — identical to what
    /// the interpreter executes), priced in closed form: each block group
    /// costs `trips · (overhead + (k_iters + 1)·II)`.
    pub cycles: u64,
    /// Total flops of one invocation, padding lanes included
    /// (`2·m_s·na_pad·k_a`, which is `program().flops()`).
    pub flops: u64,
    /// Theoretical upper-bound efficiency for this `n_a` (§IV-A3).
    pub upper_bound: f64,
    /// The main-group tiling the program is built from.
    tiling: Tiling,
    /// The hardware and schedules the kernel was priced against.
    memo: Arc<ScheduleMemo>,
    /// The VLIW program, built on first use.
    program: OnceLock<Program>,
    /// The host lowering, built on first use.
    lowered: OnceLock<CompiledKernel>,
}

impl MicroKernel {
    /// Generate the best kernel for a spec: the fewest total cycles over
    /// the first [`SEARCH_WIDTH`] feasible tilings (earliest wins ties).
    ///
    /// A candidate is priced only if it can still win.  Every candidate
    /// costs at least [`steady_cycles_lower_bound`] cycles, and a
    /// candidate replaces the incumbent only when strictly faster, so
    /// skipping one whose bound already reaches the incumbent's cycles
    /// returns exactly the kernel the exhaustive search returns.
    pub fn generate(spec: KernelSpec, cfg: &HwConfig) -> Result<MicroKernel, GenError> {
        Self::generate_with(spec, &Arc::new(ScheduleMemo::new(cfg.clone())))
    }

    /// [`MicroKernel::generate`] drawing schedules and prices from a memo
    /// shared between kernels.
    pub(crate) fn generate_with(
        spec: KernelSpec,
        memo: &Arc<ScheduleMemo>,
    ) -> Result<MicroKernel, GenError> {
        let cfg = memo.cfg();
        let cands = tiling::candidates(&spec, cfg)?;
        let mut best: Option<MicroKernel> = None;
        // The candidate list is sorted by steady-state quality; the first
        // handful is enough to find the cycle-optimal one.
        for t in cands.into_iter().take(SEARCH_WIDTH) {
            let bound = steady_cycles_lower_bound(&spec, &t, cfg);
            if best.as_ref().is_some_and(|b| bound >= b.cycles) {
                continue;
            }
            let k = MicroKernel::priced(spec, t, memo)?;
            if best.as_ref().is_none_or(|b| k.cycles < b.cycles) {
                best = Some(k);
            }
        }
        best.ok_or(GenError::NoFeasibleTiling(spec))
    }

    /// Generate with a forced tiling (used to model TGEMM's single fixed
    /// micro-kernel).
    pub fn generate_forced(
        spec: KernelSpec,
        m_u: usize,
        k_u: usize,
        cfg: &HwConfig,
    ) -> Result<MicroKernel, GenError> {
        Self::generate_forced_with(spec, m_u, k_u, &Arc::new(ScheduleMemo::new(cfg.clone())))
    }

    /// [`MicroKernel::generate_forced`] over a shared memo.
    pub(crate) fn generate_forced_with(
        spec: KernelSpec,
        m_u: usize,
        k_u: usize,
        memo: &Arc<ScheduleMemo>,
    ) -> Result<MicroKernel, GenError> {
        spec.validate()?;
        if m_u == 0 || m_u > spec.m_s {
            return Err(GenError::BadForcedTiling {
                detail: format!("m_u = {m_u} outside 1..={}", spec.m_s),
            });
        }
        if !hostsimd::SUPPORTED_KU.contains(&k_u) || k_u > spec.k_a {
            return Err(GenError::BadForcedTiling {
                detail: format!("k_u = {k_u} unsupported for k_a = {}", spec.k_a),
            });
        }
        let v_n = spec.v_n();
        let ii = Tiling::ii_lower_bound(m_u, k_u, v_n, memo.cfg());
        let t = Tiling { m_u, k_u, v_n, ii };
        if !t.fits_registers() {
            return Err(GenError::BadForcedTiling {
                detail: format!("tiling {t:?} exceeds the register files"),
            });
        }
        MicroKernel::priced(spec, t, memo)
    }

    /// The kernel of `spec` under main-group tiling `t`, priced in closed
    /// form: one memoised [`group_price`] per block group, no program.
    fn priced(
        spec: KernelSpec,
        t: Tiling,
        memo: &Arc<ScheduleMemo>,
    ) -> Result<MicroKernel, GenError> {
        let (k_iters, k_tail) = (spec.k_a / t.k_u, spec.k_a % t.k_u);
        let mut blocks = Vec::with_capacity(2);
        let mut cycles = 0;
        for (mm_base, trips, gt) in groups(&spec, t, memo.cfg()) {
            let (overhead, ii) = group_price(gt, k_iters, k_tail, memo)?;
            cycles += trips * (overhead + (k_iters as u64 + 1) * u64::from(ii));
            blocks.push(BlockPlan {
                mm_base,
                m_u: gt.m_u,
                trips,
                k_u: gt.k_u,
                k_iters,
                k_tail,
                ii,
            });
        }
        Ok(MicroKernel {
            spec,
            layout: KernelLayout::for_spec(&spec),
            blocks,
            cycles,
            flops: 2 * (spec.m_s * spec.na_pad() * spec.k_a) as u64,
            upper_bound: tiling::upper_bound_efficiency(spec.n_a),
            tiling: t,
            memo: Arc::clone(memo),
            program: OnceLock::new(),
            lowered: OnceLock::new(),
        })
    }

    /// The VLIW program, built on first use (Interpret mode, the static
    /// verifier and the table and asm printers read it; timing mode and
    /// the host path never do).
    pub fn program(&self) -> &Program {
        self.program.get_or_init(|| {
            // Pricing built one group of every (tiling, k_tail, class)
            // this program is made of, and a group's build differs from
            // its class representative only in addresses, loop trips and
            // straight halves that are copies of the representative's, so
            // this build cannot fail where pricing succeeded (the pricing
            // proptest builds every kernel it prices).
            let (program, blocks) =
                assemble(self.spec, self.tiling, &self.memo).expect("a priced tiling builds");
            debug_assert_eq!(
                (program.cycles(), &blocks),
                (self.cycles, &self.blocks),
                "{}: priced ≠ built",
                self.spec
            );
            program
        })
    }

    /// The block plan lowered to host block loops
    /// ([`CompiledKernel::lower`], which re-verifies it), on first use; it
    /// lives, and is evicted, with the kernel.
    pub fn lowered(&self) -> Result<&CompiledKernel, GenError> {
        self.lower_once().map(|(lowered, _)| lowered)
    }

    /// [`MicroKernel::lowered`], and whether this call did the lowering.
    pub(crate) fn lower_once(&self) -> Result<(&CompiledKernel, bool), GenError> {
        if let Some(lowered) = self.lowered.get() {
            return Ok((lowered, false));
        }
        // Lowering is pure, so a racing thread's result is identical.
        let lowered = CompiledKernel::lower(self)?;
        Ok((self.lowered.get_or_init(|| lowered), true))
    }

    /// Efficiency on useful flops: `2·m·n·k / (cycles · flops-per-cycle)`.
    pub fn efficiency(&self, cfg: &HwConfig) -> f64 {
        self.spec.useful_flops() as f64
            / (self.cycles as f64 * cfg.flops_per_cycle_per_core() as f64)
    }

    /// Simulated seconds of one invocation.
    pub fn seconds(&self, cfg: &HwConfig) -> f64 {
        self.cycles as f64 * cfg.cycle_s()
    }
}

/// The block groups of `spec` under main-group tiling `t`, as
/// `(first row, trips, tiling)`: the main group of `⌊m_s / m_u⌋` blocks,
/// then the remainder rows as one block under their own (smaller) tiling;
/// either is absent when it has no rows.
fn groups(
    spec: &KernelSpec,
    t: Tiling,
    cfg: &HwConfig,
) -> impl Iterator<Item = (usize, u64, Tiling)> {
    let (n_main, m_rem) = (spec.m_s / t.m_u, spec.m_s % t.m_u);
    let ii = Tiling::ii_lower_bound(m_rem, t.k_u, t.v_n, cfg);
    let rem = Tiling {
        m_u: m_rem,
        ii,
        ..t
    };
    [(0, n_main as u64, t), (n_main * t.m_u, 1, rem)]
        .into_iter()
        .filter(|&(_, trips, g)| trips > 0 && g.m_u > 0)
}

/// The class of a group's `k_iters`, as the representative it is priced
/// at.  A group is `pro + (k_iters + 1)·II + epi` cycles: each `kk` half is
/// exactly II bundles, the C-panel prologue depends on the tiling alone,
/// and the epilogue on the tiling, `k_tail` and the drain's residual
/// latencies — which depend only on which parity last wrote each
/// register, so on whether `k_iters` is 1, even or odd.  The even and odd
/// representatives (4 and 3) run the pipelined loop once, so each kind of
/// half any member of their class emits is built when the price is.
fn k_class(k_iters: usize) -> usize {
    if k_iters == 1 {
        1
    } else {
        4 - k_iters % 2
    }
}

/// `(overhead, achieved II)` of one block of tiling `t` at depth
/// `k_iters·k_u + k_tail`: memoised per `(t, k_tail, class)`, each entry
/// computed by building the class representative's group once.
fn group_price(
    t: Tiling,
    k_iters: usize,
    k_tail: usize,
    memo: &ScheduleMemo,
) -> Result<(u64, u32), GenError> {
    let class = k_class(k_iters);
    memo.price((t, k_tail, class), || {
        let rep = KernelSpec {
            m_s: t.m_u,
            k_a: class * t.k_u + k_tail,
            n_a: t.v_n * 32,
        };
        let (section, plan) = build_group(rep, t, 0, 1, memo)?;
        let steady = (class as u64 + 1) * u64::from(plan.ii);
        Ok((section.cycles() - steady, plan.ii))
    })
}

/// Emission context for one block group.
struct Emitter {
    regs: RegMap,
    t: Tiling,
    mm_base: usize,
    k_a: usize,
    na_pad: usize,
}

/// Where a half sits, for addressing and inclusion rules.
enum HalfCtx {
    /// Straight half with absolute index `h_abs` (prologue, leftover,
    /// drain).
    Straight {
        /// Absolute half index `H`.
        h_abs: usize,
    },
    /// One of the two halves of the pipelined loop body (`h ∈ {0, 1}`;
    /// absolute index `1 + 2t + h`).
    Loop {
        /// Position within the body pair.
        h: usize,
    },
}

impl Emitter {
    fn a_addr(&self, mu: usize, k_elem: usize, in_loop: bool) -> AddrExpr {
        let off = ((self.mm_base + mu) * self.k_a + k_elem) as u64 * 4;
        let mut a = AddrExpr::flat(MemSpace::Sm, BufId::A, off)
            .with_stride(0, (self.t.m_u * self.k_a) as u64 * 4);
        if in_loop {
            a = a.with_stride(1, (2 * self.t.k_u) as u64 * 4);
        }
        a
    }

    fn b_addr(&self, k_elem: usize, nn: usize, in_loop: bool) -> AddrExpr {
        let off = (k_elem * self.na_pad + nn * 32) as u64 * 4;
        let mut a = AddrExpr::flat(MemSpace::Am, BufId::B, off);
        if in_loop {
            a = a.with_stride(1, (2 * self.t.k_u * self.na_pad) as u64 * 4);
        }
        a
    }

    fn c_addr(&self, mu: usize, nn: usize) -> AddrExpr {
        let off = ((self.mm_base + mu) * self.na_pad + nn * 32) as u64 * 4;
        AddrExpr::flat(MemSpace::Am, BufId::C, off)
            .with_stride(0, (self.t.m_u * self.na_pad) as u64 * 4)
    }

    /// Materialise one scheduled op for a given half.  Returns `None` when
    /// the op is excluded (outside the iteration range, or a branch in a
    /// straight half).
    fn materialise(
        &self,
        op: &SlotOp,
        ctx: &HalfCtx,
        k_iters: usize,
    ) -> Result<Option<Instruction>, GenError> {
        let ii = self.t.ii;
        let sigma = (op.s / ii) as usize;
        let (j_const, in_loop) = match *ctx {
            HalfCtx::Straight { h_abs } => {
                if h_abs < sigma || h_abs - sigma > k_iters - 1 {
                    return Ok(None);
                }
                (h_abs - sigma, false)
            }
            HalfCtx::Loop { h } => {
                // Iteration j = 1 + 2t + h − σ; constant part below, the
                // `2·k_u` level-1 stride is added by the address helpers.
                ((1 + h).wrapping_sub(sigma), true)
            }
        };
        if matches!(op.op, IterOp::Branch) {
            return Ok(if in_loop {
                Some(Instruction::sbr())
            } else {
                None
            });
        }
        let parity = (j_const + 2) % 2; // j_const may be 0 or 1 here
        let k_base = j_const * self.t.k_u;
        let r = &self.regs;
        let inst = match op.op {
            IterOp::LoadAPair { mu, pair } => Instruction::sldw(
                r.a_ld(parity, mu, pair),
                self.a_addr(mu, k_base + 2 * pair, in_loop),
            ),
            IterOp::LoadAOne { mu } => {
                Instruction::sldh(r.a_ld1(parity, mu), self.a_addr(mu, k_base, in_loop))
            }
            IterOp::ExtLo { mu, pair } => {
                Instruction::sfexts32l(r.a_lo(parity, mu, pair), r.a_ld(parity, mu, pair))
            }
            IterOp::ExtHi { mu, pair } => {
                Instruction::sbale2h(r.a_hi(parity, mu, pair), r.a_ld(parity, mu, pair))
            }
            IterOp::ExtOne { mu } => {
                Instruction::sfexts32l(r.a_ext1(parity, mu), r.a_ld1(parity, mu))
            }
            IterOp::Bcast2 { mu, pair } => Instruction::svbcast2(
                r.va(parity, mu, 2 * pair),
                r.a_lo(parity, mu, pair),
                r.va(parity, mu, 2 * pair + 1),
                r.a_hi(parity, mu, pair),
            ),
            IterOp::Bcast1 { mu } => {
                Instruction::svbcast(r.va(parity, mu, 0), r.a_ext1(parity, mu))
            }
            IterOp::LoadB { ku, nn, pair } => {
                let addr = self.b_addr(k_base + ku, nn, in_loop);
                if pair {
                    Instruction::vlddw(r.vb(parity, ku, nn), addr)?
                } else {
                    Instruction::vldw(r.vb(parity, ku, nn), addr)
                }
            }
            IterOp::Fmac { mu, ku, nn } => Instruction::vfmulas32(
                r.acc(ku, mu, nn),
                r.va(parity, mu, ku),
                r.vb(parity, ku, nn),
            ),
            IterOp::Branch => unreachable!("handled above"),
        };
        Ok(Some(inst))
    }

    /// Emit the II bundles of one half.
    fn half(
        &self,
        sched: &SteadySchedule,
        ctx: HalfCtx,
        k_iters: usize,
    ) -> Result<Vec<Bundle>, GenError> {
        let ii = self.t.ii;
        let mut bundles = vec![Bundle::new(); ii as usize];
        for op in &sched.ops {
            if let Some(inst) = self.materialise(op, &ctx, k_iters)? {
                bundles[(op.s % ii) as usize].push(op.unit, inst)?;
            }
        }
        Ok(bundles)
    }
}

/// The `kk` phase's writes still in flight at its end (cycle 0 of the
/// following section = end of the drain half).
fn kk_residuals(
    sched: &SteadySchedule,
    emitter: &Emitter,
    k_iters: usize,
    cfg: &HwConfig,
) -> Scoreboard {
    let ii = sched.tiling.ii as u64;
    let total = (k_iters as u64 + 1) * ii;
    let mut pending = Scoreboard::new(cfg.latencies);
    for op in &sched.ops {
        if matches!(op.op, IterOp::Branch) {
            continue;
        }
        for parity in 0..2usize {
            // Last iteration with this parity.
            let last = k_iters - 1;
            let j = if last % 2 == parity {
                last as i64
            } else {
                last as i64 - 1
            };
            if j < 0 {
                continue;
            }
            // Accumulators are parity-independent: their last write is at
            // the last iteration regardless; emitting with either parity
            // yields the same acc registers, so the max below is correct.
            let ctx = HalfCtx::Straight {
                h_abs: j as usize + (op.s / sched.tiling.ii) as usize,
            };
            if let Ok(Some(inst)) = emitter.materialise(op, &ctx, k_iters) {
                let issue = j as u64 * ii + op.s as u64;
                let lat = cfg.latencies.of(inst.opcode) as u64;
                let residual = (issue + lat).saturating_sub(total);
                for rdef in inst.writes() {
                    pending.hold(rdef, residual);
                }
            }
        }
    }
    pending
}

/// Build `spec` under main-group tiling `t` now, with fresh memos: the
/// reference the priced, pruned search is tested against.  Its block plan
/// and program come from the builder; `cycles` and `flops` are priced as
/// everywhere, and a build measures them as `program().cycles()` and
/// `program().flops()`.
pub fn build(spec: KernelSpec, t: Tiling, cfg: &HwConfig) -> Result<MicroKernel, GenError> {
    let memo = Arc::new(ScheduleMemo::new(cfg.clone()));
    let (program, blocks) = assemble(spec, t, &memo)?;
    Ok(MicroKernel {
        blocks,
        program: OnceLock::from(program),
        ..MicroKernel::priced(spec, t, &memo)?
    })
}

/// Build the complete program for a spec and main-group tiling, with the
/// block plan the builder followed.
fn assemble(
    spec: KernelSpec,
    t: Tiling,
    memo: &ScheduleMemo,
) -> Result<(Program, Vec<BlockPlan>), GenError> {
    let mut program = Program::new(spec.to_string());
    let mut blocks = Vec::with_capacity(2);
    for (mm_base, trips, gt) in groups(&spec, t, memo.cfg()) {
        let (section, plan) = build_group(spec, gt, mm_base, trips, memo)?;
        program.sections.push(section);
        blocks.push(plan);
    }
    memo.programs_built.fetch_add(1, Ordering::Relaxed);
    Ok((program, blocks))
}

/// Build one block group: a level-0 loop over `trips` blocks of `m_u` rows.
fn build_group(
    spec: KernelSpec,
    t: Tiling,
    mm_base: usize,
    trips: u64,
    memo: &ScheduleMemo,
) -> Result<(Section, BlockPlan), GenError> {
    let cfg = memo.cfg();
    let sched = memo.get(t)?;
    let t = sched.tiling; // II may have grown during scheduling
    let regs = RegMap::new(&t);
    let emitter = Emitter {
        regs,
        t,
        mm_base,
        k_a: spec.k_a,
        na_pad: spec.na_pad(),
    };
    let k_iters = spec.k_a / t.k_u;
    let k_tail = spec.k_a % t.k_u;
    debug_assert!(k_iters >= 1);

    let mut body: Vec<Section> = Vec::new();

    // --- C-panel prologue: load C rows into acc[0], clear acc[ku>0]. ---
    let mut pro = LineScheduler::fresh(cfg);
    for mu in 0..t.m_u {
        let mut nn = 0;
        while nn < t.v_n {
            if nn + 1 < t.v_n {
                pro.push(Instruction::vlddw(
                    regs.acc(0, mu, nn),
                    emitter.c_addr(mu, nn),
                )?)?;
                nn += 2;
            } else {
                pro.push(Instruction::vldw(
                    regs.acc(0, mu, nn),
                    emitter.c_addr(mu, nn),
                ))?;
                nn += 1;
            }
        }
    }
    for ku in 1..t.k_u {
        for mu in 0..t.m_u {
            for nn in 0..t.v_n {
                pro.push(Instruction::vclr(regs.acc(ku, mu, nn)))?;
            }
        }
    }
    body.push(Section::Straight(pro.finish()));

    // --- Pipelined kk phase. ---
    let l_trips = (k_iters - 1) / 2;
    body.push(Section::Straight(emitter.half(
        &sched,
        HalfCtx::Straight { h_abs: 0 },
        k_iters,
    )?));
    if l_trips > 0 {
        let mut loop_bundles = emitter.half(&sched, HalfCtx::Loop { h: 0 }, k_iters)?;
        loop_bundles.extend(emitter.half(&sched, HalfCtx::Loop { h: 1 }, k_iters)?);
        body.push(Section::Loop {
            level: LoopLevel(1),
            trips: l_trips as u64,
            body: vec![Section::Straight(loop_bundles)],
        });
    }
    for h_abs in (2 * l_trips + 1)..k_iters {
        body.push(Section::Straight(emitter.half(
            &sched,
            HalfCtx::Straight { h_abs },
            k_iters,
        )?));
    }
    body.push(Section::Straight(emitter.half(
        &sched,
        HalfCtx::Straight { h_abs: k_iters },
        k_iters,
    )?));

    // --- Tail, reduction and C store. ---
    let mut epi = LineScheduler::new(kk_residuals(&sched, &emitter, k_iters, cfg));
    for rr in 0..k_tail {
        let k_row = k_iters * t.k_u + rr;
        for nn in 0..t.v_n {
            epi.push(Instruction::vldw(
                regs.vb(0, 0, nn),
                emitter.b_addr(k_row, nn, false),
            ))?;
        }
        for mu in 0..t.m_u {
            let (ld, ext, va) = if t.k_u == 1 {
                (regs.a_ld1(0, mu), regs.a_ext1(0, mu), regs.va(0, mu, 0))
            } else {
                (regs.a_ld(0, mu, 0), regs.a_lo(0, mu, 0), regs.va(0, mu, 0))
            };
            epi.push(Instruction::sldh(ld, emitter.a_addr(mu, k_row, false)))?;
            epi.push(Instruction::sfexts32l(ext, ld))?;
            epi.push(Instruction::svbcast(va, ext))?;
            for nn in 0..t.v_n {
                epi.push(Instruction::vfmulas32(
                    regs.acc(0, mu, nn),
                    va,
                    regs.vb(0, 0, nn),
                ))?;
            }
        }
    }
    for ku in 1..t.k_u {
        for mu in 0..t.m_u {
            for nn in 0..t.v_n {
                let a0 = regs.acc(0, mu, nn);
                epi.push(Instruction::vfadds32(a0, a0, regs.acc(ku, mu, nn)))?;
            }
        }
    }
    for mu in 0..t.m_u {
        let mut nn = 0;
        while nn < t.v_n {
            if nn + 1 < t.v_n {
                epi.push(Instruction::vstdw(
                    regs.acc(0, mu, nn),
                    emitter.c_addr(mu, nn),
                )?)?;
                nn += 2;
            } else {
                epi.push(Instruction::vstw(
                    regs.acc(0, mu, nn),
                    emitter.c_addr(mu, nn),
                ))?;
                nn += 1;
            }
        }
    }
    body.push(Section::Straight(epi.finish()));

    let section = Section::Loop {
        level: LoopLevel(0),
        trips,
        body,
    };
    let plan = BlockPlan {
        mm_base,
        m_u: t.m_u,
        trips,
        k_u: t.k_u,
        k_iters,
        k_tail,
        ii: t.ii,
    };
    Ok((section, plan))
}
