//! Assembling complete micro-kernel programs from the steady-state
//! schedule: C-panel prologue, software-pipelined `kk` phase, depth
//! remainder, accumulator reduction and C store, per `mm` block.

use crate::modsched::{IterOp, ScheduleMemo, SlotOp, SteadySchedule};
use crate::{tiling, GenError, KernelLayout, KernelSpec, LineScheduler, RegMap, Tiling};
use dspsim::HwConfig;
use ftimm_isa::{
    AddrExpr, BufId, Bundle, Instruction, LoopLevel, MemSpace, Program, Section, NUM_SREGS,
    NUM_VREGS,
};

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
/// [`build`] can only add to it: scheduling never lowers an II, and the
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
#[derive(Debug, Clone)]
pub struct MicroKernel {
    /// The shape it computes.
    pub spec: KernelSpec,
    /// Scratchpad footprint.
    pub layout: KernelLayout,
    /// Block structure (main group, plus a remainder group if
    /// `m_s mod m_u ≠ 0`).
    pub blocks: Vec<BlockPlan>,
    /// The VLIW program.
    pub program: Program,
    /// Total cycles of one invocation (loops expanded — identical to what
    /// the interpreter executes).
    pub cycles: u64,
    /// Total flops of one invocation, padding lanes included
    /// (`program.flops()`, counted once at build time).
    pub flops: u64,
    /// Theoretical upper-bound efficiency for this `n_a` (§IV-A3).
    pub upper_bound: f64,
}

impl MicroKernel {
    /// Generate the best kernel for a spec: the fewest total cycles over
    /// the first [`SEARCH_WIDTH`] feasible tilings (earliest wins ties).
    ///
    /// A candidate is built only if it can still win.  Every build spends
    /// at least [`steady_cycles_lower_bound`] cycles, and a candidate
    /// replaces the incumbent only when strictly faster, so skipping one
    /// whose bound already reaches the incumbent's cycles returns exactly
    /// the kernel the exhaustive search returns.
    pub fn generate(spec: KernelSpec, cfg: &HwConfig) -> Result<MicroKernel, GenError> {
        Self::generate_with(spec, cfg, &ScheduleMemo::default())
    }

    /// [`MicroKernel::generate`] drawing steady-state schedules from a
    /// memo shared between kernels (which must all be for `cfg`).
    pub(crate) fn generate_with(
        spec: KernelSpec,
        cfg: &HwConfig,
        schedules: &ScheduleMemo,
    ) -> Result<MicroKernel, GenError> {
        let cands = tiling::candidates(&spec, cfg)?;
        let mut best: Option<MicroKernel> = None;
        // The candidate list is sorted by steady-state quality; the first
        // handful is enough to find the cycle-optimal one.
        for t in cands.into_iter().take(SEARCH_WIDTH) {
            let bound = steady_cycles_lower_bound(&spec, &t, cfg);
            if best.as_ref().is_some_and(|b| bound >= b.cycles) {
                continue;
            }
            let k = build_with(spec, t, cfg, schedules)?;
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
        Self::generate_forced_with(spec, m_u, k_u, cfg, &ScheduleMemo::default())
    }

    /// [`MicroKernel::generate_forced`] over a shared schedule memo.
    pub(crate) fn generate_forced_with(
        spec: KernelSpec,
        m_u: usize,
        k_u: usize,
        cfg: &HwConfig,
        schedules: &ScheduleMemo,
    ) -> Result<MicroKernel, GenError> {
        spec.validate()?;
        if m_u == 0 || m_u > spec.m_s {
            return Err(GenError::BadForcedTiling {
                detail: format!("m_u = {m_u} outside 1..={}", spec.m_s),
            });
        }
        if !(k_u == 1 || k_u == 2 || k_u == 4) || k_u > spec.k_a {
            return Err(GenError::BadForcedTiling {
                detail: format!("k_u = {k_u} unsupported for k_a = {}", spec.k_a),
            });
        }
        let v_n = spec.v_n();
        let ii = Tiling::ii_lower_bound(m_u, k_u, v_n, cfg);
        let t = Tiling { m_u, k_u, v_n, ii };
        if !t.fits_registers() {
            return Err(GenError::BadForcedTiling {
                detail: format!("tiling {t:?} exceeds the register files"),
            });
        }
        build_with(spec, t, cfg, schedules)
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

/// Residual latencies of all registers at the end of the `kk` phase
/// (cycle 0 of the following section = end of the drain half).
fn kk_residuals(
    sched: &SteadySchedule,
    emitter: &Emitter,
    k_iters: usize,
    cfg: &HwConfig,
) -> ([u64; NUM_SREGS], [u64; NUM_VREGS]) {
    let ii = sched.tiling.ii as u64;
    let total = (k_iters as u64 + 1) * ii;
    let mut res_s = [0u64; NUM_SREGS];
    let mut res_v = [0u64; NUM_VREGS];
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
                for rdef in &inst.sdefs {
                    res_s[rdef.index()] = res_s[rdef.index()].max(residual);
                }
                for rdef in &inst.vdefs {
                    res_v[rdef.index()] = res_v[rdef.index()].max(residual);
                }
            }
        }
    }
    (res_s, res_v)
}

/// Build the complete program for a spec and main-group tiling.
pub fn build(spec: KernelSpec, t: Tiling, cfg: &HwConfig) -> Result<MicroKernel, GenError> {
    build_with(spec, t, cfg, &ScheduleMemo::default())
}

fn build_with(
    spec: KernelSpec,
    t: Tiling,
    cfg: &HwConfig,
    schedules: &ScheduleMemo,
) -> Result<MicroKernel, GenError> {
    let mut program = Program::new(spec.to_string());
    let mut blocks = Vec::new();

    let n_main = spec.m_s / t.m_u;
    let m_rem = spec.m_s % t.m_u;
    if n_main > 0 {
        let (section, plan) = build_group(spec, t, 0, n_main as u64, cfg, schedules)?;
        program.sections.push(section);
        blocks.push(plan);
    }
    if m_rem > 0 {
        // The remainder rows get their own (smaller) schedule.
        let ii = Tiling::ii_lower_bound(m_rem, t.k_u, t.v_n, cfg);
        let rt = Tiling {
            m_u: m_rem,
            k_u: t.k_u,
            v_n: t.v_n,
            ii,
        };
        let (section, plan) = build_group(spec, rt, n_main * t.m_u, 1, cfg, schedules)?;
        program.sections.push(section);
        blocks.push(plan);
    }

    let cycles = program.cycles();
    let flops = program.flops();
    Ok(MicroKernel {
        spec,
        layout: KernelLayout::for_spec(&spec),
        blocks,
        program,
        cycles,
        flops,
        upper_bound: tiling::upper_bound_efficiency(spec.n_a),
    })
}

/// Build one block group: a level-0 loop over `trips` blocks of `m_u` rows.
fn build_group(
    spec: KernelSpec,
    t: Tiling,
    mm_base: usize,
    trips: u64,
    cfg: &HwConfig,
    schedules: &ScheduleMemo,
) -> Result<(Section, BlockPlan), GenError> {
    let sched = schedules.get(t, cfg)?;
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
    let (res_s, res_v) = kk_residuals(&sched, &emitter, k_iters, cfg);
    let mut epi = LineScheduler::new(cfg, &res_s, &res_v);
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
