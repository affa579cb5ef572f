//! ftIMM's K-dimension parallelisation (Algorithm 5): cores split the K
//! dimension, each accumulates a private partial `C_a` in AM, and partial
//! results are reduced through the GSM-cached `C_g` panel.  Suited to
//! shapes where both M and N are small but K is large (type 2), at the
//! price of a multi-core reduction.
//!
//! Which panels, in which order, on which core is [`crate::walk::Walk`]'s
//! business (shared with the host mirror); this module owns what is
//! DSP-specific: the AM/SM/GSM layout, the DMA paths and prefetches, the
//! barriers and what the reduction costs on the clock.

use crate::walk::{panel_rows, ping_pong, Replay, Walk};
use crate::{ChosenStrategy, FtimmError, GemmProblem};
use dspsim::{transfer_time, Dma2d, DmaPath, Machine, Phase, RunReport};
use kernelgen::KernelExecutor;
use std::ops::Range;

/// Block sizes for the K-parallel strategy (§IV-C, Eq. 3–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KparBlocks {
    /// Rows of the GSM-cached `C_g` panel.
    pub m_g: usize,
    /// Columns of the `C_g` panel.
    pub n_g: usize,
    /// Rows of each core's private `C_a` accumulator in AM.
    pub m_a: usize,
    /// Micro-kernel width.
    pub n_a: usize,
    /// K-slice length per DMA (`B_a` rows in AM).
    pub k_a: usize,
    /// Micro-kernel height.
    pub m_s: usize,
}

/// Run `C += A × B` with the K-dimension strategy on `cores` live cores
/// (clamped by [`crate::exec::run_resolved`]).
pub(crate) fn run_kpar(
    m: &mut Machine,
    ex: &KernelExecutor,
    p: &GemmProblem,
    bl: &KparBlocks,
    cores: usize,
) -> Result<RunReport, FtimmError> {
    // Groups are C_g panels; each (m_a, n_a) panel of one is a run of
    // `active` tasks, one per core, over that core's round-robin share of
    // the k_a slices (Algorithm 5 line 7).
    let walk = Walk::new(&ChosenStrategy::KPar(*bl), p.m(), p.n(), p.k(), cores);
    let active = walk.active();
    m.set_active_streams(active);
    let core_ids: Vec<usize> = (0..cores).collect();
    // AM: private C_a + double-buffered B_a; SM: double-buffered A_s;
    // GSM: one C_g.
    let lay = walk.layout();
    let mut replay = Replay::new(m, p, cores);

    for g in walk.groups() {
        let c_g = |src: u64, src_ld: u64, dst: u64, dst_ld: u64| {
            Dma2d::block_f32(g.m.len() as u64, g.n.len() as u64, src, src_ld, dst, dst_ld)
        };
        let (c_ddr, c_ld, g_ld) = (
            p.c.elem_index(g.m.start, g.n.start),
            p.c.ld as u64,
            g.n.len() as u64,
        );
        // Load the C_g panel into GSM (Algorithm 5 line 3).
        let tcg = m.dma(0, DmaPath::DdrToGsm, &c_g(c_ddr, c_ld, lay.g[0] / 4, g_ld))?;
        m.barrier(&core_ids);
        for &c in &core_ids {
            m.wait(c, tcg);
        }

        // Each run is a synchronisation window, closed by its reduction.
        let mut tasks = walk.tasks(&g);
        while let Some(panel) = tasks.clone().next() {
            let run = tasks.clone().take(active);
            tasks.nth(active - 1);
            replay.open(m, &walk, &g, run.clone());
            for t in run.filter(|t| replay.steps(t.core)) {
                let ld = t.ld as u64;
                // The core zero-initialises its private C_a (Algorithm 5
                // line 6) and processes its K slices.
                if m.mode.is_functional() {
                    m.core_mut(t.core)
                        .am
                        .zero(lay.c_a, t.rows as u64 * ld * 4)?;
                }
                // Zeroing cost: two vector-store units, one vector (32
                // f32) each per cycle.
                let zero_cycles = (t.rows as u64 * ld / 32).div_ceil(2);
                m.compute(t.core, zero_cycles);

                let dma_ba = |m: &mut Machine, ks: &Range<usize>, bping: usize| {
                    m.dma(
                        t.core,
                        DmaPath::DdrToAm,
                        &Dma2d::block_f32(
                            ks.len() as u64,
                            t.cols as u64,
                            p.b.elem_index(ks.start, t.c0),
                            p.b.ld as u64,
                            lay.b_a[bping] / 4,
                            ld,
                        ),
                    )
                };
                ping_pong(
                    m,
                    walk.k_steps(&g, &t),
                    dma_ba,
                    |m, ticket| m.wait(t.core, ticket),
                    |m, ks, bping| {
                        panel_rows(
                            m,
                            ex,
                            &walk,
                            &t,
                            &ks,
                            DmaPath::DdrToSm,
                            |u| (p.a.elem_index(t.r0 + u, ks.start), p.a.ld as u64),
                            lay.b_a[bping],
                        )
                    },
                )?;
            }
            replay.close(m);

            // The run is complete.  Reduction: its cores serialise their
            // `C_g += C_a` adds through the GSM crossbar (Algorithm 5
            // line 12).
            m.barrier(&core_ids);
            let ld = panel.ld as u64;
            let bytes = panel.rows as u64 * panel.cols as u64 * 4;
            let red_dur = 2.0 * transfer_time(&m.cfg, DmaPath::AmToGsm, bytes, 1);
            let mut prev_end = 0.0f64;
            for &core in core_ids.iter().take(active) {
                if m.mode.is_functional() {
                    // The panel's offset from the C_g origin.
                    let in_group = (panel.r0 - g.m.start) * g.n.len() + (panel.c0 - g.n.start);
                    for r in 0..panel.rows {
                        m.gsm_accumulate_from_am(
                            core,
                            lay.c_a + r as u64 * ld * 4,
                            lay.g[0] + ((in_group + r * g.n.len()) * 4) as u64,
                            panel.cols as u64,
                        )?;
                    }
                }
                let start = m.core_time(core).max(prev_end);
                prev_end = start + red_dur;
                m.record_span(core, Phase::Reduction, start, prev_end);
                let cr = m.core_mut(core);
                cr.t_compute = prev_end;
                cr.stats.gsm_bytes += 2 * bytes;
            }
            m.barrier(&core_ids);
        }
        // Store the C_g panel back (core 0's engine).
        let ts = m.dma(0, DmaPath::GsmToDdr, &c_g(lay.g[0] / 4, g_ld, c_ddr, c_ld))?;
        m.wait(0, ts);
        m.barrier(&core_ids);
    }
    Ok(m.report(p.flops(), &core_ids))
}
