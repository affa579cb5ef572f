//! ftIMM's M-dimension parallelisation (Algorithm 4): cores split the M
//! dimension, the `B` panel is cached in GSM and shared by all cores, and
//! micro-kernels are generated for the *exact* `n_a` (no implicit
//! padding).  A three-level ping-pong overlaps DDR, GSM and SM/AM traffic
//! with compute.
//!
//! Which panels, in which order, on which core is [`crate::walk::Walk`]'s
//! business (shared with the host mirror); this module owns what is
//! DSP-specific: the AM/SM/GSM layout, the DMA paths and the prefetches.

use crate::walk::{panel_rows, ping_pong, Group, Replay, Walk};
use crate::{ChosenStrategy, FtimmError, GemmProblem};
use dspsim::{Dma2d, DmaPath, Machine, RunReport};
use kernelgen::KernelExecutor;
use std::ops::Range;

/// Block sizes for the M-parallel strategy (§IV-C, Eq. 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MparBlocks {
    /// Columns of the GSM-cached `B_g` panel.
    pub n_g: usize,
    /// Depth of the `B_g` panel.
    pub k_g: usize,
    /// Rows per core work chunk (C panel rows in AM).
    pub m_a: usize,
    /// Micro-kernel width.
    pub n_a: usize,
    /// Micro-kernel depth (`B_a` panel rows in AM).
    pub k_a: usize,
    /// Micro-kernel height (`A_s` panel rows in SM).
    pub m_s: usize,
}

/// Run `C += A × B` with the M-dimension strategy on `cores` live cores
/// (clamped by [`crate::exec::run_resolved`]).
pub(crate) fn run_mpar(
    m: &mut Machine,
    ex: &KernelExecutor,
    p: &GemmProblem,
    bl: &MparBlocks,
    cores: usize,
) -> Result<RunReport, FtimmError> {
    // Groups are B_g panels; tasks are (m_a row chunk, n_a column) C
    // panels, row chunks dealt round-robin over cores (Algorithm 4 line 4).
    let walk = Walk::new(&ChosenStrategy::MPar(*bl), p.m(), p.n(), p.k(), cores);
    m.set_active_streams(walk.active());
    let core_ids: Vec<usize> = (0..cores).collect();
    // AM: C_a + double-buffered B_a; SM: double-buffered A_s; GSM:
    // double-buffered B_g (k_g × n_g, dense).
    let lay = walk.layout();
    // Each group is a synchronisation window.
    let mut replay = Replay::new(m, p, cores);

    let dma_bg = |m: &mut Machine, g: &Group, ping: usize| {
        m.dma(
            0,
            DmaPath::DdrToGsm,
            &Dma2d::block_f32(
                g.k.len() as u64,
                g.n.len() as u64,
                p.b.elem_index(g.k.start, g.n.start),
                p.b.ld as u64,
                lay.g[ping] / 4,
                g.n.len() as u64,
            ),
        )
    };
    let bg_arrive = |m: &mut Machine, ticket| {
        m.barrier(&core_ids);
        for &c in &core_ids {
            m.wait(c, ticket);
        }
    };
    ping_pong(m, walk.groups(), dma_bg, bg_arrive, |m, g, ping| {
        replay.open(m, &walk, &g, walk.tasks(&g));
        for t in walk.tasks(&g).filter(|t| replay.steps(t.core)) {
            let c_panel = |src: u64, src_ld: u64, dst: u64, dst_ld: u64| {
                Dma2d::block_f32(t.rows as u64, t.cols as u64, src, src_ld, dst, dst_ld)
            };
            let (c_ddr, c_ld, ld) = (p.c.elem_index(t.r0, t.c0), p.c.ld as u64, t.ld as u64);
            // Load the C panel for accumulation (Algorithm 4 line 6).
            let tc = m.dma(
                t.core,
                DmaPath::DdrToAm,
                &c_panel(c_ddr, c_ld, lay.c_a / 4, ld),
            )?;
            m.wait(t.core, tc);

            // B_a comes out of the resident B_g ping, at the step's and
            // the task's offsets from the group's origin.
            let dma_ba = |m: &mut Machine, ks: &Range<usize>, bping: usize| {
                let in_group = (ks.start - g.k.start) * g.n.len() + (t.c0 - g.n.start);
                m.dma(
                    t.core,
                    DmaPath::GsmToAm,
                    &Dma2d::block_f32(
                        ks.len() as u64,
                        t.cols as u64,
                        lay.g[ping] / 4 + in_group as u64,
                        g.n.len() as u64,
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
                    // ftIMM: exact-shape auto-generated kernels.
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
            // Store the C panel (Algorithm 4 line 12).
            let ts = m.dma(
                t.core,
                DmaPath::AmToDdr,
                &c_panel(lay.c_a / 4, ld, c_ddr, c_ld),
            )?;
            m.wait(t.core, ts);
        }
        replay.close(m);
        Ok(())
    })?;
    m.barrier(&core_ids);
    Ok(m.report(p.flops(), &core_ids))
}
