//! TGEMM — the traditional regular-shaped GEMM implementation for
//! multi-core DSPs (Algorithm 1 of the paper, after [Ma et al., Liu &
//! Tian]): fixed block sizes, a single fixed micro-kernel padded to
//! `n_a = 96`, and N-dimension multi-core parallelisation.
//!
//! This is the baseline ftIMM is compared against in Figs 4–5.
//!
//! Which panels, in which order, on which core is [`crate::walk::Walk`]'s
//! business (shared with the host mirror); this module owns what is
//! DSP-specific: the AM/SM/GSM layout, the DMA paths and the prefetches.

use crate::walk::{panel_rows, ping_pong, Group, Replay, Walk};
use crate::{ChosenStrategy, FtimmError, GemmProblem};
use dspsim::{Dma2d, DmaPath, Machine, RunReport};
use kernelgen::KernelExecutor;

/// TGEMM's fixed blocking (Algorithm 1, line 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TgemmParams {
    /// Rows of the `A_g` panel cached in GSM.
    pub m_g: usize,
    /// Depth of the `A_g` panel.
    pub k_g: usize,
    /// Fixed micro-kernel width (always padded to this).
    pub n_a: usize,
    /// Micro-kernel height.
    pub m_s: usize,
}

impl Default for TgemmParams {
    fn default() -> Self {
        TgemmParams {
            m_g: 512,
            k_g: 512,
            n_a: 96,
            m_s: 6,
        }
    }
}

/// Run `C += A × B` with TGEMM's fixed blocking
/// ([`TgemmParams::default`]) on `cores` live DSP cores (clamped by
/// [`crate::exec::run_resolved`]).
pub(crate) fn run_tgemm(
    m: &mut Machine,
    ex: &KernelExecutor,
    p: &GemmProblem,
    cores: usize,
) -> Result<RunReport, FtimmError> {
    // Groups are A_g panels; tasks are their n_a column chunks, dealt
    // round-robin over cores (Algorithm 1 line 5: the parallel loop over
    // t), each with the group's whole K range as its one K step.
    let walk = Walk::new(&ChosenStrategy::TGemm, p.m(), p.n(), p.k(), cores);
    m.set_active_streams(walk.active());
    let core_ids: Vec<usize> = (0..cores).collect();
    // GSM: double-buffered A_g (m_g × k_g); AM: C_a (m_g × 96) +
    // double-buffered B_a (k_g × 96); SM: double-buffered A_s (m_s × k_g).
    let lay = walk.layout();
    // Each group is a synchronisation window.
    let mut replay = Replay::new(m, p, cores);

    let dma_ag = |m: &mut Machine, g: &Group, ping: usize| {
        m.dma(
            0,
            DmaPath::DdrToGsm,
            &Dma2d::block_f32(
                g.m.len() as u64,
                g.k.len() as u64,
                p.a.elem_index(g.m.start, g.k.start),
                p.a.ld as u64,
                lay.g[ping] / 4,
                g.k.len() as u64,
            ),
        )
    };
    // All cores wait for this A_g panel, then core 0's engine prefetches
    // the next one while everyone computes.
    let ag_arrive = |m: &mut Machine, ticket| {
        m.barrier(&core_ids);
        for &c in &core_ids {
            m.wait(c, ticket);
        }
    };
    ping_pong(m, walk.groups(), dma_ag, ag_arrive, |m, g, ping| {
        replay.open(m, &walk, &g, walk.tasks(&g));
        for t in walk.tasks(&g).filter(|t| replay.steps(t.core)) {
            let (c_ddr, c_ld, ld) = (p.c.elem_index(t.r0, t.c0), p.c.ld as u64, t.ld as u64);
            // One K step per task (the group's whole K range), so the C
            // panel round-trips through DDR around it.
            for ks in walk.k_steps(&g, &t) {
                // B_a: only the real columns are transferred, but the
                // panel is stored (and computed) at the fixed width 96 —
                // TGEMM's implicit padding.
                let tb = m.dma(
                    t.core,
                    DmaPath::DdrToAm,
                    &Dma2d::block_f32(
                        ks.len() as u64,
                        t.cols as u64,
                        p.b.elem_index(ks.start, t.c0),
                        p.b.ld as u64,
                        lay.b_a[ping] / 4,
                        ld,
                    ),
                )?;
                let c_panel = |src: u64, src_ld: u64, dst: u64, dst_ld: u64| {
                    Dma2d::block_f32(t.rows as u64, t.cols as u64, src, src_ld, dst, dst_ld)
                };
                let tc = m.dma(
                    t.core,
                    DmaPath::DdrToAm,
                    &c_panel(c_ddr, c_ld, lay.c_a / 4, ld),
                )?;
                m.wait(t.core, tb);
                m.wait(t.core, tc);

                // Inner loop over m_s rows of A_g, ping-ponged through SM
                // into TGEMM's single micro-kernel: always n_a = 96 wide.
                let a_g = lay.g[ping] / 4;
                panel_rows(
                    m,
                    ex,
                    &walk,
                    &t,
                    &ks,
                    DmaPath::GsmToSm,
                    |u| (a_g + (u * ks.len()) as u64, ks.len() as u64),
                    lay.b_a[ping],
                )?;
                // Write C back (only the real columns).
                let ts = m.dma(
                    t.core,
                    DmaPath::AmToDdr,
                    &c_panel(lay.c_a / 4, ld, c_ddr, c_ld),
                )?;
                m.wait(t.core, ts);
            }
        }
        replay.close(m);
        Ok(())
    })?;
    m.barrier(&core_ids);
    Ok(m.report(p.flops(), &core_ids))
}
