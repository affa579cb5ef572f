//! One DSP core: scratchpads, register files and its two clocks.

use crate::{CoreStats, HwConfig, MemRegion};
use ftimm_isa::{NUM_SREGS, NUM_VREGS, VECTOR_LANES};

/// Architectural state and timing of one DSP core.
#[derive(Debug, Clone)]
pub struct Core {
    /// Core index within the cluster.
    pub id: usize,
    /// 64 KB scalar memory.
    pub sm: MemRegion,
    /// 768 KB array memory.
    pub am: MemRegion,
    /// Scalar register file (64 × 64-bit).
    pub sregs: [u64; NUM_SREGS],
    /// Vector register file (64 × 32 f32): empty until the interpreter
    /// first runs a program on this core ([`Core::vregs_mut`]), since
    /// nothing else reads it — a timing or compiled run allocates none.
    pub vregs: Vec<[f32; VECTOR_LANES]>,
    /// The core's compute clock, seconds of simulated time.
    pub t_compute: f64,
    /// Time at which this core's DMA engine becomes free.
    pub t_dma_free: f64,
    /// Accumulated counters.
    pub stats: CoreStats,
}

impl Core {
    /// A fresh core with zeroed state.
    pub fn new(id: usize, cfg: &HwConfig) -> Self {
        Core {
            id,
            sm: MemRegion::new("SM", cfg.sm_bytes as u64),
            am: MemRegion::new("AM", cfg.am_bytes as u64),
            sregs: [0; NUM_SREGS],
            vregs: Vec::new(),
            t_compute: 0.0,
            t_dma_free: 0.0,
            stats: CoreStats::default(),
        }
    }

    /// The vector register file, zeroed on first use.
    pub fn vregs_mut(&mut self) -> &mut [[f32; VECTOR_LANES]] {
        if self.vregs.is_empty() {
            self.vregs = vec![[0.0; VECTOR_LANES]; NUM_VREGS];
        }
        &mut self.vregs
    }

    /// Reset clocks and counters (scratchpad contents are kept).
    pub fn reset_timing(&mut self) {
        self.t_compute = 0.0;
        self.t_dma_free = 0.0;
        self.stats = CoreStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_core_matches_config() {
        let cfg = HwConfig::default();
        let mut c = Core::new(3, &cfg);
        assert_eq!(c.id, 3);
        assert_eq!(c.sm.capacity(), 64 * 1024);
        assert_eq!(c.am.capacity(), 768 * 1024);
        assert!(c.vregs.is_empty(), "no register file until a program runs");
        assert_eq!(c.t_compute, 0.0);
        assert_eq!(c.vregs_mut().len(), 64);
        assert!(c.vregs.iter().flatten().all(|&x| x == 0.0));
    }

    #[test]
    fn reset_timing_preserves_memory() {
        let cfg = HwConfig::default();
        let mut c = Core::new(0, &cfg);
        c.am.write_f32(0, 5.0).unwrap();
        c.t_compute = 1.0;
        c.stats.flops = 10;
        c.reset_timing();
        assert_eq!(c.t_compute, 0.0);
        assert_eq!(c.stats.flops, 0);
        assert_eq!(c.am.read_f32(0).unwrap(), 5.0);
    }
}
