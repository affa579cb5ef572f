//! DMA transfer descriptors, paths and timing.
//!
//! A DMA engine per core moves 2-D strided blocks between memory levels.
//! Functionally a transfer is an immediate strided copy; its *timing* is
//! `setup + bytes / effective_bandwidth`, where the effective bandwidth of
//! the shared DDR interface is split between concurrently active streams
//! (see [`crate::HwConfig::ddr_bw_per_stream`]).

use crate::HwConfig;

/// Which pair of memory levels a transfer moves between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaPath {
    /// Main memory → cluster GSM.
    DdrToGsm,
    /// Cluster GSM → main memory.
    GsmToDdr,
    /// Main memory → per-core SM.
    DdrToSm,
    /// Main memory → per-core AM.
    DdrToAm,
    /// Per-core SM → main memory.
    SmToDdr,
    /// Per-core AM → main memory.
    AmToDdr,
    /// Cluster GSM → per-core SM.
    GsmToSm,
    /// Cluster GSM → per-core AM.
    GsmToAm,
    /// Per-core AM → cluster GSM.
    AmToGsm,
}

impl DmaPath {
    /// Whether the transfer crosses the off-chip DDR interface.
    pub fn uses_ddr(self) -> bool {
        matches!(
            self,
            DmaPath::DdrToGsm
                | DmaPath::GsmToDdr
                | DmaPath::DdrToSm
                | DmaPath::DdrToAm
                | DmaPath::SmToDdr
                | DmaPath::AmToDdr
        )
    }
}

/// A 2-D strided transfer: `rows` rows of `row_bytes`, with independent
/// source and destination row strides (both in bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dma2d {
    /// Number of rows.
    pub rows: u64,
    /// Contiguous bytes per row.
    pub row_bytes: u64,
    /// Source byte offset of row 0.
    pub src_off: u64,
    /// Source stride between row starts.
    pub src_stride: u64,
    /// Destination byte offset of row 0.
    pub dst_off: u64,
    /// Destination stride between row starts.
    pub dst_stride: u64,
}

impl Dma2d {
    /// A flat 1-D transfer.
    pub fn flat(src_off: u64, dst_off: u64, bytes: u64) -> Self {
        Dma2d {
            rows: 1,
            row_bytes: bytes,
            src_off,
            src_stride: 0,
            dst_off,
            dst_stride: 0,
        }
    }

    /// A matrix-block transfer: `rows × cols` f32 elements from a row-major
    /// source with `src_ld` elements per row into a destination with
    /// `dst_ld` elements per row (offsets in elements).
    pub fn block_f32(
        rows: u64,
        cols: u64,
        src_elem_off: u64,
        src_ld: u64,
        dst_elem_off: u64,
        dst_ld: u64,
    ) -> Self {
        Dma2d {
            rows,
            row_bytes: cols * 4,
            src_off: src_elem_off * 4,
            src_stride: src_ld * 4,
            dst_off: dst_elem_off * 4,
            dst_stride: dst_ld * 4,
        }
    }

    /// Total payload bytes.
    pub fn bytes(&self) -> u64 {
        self.rows * self.row_bytes
    }
}

/// Time in seconds for a transfer of `bytes` over `path` when `streams`
/// DMA streams compete for the shared interfaces.
pub fn transfer_time(cfg: &HwConfig, path: DmaPath, bytes: u64, streams: usize) -> f64 {
    let bw = if path.uses_ddr() {
        cfg.ddr_bw_per_stream(streams)
    } else {
        cfg.gsm_bw_per_stream(streams)
    };
    cfg.dma_setup_s + bytes as f64 / bw
}

/// A handle for an in-flight (timed) DMA: completion timestamp in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaTicket {
    /// Simulated time at which the transfer completes.
    pub done_at: f64,
    /// Payload bytes (for statistics).
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_classification() {
        assert!(DmaPath::DdrToSm.uses_ddr());
        assert!(!DmaPath::GsmToAm.uses_ddr());
    }

    #[test]
    fn block_descriptor_matches_manual_layout() {
        // 6×96 f32 block from a 128-wide source into a dense destination.
        let d = Dma2d::block_f32(6, 96, 1000, 128, 0, 96);
        assert_eq!(d.rows, 6);
        assert_eq!(d.row_bytes, 384);
        assert_eq!(d.src_off, 4000);
        assert_eq!(d.src_stride, 512);
        assert_eq!(d.dst_stride, 384);
        assert_eq!(d.bytes(), 6 * 96 * 4);
    }

    #[test]
    fn timing_scales_with_bytes_and_streams() {
        let cfg = HwConfig::default();
        let t1 = transfer_time(&cfg, DmaPath::DdrToAm, 1 << 20, 1);
        let t2 = transfer_time(&cfg, DmaPath::DdrToAm, 2 << 20, 1);
        let t8 = transfer_time(&cfg, DmaPath::DdrToAm, 1 << 20, 8);
        assert!(t2 > t1);
        assert!(t8 > t1, "contention slows streams down");
        // Setup-dominated region: tiny transfers cost at least the setup.
        let tiny = transfer_time(&cfg, DmaPath::DdrToAm, 4, 1);
        assert!(tiny >= cfg.dma_setup_s);
    }

    #[test]
    fn on_chip_paths_use_gsm_bandwidth() {
        let cfg = HwConfig::default();
        let off = transfer_time(&cfg, DmaPath::DdrToAm, 1 << 24, 1);
        let on = transfer_time(&cfg, DmaPath::GsmToAm, 1 << 24, 1);
        assert!(on < off, "crossbar should beat DDR");
    }
}
