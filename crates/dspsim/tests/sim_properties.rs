//! Property tests on the simulator substrate: memory regions, DMA
//! descriptors and the clock calculus.

use dspsim::{transfer_time, Dma2d, DmaPath, ExecMode, HwConfig, Machine, MemRegion};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn region_write_read_round_trip(
        offset in 0u64..1000,
        values in prop::collection::vec(-1e6f32..1e6, 1..64),
    ) {
        let mut r = MemRegion::new("AM", 8192);
        r.write_f32_slice(offset, &values).unwrap();
        let mut out = vec![0.0f32; values.len()];
        r.read_f32_slice(offset, &mut out).unwrap();
        prop_assert_eq!(values, out);
    }

    #[test]
    fn oob_never_panics(
        offset in 0u64..u64::MAX,
        len in 1u64..(1u64 << 20),
    ) {
        let mut r = MemRegion::new("SM", 4096);
        // Succeeds exactly when the range fits; errors otherwise; never
        // panics, even near u64 overflow.
        let fits = offset.checked_add(len).is_some_and(|end| end <= 4096);
        match r.zero(offset, len) {
            Ok(()) => prop_assert!(fits, "accepted [{offset}, +{len})"),
            Err(_) => prop_assert!(!fits, "rejected in-bounds [{offset}, +{len})"),
        }
    }

    #[test]
    fn dma_2d_copies_exact_blocks(
        rows in 1u64..8,
        cols in 1u64..16,
        src_ld in 16u64..32,
        dst_ld in 16u64..32,
    ) {
        prop_assume!(cols <= src_ld && cols <= dst_ld);
        let mut m = Machine::with_mode(ExecMode::Compiled);
        for r in 0..rows {
            for c in 0..cols {
                m.ddr.write_f32((r * src_ld + c) * 4, (r * 100 + c) as f32).unwrap();
            }
        }
        m.dma_sync(0, DmaPath::DdrToAm, &Dma2d::block_f32(rows, cols, 0, src_ld, 0, dst_ld))
            .unwrap();
        for r in 0..rows {
            for c in 0..cols {
                let got = m.core_mut(0).am.read_f32((r * dst_ld + c) * 4).unwrap();
                prop_assert_eq!(got, (r * 100 + c) as f32);
            }
        }
    }

    #[test]
    fn transfer_time_is_monotone(
        bytes_a in 1u64..(1 << 28),
        bytes_b in 1u64..(1 << 28),
        streams in 1usize..9,
    ) {
        let cfg = HwConfig::default();
        let (small, big) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        for path in [DmaPath::DdrToAm, DmaPath::GsmToAm] {
            let ts = transfer_time(&cfg, path, small, streams);
            let tb = transfer_time(&cfg, path, big, streams);
            prop_assert!(tb >= ts);
            // More streams never make an individual transfer faster.
            let t1 = transfer_time(&cfg, path, big, 1);
            prop_assert!(tb >= t1 - 1e-15);
        }
    }

    #[test]
    fn clock_calculus_never_goes_backwards(
        // Transfers of up to half the 768 KiB AM: timing mode checks
        // extents like a functional copy.
        steps in prop::collection::vec((0u64..10_000, 1u64..(1 << 19)), 1..20),
    ) {
        let mut m = Machine::with_mode(ExecMode::Timing);
        let mut last = 0.0f64;
        for (cycles, bytes) in steps {
            let t = m.dma(0, DmaPath::DdrToAm, &Dma2d::flat(0, 0, bytes)).unwrap();
            m.compute(0, cycles);
            m.wait(0, t);
            let now = m.core_time(0);
            prop_assert!(now >= last);
            last = now;
        }
    }
}
