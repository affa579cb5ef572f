//! Property tests on the stats aggregation layer: merging the counters
//! of N separate runs must equal the counters of one combined run.

use dspsim::{CoreStats, ExecMode, FaultStats, Machine};
use proptest::prelude::*;

fn arb_core_stats() -> impl Strategy<Value = CoreStats> {
    (
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        (0u64..1 << 40, 0u64..1 << 40),
        (0u64..1 << 20, 0u64..1 << 20),
    )
        .prop_map(
            |(
                (compute_cycles, instructions, flops),
                (ddr_bytes, gsm_bytes),
                (dma_transfers, kernel_calls),
            )| CoreStats {
                compute_cycles,
                instructions,
                flops,
                ddr_bytes,
                gsm_bytes,
                dma_transfers,
                kernel_calls,
            },
        )
}

fn arb_fault_stats() -> impl Strategy<Value = FaultStats> {
    (
        (0u64..1 << 20, 0u64..1 << 20, 0u64..1 << 20, 0u64..8),
        (0u64..1 << 20, 0u64..1 << 20, 0u64..1 << 20),
    )
        .prop_map(
            |(
                (dma_corruptions, dma_timeouts, bit_flips, cores_lost),
                (retries, recomputed_tiles, rows_reexecuted),
            )| FaultStats {
                dma_corruptions,
                dma_timeouts,
                bit_flips,
                cores_lost,
                retries,
                recomputed_tiles,
                rows_reexecuted,
            },
        )
}

fn fold_core(stats: &[CoreStats]) -> CoreStats {
    let mut acc = CoreStats::default();
    for s in stats {
        acc.merge(s);
    }
    acc
}

fn fold_fault(stats: &[FaultStats]) -> FaultStats {
    let mut acc = FaultStats::default();
    for s in stats {
        acc.merge(s);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn core_stats_merge_is_field_wise_sum(
        stats in prop::collection::vec(arb_core_stats(), 1..8),
    ) {
        let merged = fold_core(&stats);
        prop_assert_eq!(
            merged.flops,
            stats.iter().map(|s| s.flops).sum::<u64>()
        );
        prop_assert_eq!(
            merged.compute_cycles,
            stats.iter().map(|s| s.compute_cycles).sum::<u64>()
        );
        prop_assert_eq!(
            merged.ddr_bytes + merged.gsm_bytes,
            stats.iter().map(|s| s.ddr_bytes + s.gsm_bytes).sum::<u64>()
        );
        prop_assert_eq!(
            merged.dma_transfers + merged.kernel_calls + merged.instructions,
            stats
                .iter()
                .map(|s| s.dma_transfers + s.kernel_calls + s.instructions)
                .sum::<u64>()
        );
    }

    #[test]
    fn merge_is_order_independent(
        mut stats in prop::collection::vec(arb_core_stats(), 2..8),
        faults in prop::collection::vec(arb_fault_stats(), 2..8),
    ) {
        let forward = fold_core(&stats);
        stats.reverse();
        prop_assert_eq!(forward, fold_core(&stats));

        let forward = fold_fault(&faults);
        let mut rev = faults.clone();
        rev.reverse();
        prop_assert_eq!(forward, fold_fault(&rev));
    }

    #[test]
    fn fault_stats_merge_preserves_injected_total(
        faults in prop::collection::vec(arb_fault_stats(), 1..8),
    ) {
        let merged = fold_fault(&faults);
        prop_assert_eq!(
            merged.injected(),
            faults.iter().map(|f| f.injected()).sum::<u64>()
        );
        prop_assert_eq!(
            merged.retries + merged.recomputed_tiles + merged.rows_reexecuted,
            faults
                .iter()
                .map(|f| f.retries + f.recomputed_tiles + f.rows_reexecuted)
                .sum::<u64>()
        );
    }

    #[test]
    fn merged_per_run_reports_equal_one_combined_run(
        cycles in prop::collection::vec(1u64..2000, 1..6),
    ) {
        // N runs on fresh machines, one report each, totals merged —
        // must equal a single machine executing all the work and
        // reporting once (the counters are pure accumulators).
        let mut merged = CoreStats::default();
        for (i, &cy) in cycles.iter().enumerate() {
            let mut m = Machine::with_mode(ExecMode::Timing);
            let core = i % 4;
            m.compute(core, cy);
            m.stall(core, 1e-9);
            let rep = m.report(0, &[core]);
            merged.merge(&rep.totals);
        }

        let mut m = Machine::with_mode(ExecMode::Timing);
        for (i, &cy) in cycles.iter().enumerate() {
            m.compute(i % 4, cy);
            m.stall(i % 4, 1e-9);
        }
        let ids: Vec<usize> = (0..4.min(cycles.len())).collect();
        let combined = m.report(0, &ids);
        prop_assert_eq!(merged, combined.totals);
    }
}
