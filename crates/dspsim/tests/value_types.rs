//! Configuration and report types are plain value types: compared
//! field-wise, copied freely, embedded in experiment records and bench
//! metadata.

use dspsim::{BackendKind, CoreStats, FaultStats, HwConfig, RunReport};

#[test]
fn hw_config_equality_is_field_wise() {
    let a = HwConfig::default();
    let mut b = a.clone();
    assert_eq!(a, b);
    b.ddr_efficiency = 0.5;
    assert_ne!(a, b);
}

#[test]
fn core_stats_and_report_are_copyable_value_types() {
    let a = CoreStats {
        flops: 10,
        ..CoreStats::default()
    };
    let b = a;
    assert_eq!(a, b);
    let r = RunReport {
        seconds: 1.0,
        useful_flops: 2,
        totals: a,
        cores_used: 8,
        backend: BackendKind::Dsp,
        faults: FaultStats::default(),
        profile: None,
    };
    let r2 = r;
    assert_eq!(r, r2);
}
