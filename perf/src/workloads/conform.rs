//! `conformance_sweep` — the repo's real heavy traffic.
//!
//! A job is one `check_case`.  A unit is one **pass** over 104 cases —
//! every oracle × regime pair twice — on a context built fresh for the
//! pass, so every pass pays the same cold planner, kernel-cache and
//! executor-memo misses.  Shapes, strategies and core counts are the
//! first 104 draws of the repo's own case generator under a fixed
//! reference seed; the benchmark's seed fills the matrices and aims the
//! faults.  (Drawing the shapes from the seed as well made every figure a
//! property of the draw: the cost of a case spans 1–110 ms, and the median
//! of even a thousand draws moves by 5–9 % from seed to seed.)  Many tiny
//! shapes, the interpreter and fast tiers, the static verifier, many
//! distinct kernel specs and fixed per-job costs: the opposite corner from
//! the big-panel workloads.

use super::{timed, ContextStats, JobOutcome, ReferenceCheck, SimSummary, Workload};
use crate::metrics::{per_layer_member, Metrics};
use crate::probes::{ProbeShape, Sections};
use crate::spans::Recorder;
use crate::stats::{fnv1a, geomean, median, FNV_INIT};
use conformance::{check_case, generate_case, CaseSpec, OracleKind, Regime, Rng64};
use dspsim::HwConfig;
use ftimm::{ChosenStrategy, FtImm};
use std::collections::BTreeMap;

/// Oracle × regime pairs: the generator's rotation visits each once per
/// this many consecutive cases.
pub const PAIRS: usize = OracleKind::ALL.len() * Regime::ALL.len();

/// Cases in a pass.
pub const UNIT: usize = 2 * PAIRS;

/// Seed of the generator draws behind the fixed shapes.
const REFERENCE_SEED: u64 = 0x51A1;

/// Case `i` of a pass: the reference draw, with seeded data and faults.
pub fn case(seed: u64, i: usize) -> CaseSpec {
    let mut case = generate_case(REFERENCE_SEED, i as u64);
    let mut rng = Rng64::for_case(seed ^ 0xDA7A, i as u64);
    case.seed = rng.next();
    if case.fault_seed.is_some() {
        case.fault_seed = Some(rng.range(1, u64::from(u32::MAX)));
    }
    case
}

/// The workload state.
pub struct Conform {
    ft: FtImm,
    cases: Vec<CaseSpec>,
    generate_s: Vec<f64>,
    case_s: BTreeMap<&'static str, Vec<f64>>,
}

impl Conform {
    /// Generate the pass.  Nothing is warmed — the sweep is defined cold —
    /// so set-up is the context and the cases.
    pub fn setup(seed: u64) -> Self {
        let ft = FtImm::new(HwConfig::default());
        let (cases, generate_s): (Vec<CaseSpec>, Vec<f64>) =
            (0..UNIT).map(|i| timed(|| case(seed, i))).unzip();
        Conform {
            ft,
            cases,
            generate_s,
            case_s: BTreeMap::new(),
        }
    }
}

impl Workload for Conform {
    fn unit_len(&self) -> usize {
        UNIT
    }

    fn fixed_len(&self) -> usize {
        UNIT
    }

    fn kind(&self, i: usize) -> usize {
        i % UNIT
    }

    fn begin_stream(&mut self) {
        self.case_s.clear();
    }

    fn run_job(&mut self, i: usize, rec: &mut Recorder) -> JobOutcome {
        if i.is_multiple_of(UNIT) {
            self.ft = FtImm::new(HwConfig::default());
        }
        let (case, ft) = (self.cases[i % UNIT], &self.ft);
        let (result, latency_s) = timed(|| {
            rec.span("harness", "job", i, |rec| {
                rec.span("conformance", "check_case", i, |_| check_case(ft, &case))
            })
        });
        self.case_s
            .entry(case.oracle.tag())
            .or_default()
            .push(latency_s);
        JobOutcome {
            latency_s,
            ok: result.is_ok(),
            digest: fnv1a(FNV_INIT, format!("{case} seed={}", case.seed).as_bytes()),
            flops: case.shape.flops(),
            sim_s: 0.0,
            tgemm_sim_s: 0.0,
        }
    }

    fn sim_summary(&mut self, _fixed: &[JobOutcome]) -> SimSummary {
        // `check_case` reports no simulated time, so each case's own plan
        // (and TGEMM) is walked on the timing model afterwards.
        let (mut flops, mut sim_s, mut ratios) = (0u64, 0.0f64, Vec::new());
        for case in &self.cases {
            let plan = self.ft.plan_full(&case.shape, case.strategy, case.cores);
            let ours = self
                .ft
                .predict_seconds(&case.shape, &plan.strategy, case.cores);
            let tgemm = self
                .ft
                .predict_seconds(&case.shape, &ChosenStrategy::TGemm, case.cores);
            if ours.is_finite() && tgemm.is_finite() {
                flops += case.shape.flops();
                sim_s += ours;
                ratios.push(tgemm / ours);
            }
        }
        SimSummary {
            gflops: flops as f64 / sim_s / 1e9,
            speedup_vs_tgemm: geomean(&ratios),
        }
    }

    fn reference_check(&mut self) -> ReferenceCheck {
        // Every case already carries its own oracle.
        ReferenceCheck::default()
    }

    fn context_stats(&self) -> ContextStats {
        ContextStats::of(&self.ft)
    }

    fn probe_shapes(&self) -> Vec<ProbeShape> {
        self.cases[..6]
            .iter()
            .map(|case| ProbeShape {
                shape: case.shape,
                cores: case.cores,
                strategy: case.strategy,
            })
            .collect()
    }

    fn stream_sections(&self) -> Sections {
        Sections {
            conformance: true,
            ..Sections::default()
        }
    }

    fn stream_layers(&mut self, layers: &mut Metrics) {
        layers.set(
            "conformance.generate_us_p50",
            median(&self.generate_s) * 1e6,
        );
        for (tag, samples) in &self.case_s {
            let name = per_layer_member("conformance.case_ms_p50", tag);
            layers.set(name, median(samples) * 1e3);
        }
    }
}
