//! `cold_plan_timing` — the reproduction / tuning path.
//!
//! A fresh `FtImm` per stream and `ExecMode::Timing` only: no matrix data
//! exists, so the kernel executor moves nothing and a faster kernel tier
//! must show *no change* here.  Every seeded job plans a never-seen shape
//! cold, tunes it, and walks the tuned plan and TGEMM on the timing
//! model.  The stream closes with the Fig. 5 paper anchor
//! (20480×32×20480) and a plan-catalog round trip that must re-plan
//! every shape with zero timing simulations.

use super::{
    permutation, timed, ContextStats, JobOutcome, ReferenceCheck, SimSummary, Workload, CORES,
};
use crate::metrics::Metrics;
use crate::probes::{ProbeShape, Sections};
use crate::spans::Recorder;
use crate::stats::{fnv1a, geomean, median, FNV_INIT};
use conformance::Rng64;
use dspsim::HwConfig;
use ftimm::{plan_json, ChosenStrategy, FtImm, GemmShape, Plan, Strategy, TuneConfig};
use std::collections::HashSet;

/// The paper's N sweep; each cell jitters a few columns below its entry.
const N_SWEEP: [usize; 6] = [16, 32, 48, 64, 80, 96];

/// Lower edges of the six size buckets of the dominant dimension, 1.5×
/// apart; a shape lands within an eighth above its edge.  The buckets are
/// narrow so that a job kind (type × bucket) costs about the same in every
/// unit and under every seed, and they stop at ~17 000 because above that
/// the modelled DDR of one walk (10–20 MB, zero-filled) costs either 40 ms
/// or 200 ms depending on whether glibc happens to serve it from its heap
/// or from fresh pages — a coin the allocator's history flips, which no
/// statistic of fifteen repeats can call.
const BIG: [usize; 6] = [2048, 3072, 4608, 6912, 10368, 15552];

/// One unit: every N value once for type 1 and once for type 2, and
/// three type-3 shapes (half the N values, alternating between units —
/// a type-3 walk costs M·K, several times the others).  The size bucket
/// rotates with the unit like a Latin square, so every unit carries
/// every size of types 1 and 2.
const UNIT: usize = 15;
const FIXED_UNITS: usize = 7;

/// The cell of its unit that stream index `i` draws: irregular type
/// (0-based), index into [`N_SWEEP`], size bucket.
fn cell(seed: u64, i: usize) -> (usize, usize, usize) {
    let unit = i / UNIT;
    let cell = permutation(UNIT, &mut Rng64::for_case(seed ^ 0x0DE2, unit as u64))[i % UNIT];
    let (ty, nj) = if cell < 12 {
        (cell / 6, cell % 6)
    } else {
        (2, 3 * (unit % 2) + cell - 12)
    };
    (ty, nj, (2 * ty + nj + unit) % 6)
}

/// The seeded shape of stream index `i` (before de-duplication).
fn draw_shape(seed: u64, i: usize) -> GemmShape {
    let mut rng = Rng64::for_case(seed ^ 0xC01D, i as u64);
    let (ty, nj, bucket) = cell(seed, i);
    let n = N_SWEEP[nj] - rng.range(0, 3) as usize;
    let big = BIG[bucket] + rng.range(0, (BIG[bucket] / 8) as u64 - 1) as usize;
    // The modelled DDR a walk allocates is ∝ big · (small + n): keeping
    // small + n constant makes a kind's cost the same whichever N meets
    // its size bucket.
    let small = 112 - N_SWEEP[nj] + rng.range(0, 3) as usize;
    match ty {
        0 => GemmShape::new(big, n, small),
        1 => GemmShape::new(small, n, big),
        // Type 3 keeps both large dimensions near 2^11: its walk costs
        // M·K, and the bucket only nudges the aspect ratio.
        _ => GemmShape::new(
            2048 + 16 * bucket + rng.range(0, 31) as usize,
            n,
            2048 + 16 * (5 - bucket) + rng.range(0, 31) as usize,
        ),
    }
}

/// The first `count` shapes of the seeded stream, never repeating one.
pub fn shapes(seed: u64, count: usize) -> Vec<GemmShape> {
    let mut seen = HashSet::new();
    (0..count)
        .map(|i| {
            let mut s = draw_shape(seed, i);
            while !seen.insert(s) {
                s.k += 1;
            }
            s
        })
        .collect()
}

/// The workload state.
pub struct Cold {
    seed: u64,
    ft: FtImm,
    shapes: Vec<GemmShape>,
    tuned: Vec<Plan>,
    fig5_error: Option<f64>,
    /// Per tuned job of the stream: host seconds of `tune`, default ÷
    /// tuned simulated seconds, and whether a variant was adopted.
    tune_s: Vec<f64>,
    tune_gain: Vec<f64>,
    variants_adopted: u64,
    warm_start_sims: u64,
    catalog_ms: (f64, f64),
}

impl Cold {
    /// Build a context and generate the fixed shapes; nothing is warmed
    /// (the workload is defined cold, and every stream starts from a
    /// fresh context).
    pub fn setup(seed: u64) -> Self {
        Cold {
            seed,
            ft: FtImm::new(HwConfig::default()),
            shapes: shapes(seed, UNIT * FIXED_UNITS),
            tuned: Vec::new(),
            fig5_error: None,
            tune_s: Vec::new(),
            tune_gain: Vec::new(),
            variants_adopted: 0,
            warm_start_sims: 0,
            catalog_ms: (0.0, 0.0),
        }
    }

    fn shape(&mut self, i: usize) -> GemmShape {
        if i >= self.shapes.len() {
            // Extend by whole units; `shapes` regenerates the prefix so
            // de-duplication sees the same history on every call.
            self.shapes = shapes(self.seed, (i / UNIT + 1) * UNIT);
        }
        self.shapes[i]
    }

    /// Save the catalog, warm-start a fresh context from it and re-plan
    /// every shape of the stream: the plans must come back bit-equal and
    /// without a single timing simulation.
    fn catalog_round_trip(&mut self, i: usize, rec: &mut Recorder) -> JobOutcome {
        let path = crate::scratch_path("catalog.json");
        let ft = &self.ft;
        let planned = &self.shapes[..self.tuned.len()];
        let (result, latency_s) = timed(|| {
            rec.span("harness", "job", i, |rec| {
                let (saved, save_s) = timed(|| {
                    rec.span("ftimm.tune", "save_plan_catalog", i, |_| {
                        ft.save_plan_catalog(&path)
                    })
                });
                saved?;
                let (fresh, load_s) = timed(|| {
                    rec.span("ftimm.tune", "load_plan_catalog", i, |_| {
                        // Room for the whole catalog, so nothing is
                        // evicted on load whatever the stream length.
                        let fresh = FtImm::with_plan_cache_capacity(
                            HwConfig::default(),
                            planned.len() + 16,
                        );
                        fresh.load_plan_catalog(&path).map(|_| fresh)
                    })
                });
                let fresh = fresh?;
                let plans: Vec<Plan> = rec.span("ftimm.plan", "plan_full(warm)", i, |_| {
                    planned
                        .iter()
                        .map(|s| fresh.plan_full(s, Strategy::Auto, CORES))
                        .collect()
                });
                Ok::<_, String>((plans, fresh.timing_simulations(), save_s, load_s))
            })
        });
        let _ = std::fs::remove_file(&path);
        let ok = match result {
            Ok((plans, sims, save_s, load_s)) => {
                self.warm_start_sims = sims;
                self.catalog_ms = (save_s * 1e3, load_s * 1e3);
                sims == 0 && plans == self.tuned
            }
            Err(_) => false,
        };
        JobOutcome {
            latency_s,
            ok,
            digest: 0,
            flops: 0,
            sim_s: 0.0,
            tgemm_sim_s: 0.0,
        }
    }
}

impl Workload for Cold {
    fn unit_len(&self) -> usize {
        UNIT
    }

    fn fixed_len(&self) -> usize {
        UNIT * FIXED_UNITS
    }

    fn kind(&self, i: usize) -> usize {
        // Types 1 and 2 cost by size bucket (every unit has all six of
        // each); the three type-3 jobs of a unit cost alike.
        match cell(self.seed, i) {
            (2, nj, _) => 12 + nj % 3,
            (ty, _, bucket) => 6 * ty + bucket,
        }
    }

    fn begin_stream(&mut self) {
        self.ft = FtImm::new(HwConfig::default());
        self.tuned.clear();
        self.fig5_error = None;
        self.tune_s.clear();
        self.tune_gain.clear();
        self.variants_adopted = 0;
    }

    fn run_job(&mut self, i: usize, rec: &mut Recorder) -> JobOutcome {
        let shape = self.shape(i);
        let ft = &self.ft;
        let ((plan, outcome, tune_s, tuned_s, tgemm_s), latency_s) = timed(|| {
            rec.span("harness", "job", i, |rec| {
                let plan = rec.span("ftimm.plan", "plan_full", i, |_| {
                    ft.plan_full(&shape, Strategy::Auto, CORES)
                });
                let (outcome, tune_s) = timed(|| {
                    rec.span("ftimm.tune", "tune", i, |_| {
                        ft.tune(&shape, CORES, &TuneConfig::default())
                    })
                });
                let tuned_s = rec.span("dspsim", "predict_seconds(tuned)", i, |_| {
                    ft.predict_seconds(&shape, &outcome.plan.strategy, CORES)
                });
                let tgemm_s = rec.span("dspsim", "predict_seconds(tgemm)", i, |_| {
                    ft.predict_seconds(&shape, &ChosenStrategy::TGemm, CORES)
                });
                (plan, outcome, tune_s, tuned_s, tgemm_s)
            })
        });
        self.tune_s.push(tune_s);
        self.tune_gain
            .push(outcome.default_plan.simulated_s / outcome.plan.simulated_s);
        self.variants_adopted += u64::from(outcome.adopted_variant);
        // The tuner starts from the same cold plan, never adopts a slower
        // variant, and its recorded time is what the walk reproduces.
        let ok = outcome.default_plan == plan
            && tuned_s.is_finite()
            && tgemm_s.is_finite()
            && tuned_s == outcome.plan.simulated_s
            && tuned_s <= plan.simulated_s;
        let mut digest = fnv1a(FNV_INIT, plan_json(&outcome.plan).as_bytes());
        digest = fnv1a(digest, &tuned_s.to_bits().to_le_bytes());
        digest = fnv1a(digest, &tgemm_s.to_bits().to_le_bytes());
        self.tuned.push(outcome.plan);
        JobOutcome {
            latency_s,
            ok,
            digest,
            flops: shape.flops(),
            sim_s: tuned_s,
            tgemm_sim_s: tgemm_s,
        }
    }

    fn tail_jobs(&mut self, first: usize, anchors: bool, rec: &mut Recorder) -> Vec<JobOutcome> {
        let mut out = Vec::new();
        let mut i = first;
        let plain = |latency_s, ok| JobOutcome {
            latency_s,
            ok,
            digest: 0,
            flops: 0,
            sim_s: 0.0,
            tgemm_sim_s: 0.0,
        };
        if anchors {
            let ft = &self.ft;
            let ((err, sim_s), latency_s) = timed(|| {
                rec.span("harness", "job", i, |rec| {
                    rec.span("dspsim", "fig5 anchor", i, |_| {
                        crate::anchors::fig5_error(ft, CORES)
                    })
                })
            });
            self.fig5_error = Some(err);
            out.push(plain(latency_s, sim_s.is_finite()));
            i += 1;
        }
        out.push(self.catalog_round_trip(i, rec));
        out
    }

    fn sim_summary(&mut self, fixed: &[JobOutcome]) -> SimSummary {
        let flops: u64 = fixed.iter().map(|j| j.flops).sum();
        let sim_s: f64 = fixed.iter().map(|j| j.sim_s).sum();
        let ratios: Vec<f64> = fixed.iter().map(|j| j.tgemm_sim_s / j.sim_s).collect();
        SimSummary {
            gflops: flops as f64 / sim_s / 1e9,
            speedup_vs_tgemm: geomean(&ratios),
        }
    }

    fn anchor_errors(&self) -> Vec<f64> {
        self.fig5_error.into_iter().collect()
    }

    fn reference_check(&mut self) -> ReferenceCheck {
        // No matrix data exists on this workload; its outputs are plans,
        // checked per job and by the catalog round trip.
        ReferenceCheck::default()
    }

    fn context_stats(&self) -> ContextStats {
        ContextStats::of(&self.ft)
    }

    fn probe_shapes(&self) -> Vec<ProbeShape> {
        // The functional probes need matrices, so take the first shapes
        // of each type that stay under ~2^28 multiply-adds.
        let mut picked: Vec<ProbeShape> = Vec::new();
        for ty in 0..3 {
            picked.extend(
                self.shapes
                    .iter()
                    .filter(|s| {
                        let is = match ty {
                            0 => s.m >= 2048 && s.k < 2048,
                            1 => s.k >= 2048 && s.m < 2048,
                            _ => s.m >= 2048 && s.k >= 2048,
                        };
                        is && s.m * s.n * s.k <= 1 << 28
                    })
                    .take(2)
                    .map(|s| ProbeShape::auto(*s, CORES)),
            );
        }
        picked
    }

    fn stream_sections(&self) -> Sections {
        Sections {
            tune: true,
            ..Sections::default()
        }
    }

    fn stream_layers(&mut self, layers: &mut Metrics) {
        layers.set("ftimm.tune.ms_p50", median(&self.tune_s) * 1e3);
        layers.set("ftimm.tune.sim_gain", geomean(&self.tune_gain));
        layers.set("ftimm.tune.variants_adopted", self.variants_adopted as f64);
        layers.set("ftimm.tune.warm_start_sims", self.warm_start_sims as f64);
        layers.set("ftimm.tune.catalog_save_ms", self.catalog_ms.0);
        layers.set("ftimm.tune.catalog_load_ms", self.catalog_ms.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftimm::IrregularType;

    #[test]
    fn shapes_are_deterministic_in_seed_and_never_repeat() {
        let a = shapes(1, 4 * UNIT * FIXED_UNITS);
        assert_eq!(a, shapes(1, a.len()));
        assert_eq!(a[..UNIT], shapes(1, UNIT)[..], "a prefix is stable");
        assert_ne!(a, shapes(2, a.len()));
        let distinct: HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "every plan must be a cache miss");
    }

    #[test]
    fn every_unit_is_balanced_over_types_and_stays_in_range() {
        for (u, unit) in shapes(7, UNIT * FIXED_UNITS).chunks(UNIT).enumerate() {
            let mut per_type = [0usize; 3];
            for s in unit {
                assert!((13..=96).contains(&s.n), "{s}");
                assert!(s.m.max(s.k) <= 1 << 17, "{s}");
                per_type[match s.classify() {
                    IrregularType::TallSkinnyTimesSmall => 0,
                    IrregularType::SkinnyTallTimesTallSkinny => 1,
                    IrregularType::RegularTimesTallSkinny => 2,
                    other => panic!("unit {u}: {s} classified {other}"),
                }] += 1;
            }
            assert_eq!(per_type, [6, 6, 3], "unit {u}");
        }
    }
}
