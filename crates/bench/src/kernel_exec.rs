//! Host kernel execution: a kernel's lowering at `hostsimd`'s widest
//! level on the paper's Table I–III micro-kernel regimes, bare and as one
//! in-simulator invocation.
//!
//! Not a paper figure — this is the perf trajectory of the host
//! execution path itself.  Every functional simulation
//! (`ExecMode::Compiled`) spends its host wall-clock inside the kernel
//! executor, so the compiled rate is the direct lever on fuzzer
//! throughput and bench turnaround.  `BENCH_kernel_exec.json` is emitted
//! by `bench kernel_exec` and archived by CI; the report's
//! `simd_level` names the width the lowering ran at (`"avx512f"`,
//! `"avx2+fma"` or `"scalar"`).
//!
//! A bare `execute` on host vectors is not what a simulation pays, so
//! each regime is also timed as one [`ftimm::invoke_kernel`] on a staged
//! `ExecMode::Compiled` machine — panels resident in the modelled SM/AM,
//! clock and counters advanced.  CI gates [`Report::max_invoke_overhead`]:
//! whatever sits between the scratchpads and the kernel is paid on every
//! invocation, and no other row of this report would show it.
//!
//! The two sides are timed in [`PAIRS`] interleaved pairs of batches,
//! the side that goes first alternating, and the gate reads the median
//! of the per-pair ratios: a slow spell of the host then spoils a few
//! pairs on both sides instead of one whole side.

use crate::report::{Cell::*, Document, Fmt::*, Table};
use dspsim::{ExecMode, HwConfig, KernelBindings, Machine};
use kernelgen::{KernelCache, KernelExecutor, KernelSpec, MicroKernel};
use std::sync::Arc;
use std::time::Instant;

/// One measured micro-kernel regime.
#[derive(Debug, Clone)]
pub struct Row {
    /// Human label ("Table I", …).
    pub label: String,
    /// The panel spec executed.
    pub spec: KernelSpec,
    /// Depth unroll of the kernel measured.
    pub k_u: usize,
    /// Timed executions per batch.
    pub iters: usize,
    /// Median over the pairs of the mean seconds per bare execution of
    /// the lowering.
    pub compiled_s: f64,
    /// Median over the pairs of the mean seconds per `invoke_kernel` on a
    /// staged compiled-mode machine.
    pub invoke_s: f64,
    /// Quartiles (25th, 50th, 75th percentile) of the per-pair
    /// `invoke / bare` ratios.
    pub overhead: [f64; 3],
}

impl Row {
    /// What an in-simulator invocation costs over the bare kernel: the
    /// median of the per-pair ratios.
    pub fn invoke_overhead(&self) -> f64 {
        self.overhead[1]
    }

    /// Host GFLOP/s (useful flops) of an execution taking `seconds`.
    pub fn gflops(&self, seconds: f64) -> f64 {
        self.spec.useful_flops() as f64 / seconds.max(1e-12) / 1e9
    }
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct Report {
    /// The level the lowering ran at on this host.
    pub simd_level: &'static str,
    /// One row per Table I–III regime (plus the tuned control).
    pub rows: Vec<Row>,
}

impl Report {
    /// The largest `invoke_s / compiled_s` across the rows.
    pub fn max_invoke_overhead(&self) -> f64 {
        self.rows
            .iter()
            .map(Row::invoke_overhead)
            .fold(0.0, f64::max)
    }
}

/// One measured regime: label, `n_a`, and the forced `(m_u, k_u)`
/// tiling (`None` lets the generator tune).
type Regime = (&'static str, usize, Option<(usize, usize)>);

/// The regimes measured: the paper's Table I–III innermost-loop shapes
/// (forced to the tables' exact `(m_u, k_u)` tilings) plus one
/// auto-tuned tall panel as a control.
const REGIMES: [Regime; 4] = [
    ("Table I", 96, Some((6, 1))),
    ("Table II", 64, Some((6, 2))),
    ("Table III", 32, Some((6, 2))),
    ("tuned 12x512x96", 96, None),
];

/// The A, B and C panels every measurement of `spec` runs on.
fn panels(spec: &KernelSpec) -> [Vec<f32>; 3] {
    let ld = spec.na_pad();
    let fill = |n: usize, s: u32| -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(s);
                ((x % 513) as f32 - 256.0) / 16.0
            })
            .collect()
    };
    [
        fill(spec.m_s * spec.k_a, 1),
        fill(spec.k_a * ld, 2),
        fill(spec.m_s * ld, 3),
    ]
}

/// Wall-clock seconds per bare execution of `kernel`'s lowering,
/// averaged over a batch of `iters`.
fn time_execute(ex: &KernelExecutor, kernel: &MicroKernel, iters: usize) -> f64 {
    let [a, b, c0] = panels(&kernel.spec);
    let mut c = c0.clone();
    // Lower the kernel first so lowering cost stays out of the timing.
    let lowered = ex.compiled(kernel).expect("kernel lowers");
    let t0 = Instant::now();
    for _ in 0..iters {
        // Reset C so accumulators stay in range; the copy is ~k_a times
        // cheaper than the kernel, and `time_invoke` pays it too.
        c.copy_from_slice(&c0);
        lowered.execute(&a, &b, &mut c);
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Wall-clock seconds per `invoke_kernel` of `kernel` on a compiled-mode
/// machine whose core 0 holds the panels: what [`time_execute`] measures
/// plus everything between the scratchpads and the kernel.
fn time_invoke(ex: &KernelExecutor, cfg: &HwConfig, kernel: &MicroKernel, iters: usize) -> f64 {
    let [a, b, c0] = panels(&kernel.spec);
    let bind = KernelBindings {
        a_off: 0,
        b_off: 0,
        c_off: 4 * b.len() as u64,
    };
    let mut m = Machine::new(cfg.clone(), ExecMode::Compiled);
    let core = m.core_mut(0);
    core.sm.write_f32_slice(bind.a_off, &a).expect("stage A");
    core.am.write_f32_slice(bind.b_off, &b).expect("stage B");
    core.am.write_f32_slice(bind.c_off, &c0).expect("stage C");
    ftimm::invoke_kernel(&mut m, 0, ex, kernel, bind).expect("warmup");
    let t0 = Instant::now();
    for _ in 0..iters {
        // The same C reset as `time_execute`, into the scratchpad.
        let am = &mut m.core_mut(0).am;
        am.write_f32_slice(bind.c_off, &c0).expect("reset C");
        ftimm::invoke_kernel(&mut m, 0, ex, kernel, bind).expect("invoke");
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Timed pairs per regime (an even count, so each side goes first
/// equally often).
pub const PAIRS: usize = 12;

/// The 25th, 50th and 75th percentiles of a non-empty `v`, interpolated
/// linearly between ranks.
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// [`PAIRS`] pairs of one `bare` and one `invoke` batch, alternating which
/// runs first: the median seconds of each side and the quartiles of the
/// per-pair `invoke / bare` ratios.
fn interleaved(
    mut bare: impl FnMut() -> f64,
    mut invoke: impl FnMut() -> f64,
) -> (f64, f64, [f64; 3]) {
    let (mut bares, mut invokes, mut ratios) = (vec![], vec![], vec![]);
    for pair in 0..PAIRS {
        let (b, i) = if pair % 2 == 0 {
            let b = bare();
            (b, invoke())
        } else {
            let i = invoke();
            (bare(), i)
        };
        bares.push(b);
        invokes.push(i);
        ratios.push(i / b.max(1e-12));
    }
    (
        quartiles(bares)[1],
        quartiles(invokes)[1],
        quartiles(ratios),
    )
}

/// Measure every regime.  `iters = 0` sizes each batch so it takes
/// roughly 20 ms of bare execution.
pub fn compute(iters: usize) -> Report {
    let cfg = HwConfig::default();
    let ex = KernelExecutor::new(Arc::new(KernelCache::new(cfg.clone())));
    let rows = REGIMES
        .iter()
        .map(|&(label, n_a, forced)| {
            let spec = match forced {
                Some(_) => KernelSpec::new(6, 512, n_a),
                None => KernelSpec::new(12, 512, n_a),
            }
            .expect("valid spec");
            let kernel = match forced {
                Some((m_u, k_u)) => {
                    MicroKernel::generate_forced(spec, m_u, k_u, &cfg).expect("kernel generates")
                }
                None => MicroKernel::generate(spec, &cfg).expect("kernel generates"),
            };
            let iters = if iters > 0 {
                iters
            } else {
                let probe = time_execute(&ex, &kernel, 10);
                ((0.02 / probe.max(1e-9)) as usize).clamp(10, 100_000)
            };
            let (compiled_s, invoke_s, overhead) = interleaved(
                || time_execute(&ex, &kernel, iters),
                || time_invoke(&ex, &cfg, &kernel, iters),
            );
            Row {
                label: label.to_string(),
                spec,
                k_u: kernel.blocks[0].k_u,
                iters,
                compiled_s,
                invoke_s,
                overhead,
            }
        })
        .collect();
    Report {
        simd_level: kernelgen::simd_level(),
        rows,
    }
}

/// Describe the report once: [`Document::render`] prints it,
/// [`Document::json`] is the `BENCH_kernel_exec.json` document.
pub fn document(report: &Report) -> Document {
    let (micros, gflops) = (Fixed(1e6, 2, "us"), Fixed(1.0, 1, ""));
    let overhead = Fixed(1.0, 2, "x");
    let rows = Table::new(
        "rows",
        "Kernel execution — bare lowering vs in-simulator invocation, host wall-clock",
        &report.rows,
    )
    .col("regime", "regime", |r| Text(r.label.clone()))
    .col("", "m_sxk_axn_a", |r| {
        Text(format!("{}x{}x{}", r.spec.m_s, r.spec.k_a, r.spec.n_a))
    })
    .col("m_s", "", |r| Count(r.spec.m_s as u64))
    .col("k_a", "", |r| Count(r.spec.k_a as u64))
    .col("n_a", "", |r| Count(r.spec.n_a as u64))
    .col("k_u", "k_u", |r| Count(r.k_u as u64))
    .col("iters", "iters", |r| Count(r.iters as u64))
    .col("compiled_s", "compiled", |r| Num(r.compiled_s, micros))
    .col("invoke_s", "invoke", |r| Num(r.invoke_s, micros))
    .col("overhead_p25", "p25", |r| Num(r.overhead[0], overhead))
    .col("invoke_overhead", "overhead", |r| {
        Num(r.invoke_overhead(), overhead)
    })
    .col("overhead_p75", "p75", |r| Num(r.overhead[2], overhead))
    .col("compiled_gflops", "GF/s compiled", |r| {
        Num(r.gflops(r.compiled_s), gflops)
    })
    .col("invoke_gflops", "GF/s invoke", |r| {
        Num(r.gflops(r.invoke_s), gflops)
    });
    Document::new("kernel-exec")
        .value("simd_level", Text(report.simd_level.into()))
        .table(rows)
        .value(
            "max_invoke_overhead",
            Num(report.max_invoke_overhead(), overhead),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_three_tables_and_serialises() {
        // Tiny fixed batch: this is a structure test, not a measurement.
        let report = compute(10);
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.rows[0].label, "Table I");
        assert_eq!(report.rows[0].k_u, 1);
        assert_eq!(report.rows[1].k_u, 2);
        for r in &report.rows {
            assert!(r.compiled_s > 0.0, "{}", r.label);
            assert!(r.invoke_s > 0.0, "{}", r.label);
            let [q1, q2, q3] = r.overhead;
            assert!(0.0 < q1 && q1 <= q2 && q2 <= q3, "{}", r.label);
        }
        let v = crate::report::parsed(&document(&report), "kernel-exec");
        assert_eq!(
            v.get("simd_level").unwrap().as_str("simd_level"),
            Ok(report.simd_level)
        );
        let rows = v.get("rows").unwrap().as_arr("rows").unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[2].get("regime").unwrap().as_str("regime"),
            Ok("Table III")
        );
        assert_eq!(rows[2].get("n_a").unwrap().as_u64("n_a"), Ok(32));
        for (row, r) in rows.iter().zip(&report.rows) {
            assert_eq!(
                row.get("invoke_s").unwrap().as_f64("invoke_s"),
                Ok(r.invoke_s)
            );
            assert_eq!(
                row.get("compiled_s").unwrap().as_f64("compiled_s"),
                Ok(r.compiled_s)
            );
            for (key, q) in ["overhead_p25", "invoke_overhead", "overhead_p75"]
                .into_iter()
                .zip(r.overhead)
            {
                assert_eq!(row.get(key).unwrap().as_f64(key), Ok(q));
            }
        }
        assert_eq!(
            v.get("max_invoke_overhead").unwrap().as_f64("overhead"),
            Ok(report.max_invoke_overhead())
        );
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(vec![3.0, 1.0, 2.0]), [1.5, 2.0, 2.5]);
        assert_eq!(quartiles(vec![4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(vec![7.0]), [7.0; 3]);
    }
}
