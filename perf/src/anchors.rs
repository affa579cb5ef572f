//! The paper's quoted numbers this benchmark compares the model against.
//!
//! The simulator is otherwise unvalidated against silicon, so the error
//! against these anchors (`sim_paper_err_p50`) is stated beside every
//! simulated speed-up.  Values are the paper's, as quoted in
//! `EXPERIMENTS.md` at the cited lines.

use ftimm::{ChosenStrategy, FtImm, GemmShape, Strategy};

/// Fig. 3 best micro-kernel efficiency per panel `(label, K, N, paper)`
/// — EXPERIMENTS.md lines 38–43.
pub const FIG3_BEST_EFFICIENCY: [(&str, usize, usize, f64); 6] = [
    ("(a)", 512, 96, 0.982),
    ("(b)", 512, 64, 0.964),
    ("(c)", 512, 32, 0.630),
    ("(d)", 32, 96, 0.774),
    ("(e)", 32, 64, 0.654),
    ("(f)", 32, 32, 0.466),
];

/// Fig. 5: ftIMM over TGEMM on 8 cores at 20480×32×20480, "up to 7.2×"
/// — EXPERIMENTS.md line 67.
pub const FIG5_SHAPE: (usize, usize, usize) = (20480, 32, 20480);
/// The paper's speed-up at [`FIG5_SHAPE`].
pub const FIG5_SPEEDUP: f64 = 7.2;

// Fig. 4's single-core anchor (2.0× at the same shape, EXPERIMENTS.md
// line 56) is not evaluated: it would double the anchors' host time, and
// they already take about a third of a cold_plan_timing run.

fn rel_err(ours: f64, paper: f64) -> f64 {
    (ours - paper).abs() / paper
}

/// `|ours − paper| ÷ paper` for the six Fig. 3 panels, through the
/// repository's own figure code (fresh kernel cache: ~60 ms).
pub fn fig3_errors() -> Vec<f64> {
    let panels = bench::fig3::compute();
    FIG3_BEST_EFFICIENCY
        .iter()
        .map(|&(label, k, n, paper)| {
            let panel = panels
                .iter()
                .find(|p| p.label == label && p.k == k && p.n == n)
                .expect("fig3 panel exists");
            let best = panel
                .points
                .iter()
                .map(|pt| pt.efficiency)
                .fold(0.0f64, f64::max);
            rel_err(best, paper)
        })
        .collect()
}

/// Walk the Fig. 5 anchor and TGEMM on the timing model; returns
/// `(error vs paper, ftIMM simulated s)`.
///
/// The plan is the §IV-C rule pick (`Strategy::Rules`: no candidate
/// simulations) — at this commit also what `Strategy::Auto` resolves to
/// for the shape.  Each walk of it allocates the 1.6 GiB A matrix on a
/// fresh timing-mode machine, and `Auto`'s four extra candidate walks
/// would cost more host time than the whole seeded window.
pub fn fig5_error(ft: &FtImm, cores: usize) -> (f64, f64) {
    let (m, n, k) = FIG5_SHAPE;
    let shape = GemmShape::new(m, n, k);
    let plan = ft.plan_full(&shape, Strategy::Rules, cores);
    let ours_s = ft.predict_seconds(&shape, &plan.strategy, cores);
    let tgemm_s = ft.predict_seconds(&shape, &ChosenStrategy::TGemm, cores);
    (rel_err(tgemm_s / ours_s, FIG5_SPEEDUP), ours_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_anchors_are_within_the_documented_deviation() {
        let errs = fig3_errors();
        assert_eq!(errs.len(), 6);
        // EXPERIMENTS.md: K = 512 panels within a few percent, K = 32
        // panels high by up to ~25 % (leaner prologue than the paper's).
        assert!(errs[..3].iter().all(|e| *e < 0.06), "{errs:?}");
        assert!(errs[3..].iter().all(|e| *e < 0.30), "{errs:?}");
    }
}
