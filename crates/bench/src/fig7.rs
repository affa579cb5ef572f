//! Fig. 7 — efficiency of irregular-shaped GEMM: ftIMM on one GPDSP
//! cluster (peak 2764.8 GFLOPS) vs OpenBLAS on the 16-core ARMv8 CPU
//! (peak 281.6 GFLOPS), both against the same 42.6 GB/s DDR bandwidth.
//! Efficiency is achieved/peak per device; the paper reports ftIMM ahead
//! in most cases, by up to 3.1×.

use crate::common::{format_table, Harness, N_SWEEP};
use ftimm::{GemmShape, Strategy};

/// One efficiency comparison point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Problem shape.
    pub shape: GemmShape,
    /// ftIMM efficiency vs cluster peak.
    pub dsp_efficiency: f64,
    /// Modelled OpenBLAS efficiency vs CPU peak.
    pub cpu_efficiency: f64,
}

impl Point {
    /// ftIMM-to-OpenBLAS efficiency ratio.
    pub fn ratio(&self) -> f64 {
        self.dsp_efficiency / self.cpu_efficiency
    }
}

/// One panel.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Label.
    pub label: &'static str,
    /// Points.
    pub points: Vec<Point>,
}

fn point(h: &Harness, m: usize, n: usize, k: usize) -> Point {
    // The CPU side through the same `CpuBackend::predict` the failover
    // engine prices its lane with: one model, one config.
    let shape = GemmShape::new(m, n, k);
    let dsp_gf = h.gflops(&shape, Strategy::Auto, 8);
    let cpu = h.cpu_predict(&shape);
    Point {
        shape,
        dsp_efficiency: dsp_gf / h.dsp_peak_gflops(),
        cpu_efficiency: cpu.efficiency,
    }
}

/// Compute the three panels.
pub fn compute() -> Vec<Panel> {
    let h = Harness::new();
    vec![
        Panel {
            label: "(a) type 1: M=2^16, N=K swept",
            points: N_SWEEP.iter().map(|&n| point(&h, 1 << 16, n, n)).collect(),
        },
        Panel {
            label: "(b) type 2: K=2^16, M=N swept",
            points: N_SWEEP.iter().map(|&n| point(&h, n, n, 1 << 16)).collect(),
        },
        Panel {
            label: "(c) type 3: M=K=20480, N swept",
            points: N_SWEEP
                .iter()
                .map(|&n| point(&h, 20480, n, 20480))
                .collect(),
        },
    ]
}

/// Render the panels.
pub fn render(panels: &[Panel]) -> String {
    let mut out = String::from(
        "Fig. 7 — Efficiency: ftIMM on a GPDSP cluster vs OpenBLAS on the 16-core CPU\n\n",
    );
    for p in panels {
        let rows: Vec<Vec<String>> = p
            .points
            .iter()
            .map(|pt| {
                vec![
                    pt.shape.to_string(),
                    format!("{:.1}%", 100.0 * pt.dsp_efficiency),
                    format!("{:.1}%", 100.0 * pt.cpu_efficiency),
                    format!("{:.2}x", pt.ratio()),
                ]
            })
            .collect();
        out.push_str(&format_table(
            p.label,
            &["MxNxK", "ftIMM eff", "OpenBLAS eff", "ratio"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn cached() -> &'static [Panel] {
        static P: OnceLock<Vec<Panel>> = OnceLock::new();
        P.get_or_init(compute)
    }

    #[test]
    fn ftimm_leads_in_most_cases_up_to_about_3x() {
        let panels = cached();
        let mut wins = 0usize;
        let mut total = 0usize;
        let mut max_ratio = 0.0f64;
        for p in panels {
            for pt in &p.points {
                total += 1;
                if pt.ratio() > 1.0 {
                    wins += 1;
                }
                max_ratio = max_ratio.max(pt.ratio());
            }
        }
        assert!(
            wins * 2 > total,
            "ftIMM should lead in most cases ({wins}/{total})"
        );
        // Paper: "up to 3.1×".
        assert!(max_ratio > 1.5, "max ratio {max_ratio}");
        assert!(max_ratio < 8.0, "max ratio {max_ratio} implausibly large");
    }

    #[test]
    fn efficiencies_are_valid_fractions() {
        for p in cached() {
            for pt in &p.points {
                assert!(pt.dsp_efficiency > 0.0 && pt.dsp_efficiency < 1.0);
                assert!(pt.cpu_efficiency > 0.0 && pt.cpu_efficiency < 1.0);
            }
        }
    }

    #[test]
    fn type3_efficiency_grows_with_n_for_both_devices() {
        let panels = cached();
        let c = &panels[2];
        let first = c.points.first().unwrap();
        let last = c.points.last().unwrap();
        assert!(last.dsp_efficiency > first.dsp_efficiency);
        assert!(last.cpu_efficiency > first.cpu_efficiency);
    }

    #[test]
    fn render_shows_ratios() {
        let s = render(cached());
        assert!(s.contains("ratio"));
        assert!(s.contains("OpenBLAS eff"));
    }
}
