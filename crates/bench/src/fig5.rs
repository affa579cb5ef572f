//! Fig. 5 — multi-core (8-core GPDSP cluster) performance of ftIMM vs
//! TGEMM on the three irregular types, with the roofline bound (paper
//! highlights: up to 4.2× / 5.8× / 7.2× over TGEMM for types 1/2/3, and
//! up to 67 % of the roofline).

use crate::common::{format_table, Harness, N_SWEEP};
use ftimm::roofline::roofline_gflops;
use ftimm::{GemmShape, Strategy};

/// One measured point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Problem shape.
    pub shape: GemmShape,
    /// ftIMM GFLOPS (8 cores).
    pub ftimm: f64,
    /// TGEMM GFLOPS (8 cores).
    pub tgemm: f64,
    /// Roofline bound in GFLOPS.
    pub roofline: f64,
}

impl Point {
    /// ftIMM speedup over TGEMM.
    pub fn speedup(&self) -> f64 {
        self.ftimm / self.tgemm
    }

    /// Fraction of the roofline achieved by ftIMM.
    pub fn roofline_fraction(&self) -> f64 {
        self.ftimm / self.roofline
    }
}

/// One panel of Fig 5.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Label.
    pub label: &'static str,
    /// Points.
    pub points: Vec<Point>,
}

const CORES: usize = 8;

fn point(h: &Harness, m: usize, n: usize, k: usize) -> Point {
    let shape = GemmShape::new(m, n, k);
    Point {
        shape,
        ftimm: h.gflops(&shape, Strategy::Auto, CORES),
        tgemm: h.tgemm_gflops(&shape, CORES),
        roofline: roofline_gflops(h.ft.cfg(), &shape, CORES),
    }
}

/// Compute all six panels on 8 cores.
///
/// Debug builds use truncated M/K sweeps so `cargo test` stays fast; the
/// release harness (`bench fig5`, `bench paper`) runs the paper's full ranges.
pub fn compute() -> Vec<Panel> {
    let h = Harness::new();
    let top = if cfg!(debug_assertions) { 19 } else { 22 };
    let m_sweep: Vec<usize> = (16..=top).map(|e| 1usize << e).collect();
    let k_sweep = m_sweep.clone();
    let mk_sweep = if cfg!(debug_assertions) {
        vec![4096usize, 12288, 20480]
    } else {
        vec![4096usize, 8192, 12288, 16384, 20480]
    };
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
        Panel {
            label: "(d) type 1: N=K=32, M swept",
            points: m_sweep.iter().map(|&m| point(&h, m, 32, 32)).collect(),
        },
        Panel {
            label: "(e) type 2: M=N=32, K swept",
            points: k_sweep.iter().map(|&k| point(&h, 32, 32, k)).collect(),
        },
        Panel {
            label: "(f) type 3: N=32, M=K swept",
            points: mk_sweep.iter().map(|&mk| point(&h, mk, 32, mk)).collect(),
        },
    ]
}

/// Render the panels.
pub fn render(panels: &[Panel]) -> String {
    let mut out =
        String::from("Fig. 5 — ftIMM vs TGEMM on 8 cores of a GPDSP cluster (GFLOPS)\n\n");
    for p in panels {
        let rows: Vec<Vec<String>> = p
            .points
            .iter()
            .map(|pt| {
                vec![
                    pt.shape.to_string(),
                    format!("{:.1}", pt.ftimm),
                    format!("{:.1}", pt.tgemm),
                    format!("{:.2}x", pt.speedup()),
                    format!("{:.1}", pt.roofline),
                    format!("{:.0}%", 100.0 * pt.roofline_fraction()),
                ]
            })
            .collect();
        out.push_str(&format_table(
            p.label,
            &["MxNxK", "ftIMM", "TGEMM", "speedup", "roofline", "%roof"],
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

    fn panels() -> &'static [Panel] {
        cached()
    }

    #[test]
    fn ftimm_wins_every_multicore_point_with_multi_x_peaks() {
        let mut max_speedup = 0.0f64;
        for p in panels() {
            for pt in &p.points {
                assert!(pt.speedup() > 1.0, "{}: {:?}", p.label, pt);
                max_speedup = max_speedup.max(pt.speedup());
            }
        }
        // Paper: up to 7.2×; we require a clear multi-× peak.
        assert!(max_speedup > 3.0, "max speedup only {max_speedup}");
    }

    #[test]
    fn roofline_is_respected_and_approached() {
        let mut best_frac = 0.0f64;
        for p in panels() {
            for pt in &p.points {
                assert!(
                    pt.ftimm <= pt.roofline * 1.001,
                    "{}: above roofline {:?}",
                    p.label,
                    pt
                );
                best_frac = best_frac.max(pt.roofline_fraction());
            }
        }
        // Paper: up to 67 % of the roofline.
        assert!(best_frac > 0.5, "best roofline fraction {best_frac}");
        assert!(best_frac < 1.0);
    }

    #[test]
    fn larger_m_helps_type1() {
        // Fig 5(d): benefit grows with M (better reuse).
        let panels = panels();
        let d = &panels[3];
        let first = d.points.first().unwrap();
        let last = d.points.last().unwrap();
        assert!(last.ftimm > first.ftimm);
        assert!(last.speedup() >= first.speedup() * 0.95);
    }

    #[test]
    fn type3_outperforms_other_types_at_same_n() {
        // §V-C3: the third type achieves the highest absolute GFLOPS.
        let panels = panels();
        let at_n32 = |idx: usize| {
            panels[idx]
                .points
                .iter()
                .find(|pt| pt.shape.n == 32)
                .unwrap()
                .ftimm
        };
        let t1 = at_n32(0);
        let t2 = at_n32(1);
        let t3 = at_n32(2);
        assert!(t3 > t1 && t3 > t2, "t3 {t3} vs t1 {t1}, t2 {t2}");
    }

    #[test]
    fn type2_gains_with_k() {
        // Fig 5(e): more K amortises the reduction overhead.
        let panels = panels();
        let e = &panels[4];
        assert!(e.points.last().unwrap().ftimm >= e.points.first().unwrap().ftimm * 0.9);
    }

    #[test]
    fn render_includes_roofline() {
        let s = render(panels());
        assert!(s.contains("%roof"));
        assert!(s.contains("(f)"));
    }
}
