//! Pipeline tables in the style of the paper's Tables I–III.
//!
//! A pipeline table shows, for the steady-state loop body of a micro-kernel,
//! which mnemonic each functional unit issues in each cycle.

use crate::{Bundle, Program, Section, Unit};
use std::fmt;

/// Per-unit issue counts over a span of cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Instructions issued on each unit, by [`Unit::index`].
    pub issued: [u64; Unit::ALL.len()],
    /// Cycles spanned.
    pub cycles: u64,
}

impl Occupancy {
    /// Counts over a bundle sequence, one cycle per bundle.
    pub fn of_bundles(bundles: &[Bundle]) -> Self {
        let mut o = Occupancy {
            cycles: bundles.len() as u64,
            ..Occupancy::default()
        };
        for (unit, _) in bundles.iter().flat_map(Bundle::slots) {
            o.issued[unit.index()] += 1;
        }
        o
    }

    /// Dynamic counts over a program, loops expanded.
    pub fn of_program(program: &Program) -> Self {
        fn add(o: &mut Occupancy, sections: &[Section], times: u64) {
            for s in sections {
                match s {
                    Section::Straight(bundles) => {
                        let part = Occupancy::of_bundles(bundles);
                        o.cycles += times * part.cycles;
                        for (n, p) in o.issued.iter_mut().zip(part.issued) {
                            *n += times * p;
                        }
                    }
                    Section::Loop { trips, body, .. } => add(o, body, times * trips),
                }
            }
        }
        let mut o = Occupancy::default();
        add(&mut o, &program.sections, 1);
        o
    }

    /// Fraction of the cycles `unit` issues in (0 over no cycles).
    pub fn of(&self, unit: Unit) -> f64 {
        self.issued[unit.index()] as f64 / self.cycles.max(1) as f64
    }

    /// Mean occupancy of the three vector FMAC units.
    pub fn fmac(&self) -> f64 {
        (self.of(Unit::VectorFmac1) + self.of(Unit::VectorFmac2) + self.of(Unit::VectorFmac3)) / 3.0
    }
}

/// A rendered unit × cycle occupancy table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineTable {
    /// Table caption.
    pub title: String,
    /// One row per unit that issues at least one instruction.
    pub rows: Vec<PipelineRow>,
    /// Issue counts of the depicted bundles, and their number of cycles
    /// (columns).
    pub occupancy: Occupancy,
}

/// One row of a pipeline table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineRow {
    /// The functional unit for this row.
    pub unit: Unit,
    /// Mnemonic per cycle (`None` = idle).
    pub cells: Vec<Option<&'static str>>,
}

impl PipelineTable {
    /// Build a table from an explicit bundle sequence.
    pub fn from_bundles(title: impl Into<String>, bundles: &[Bundle]) -> Self {
        let occupancy = Occupancy::of_bundles(bundles);
        let rows = Unit::ALL
            .into_iter()
            .filter(|u| occupancy.issued[u.index()] > 0)
            .map(|unit| PipelineRow {
                unit,
                cells: bundles
                    .iter()
                    .map(|b| b.on_unit(unit).map(|i| i.opcode.mnemonic()))
                    .collect(),
            })
            .collect();
        PipelineTable {
            title: title.into(),
            rows,
            occupancy,
        }
    }

    /// Build a table from the steady-state body of the innermost loop of a
    /// program (the part the paper's tables depict).
    pub fn from_innermost_loop(title: impl Into<String>, program: &Program) -> Option<Self> {
        let body = innermost_loop_bundles(&program.sections)?;
        Some(Self::from_bundles(title, &body))
    }

    /// Occupancy (filled cells / total cells) of a specific unit row, or
    /// `None` if the unit never issues.
    pub fn occupancy(&self, unit: Unit) -> Option<f64> {
        (self.occupancy.issued[unit.index()] > 0).then(|| self.occupancy.of(unit))
    }

    /// Mean occupancy of the three vector FMAC units (0 if none issue).
    pub fn fmac_occupancy(&self) -> f64 {
        self.occupancy.fmac()
    }
}

/// Find the bundle list of the deepest loop body (pre-order, first found at
/// max depth).
fn innermost_loop_bundles(sections: &[Section]) -> Option<Vec<Bundle>> {
    let mut best: Option<(usize, Vec<Bundle>)> = None;
    fn walk(sections: &[Section], depth: usize, best: &mut Option<(usize, Vec<Bundle>)>) {
        for s in sections {
            if let Section::Loop { body, .. } = s {
                // Bundles directly inside this loop (not in nested loops).
                let direct: Vec<Bundle> = body
                    .iter()
                    .filter_map(|s| match s {
                        Section::Straight(b) => Some(b.clone()),
                        Section::Loop { .. } => None,
                    })
                    .flatten()
                    .collect();
                let has_nested = body.iter().any(|s| matches!(s, Section::Loop { .. }));
                if !direct.is_empty() && best.as_ref().is_none_or(|(d, _)| depth + 1 > *d) {
                    *best = Some((depth + 1, direct));
                }
                if has_nested {
                    walk(body, depth + 1, best);
                }
            }
        }
    }
    walk(sections, 0, &mut best);
    best.map(|(_, b)| b)
}

impl fmt::Display for PipelineTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|r| r.unit.row_label().len())
            .max()
            .unwrap_or(10)
            .max("Cycle".len());
        let cell_w = self
            .rows
            .iter()
            .flat_map(|r| r.cells.iter())
            .filter_map(|c| c.map(str::len))
            .max()
            .unwrap_or(3)
            .max(3);
        write!(f, "| {:label_w$} |", "Cycle")?;
        for c in 1..=self.occupancy.cycles {
            write!(f, " {c:^cell_w$} |")?;
        }
        writeln!(f)?;
        write!(f, "|{:-<w$}|", "", w = label_w + 2)?;
        for _ in 0..self.occupancy.cycles {
            write!(f, "{:-<w$}|", "", w = cell_w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "| {:label_w$} |", row.unit.row_label())?;
            for cell in &row.cells {
                write!(f, " {:^cell_w$} |", cell.unwrap_or(""))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddrExpr, BufId, Instruction, LoopLevel, MemSpace, Program, SReg, VReg};

    fn v(n: u16) -> VReg {
        VReg::new(n).unwrap()
    }

    fn body_bundle(full: bool) -> Bundle {
        let mut b = Bundle::new();
        b.push_auto(Instruction::vfmulas32(v(0), v(1), v(2)))
            .unwrap();
        if full {
            b.push_auto(Instruction::vfmulas32(v(3), v(4), v(5)))
                .unwrap();
            b.push_auto(Instruction::vfmulas32(v(6), v(7), v(8)))
                .unwrap();
            b.push_auto(Instruction::sldh(
                SReg::new(0).unwrap(),
                AddrExpr::flat(MemSpace::Sm, BufId::A, 0),
            ))
            .unwrap();
        }
        b
    }

    fn looped(bundles: Vec<Bundle>) -> Program {
        let mut p = Program::new("t");
        p.sections.push(Section::Loop {
            level: LoopLevel(0),
            trips: 8,
            body: vec![Section::Straight(bundles)],
        });
        p
    }

    #[test]
    fn rows_only_for_active_units() {
        let t = PipelineTable::from_bundles("x", &[body_bundle(false)]);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].unit, Unit::VectorFmac1);
    }

    #[test]
    fn occupancy_counts_filled_cells() {
        let t = PipelineTable::from_bundles("x", &[body_bundle(true), body_bundle(false)]);
        assert_eq!(t.occupancy(Unit::VectorFmac1), Some(1.0));
        assert_eq!(t.occupancy(Unit::VectorFmac2), Some(0.5));
        assert_eq!(t.occupancy(Unit::ScalarLs1), Some(0.5));
        assert_eq!(t.occupancy(Unit::Control), None);
        let expected = (1.0 + 0.5 + 0.5) / 3.0;
        assert!((t.fmac_occupancy() - expected).abs() < 1e-12);
    }

    #[test]
    fn program_occupancy_expands_loops() {
        let mut p = looped(vec![body_bundle(true), Bundle::new()]);
        p.sections.push(Section::Straight(vec![body_bundle(false)]));
        let o = Occupancy::of_program(&p);
        assert_eq!(o.cycles, p.cycles());
        assert_eq!(o.issued.iter().sum::<u64>(), p.instructions());
        assert_eq!(o.issued[Unit::VectorFmac1.index()], 9);
        assert_eq!(o.issued[Unit::VectorFmac2.index()], 8);
        assert!((o.of(Unit::ScalarLs1) - 8.0 / 17.0).abs() < 1e-12);
        assert_eq!(Occupancy::default().of(Unit::Control), 0.0);
    }

    #[test]
    fn innermost_loop_is_extracted() {
        let inner = Section::Loop {
            level: LoopLevel(1),
            trips: 4,
            body: vec![Section::Straight(vec![body_bundle(true)])],
        };
        let mut p = Program::new("t");
        p.sections.push(Section::Straight(vec![body_bundle(false)]));
        p.sections.push(Section::Loop {
            level: LoopLevel(0),
            trips: 2,
            body: vec![Section::Straight(vec![Bundle::new()]), inner],
        });
        let t = PipelineTable::from_innermost_loop("x", &p).unwrap();
        assert_eq!(t.occupancy.cycles, 1);
        assert_eq!(t.occupancy(Unit::VectorFmac2), Some(1.0));
    }

    #[test]
    fn display_has_header_and_rows() {
        let t = PipelineTable::from_innermost_loop("Table X", &looped(vec![body_bundle(true)]))
            .unwrap();
        let s = t.to_string();
        assert!(s.starts_with("Table X"));
        assert!(s.contains("Vector FMAC1"));
        assert!(s.contains("VFMULAS32"));
        assert!(s.contains("| Cycle"));
    }

    #[test]
    fn straight_line_program_has_no_table() {
        let mut p = Program::new("t");
        p.sections.push(Section::Straight(vec![body_bundle(true)]));
        assert!(PipelineTable::from_innermost_loop("x", &p).is_none());
    }
}
