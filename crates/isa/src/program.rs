//! Structured programs: straight-line bundle sequences and counted loops.
//!
//! Micro-kernels have a fixed control structure (an `mm` loop over an inner
//! `kk` loop), so programs model loops structurally with static trip counts
//! instead of interpreting branch semantics.  The `SBR` instruction still
//! appears inside loop bodies for issue-slot fidelity; the interpreter
//! treats it as the loop-back marker.

use crate::Bundle;
use std::fmt;

/// Identifies a loop nesting level for address expressions.
///
/// Level 0 is the outermost loop of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopLevel(pub u8);

/// One structural element of a program.
#[derive(Debug, Clone, PartialEq)]
pub enum Section {
    /// Bundles executed once, in order.
    Straight(Vec<Bundle>),
    /// A counted loop.
    Loop {
        /// Loop nesting level (for address-expression strides).
        level: LoopLevel,
        /// Number of times the body executes (≥ 1).
        trips: u64,
        /// Inner structure (bodies and nested loops).
        body: Vec<Section>,
    },
}

impl Section {
    /// Total cycles (bundles) this section occupies, loops expanded.
    pub fn cycles(&self) -> u64 {
        match self {
            Section::Straight(bundles) => bundles.len() as u64,
            Section::Loop { trips, body, .. } => {
                trips * body.iter().map(Section::cycles).sum::<u64>()
            }
        }
    }

    /// Total f32 multiply-add lane operations, loops expanded.
    pub fn fma_lanes(&self) -> u64 {
        match self {
            Section::Straight(bundles) => bundles.iter().map(|b| b.fma_lanes() as u64).sum(),
            Section::Loop { trips, body, .. } => {
                trips * body.iter().map(Section::fma_lanes).sum::<u64>()
            }
        }
    }

    /// Total instructions, loops expanded.
    pub fn instructions(&self) -> u64 {
        match self {
            Section::Straight(bundles) => bundles.iter().map(|b| b.len() as u64).sum(),
            Section::Loop { trips, body, .. } => {
                trips * body.iter().map(Section::instructions).sum::<u64>()
            }
        }
    }

    /// Maximum loop depth within this section.
    pub fn depth(&self) -> usize {
        match self {
            Section::Straight(_) => 0,
            Section::Loop { body, .. } => 1 + body.iter().map(Section::depth).max().unwrap_or(0),
        }
    }
}

/// A whole micro-kernel program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Top-level sections, executed in order.
    pub sections: Vec<Section>,
    /// Human-readable name (e.g. `uk_ms6_ka512_na96`).
    pub name: String,
}

impl Program {
    /// Create an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            sections: Vec::new(),
            name: name.into(),
        }
    }

    /// Total cycles with loops expanded (= issue bundles executed; the
    /// in-order core retires one bundle per cycle when schedules are
    /// hazard-free).
    pub fn cycles(&self) -> u64 {
        self.sections.iter().map(Section::cycles).sum()
    }

    /// Total f32 FMA lane operations (each is 2 flops).
    pub fn fma_lanes(&self) -> u64 {
        self.sections.iter().map(Section::fma_lanes).sum()
    }

    /// Total flops (FMA counted as 2).
    pub fn flops(&self) -> u64 {
        2 * self.fma_lanes()
    }

    /// Total dynamic instruction count.
    pub fn instructions(&self) -> u64 {
        self.sections.iter().map(Section::instructions).sum()
    }

    /// Maximum loop nesting depth.
    pub fn depth(&self) -> usize {
        self.sections.iter().map(Section::depth).max().unwrap_or(0)
    }

    /// Visit every bundle with its loop-index context.
    ///
    /// `f(indices, bundle)` is called once per dynamic bundle execution;
    /// `indices[level]` is the current trip of each enclosing loop.  This
    /// is the reference execution order used by the interpreter and tests.
    /// Returns early on error.  A loop nested no deeper than an enclosing
    /// one (which the verifier reports) shares that loop's index slot
    /// instead of unwinding the stack under it.
    pub fn visit<E>(&self, f: &mut impl FnMut(&[u64], &Bundle) -> Result<(), E>) -> Result<(), E> {
        let mut indices = Vec::new();
        for s in &self.sections {
            Self::visit_section(s, &mut indices, f)?;
        }
        Ok(())
    }

    fn visit_section<E>(
        section: &Section,
        indices: &mut Vec<u64>,
        f: &mut impl FnMut(&[u64], &Bundle) -> Result<(), E>,
    ) -> Result<(), E> {
        match section {
            Section::Straight(bundles) => {
                for b in bundles {
                    f(indices, b)?;
                }
                Ok(())
            }
            Section::Loop { level, trips, body } => {
                let (lvl, outer) = (level.0 as usize, indices.len());
                if outer <= lvl {
                    indices.resize(lvl + 1, 0);
                }
                for trip in 0..*trips {
                    indices[lvl] = trip;
                    for s in body {
                        Self::visit_section(s, indices, f)?;
                    }
                }
                indices.truncate(lvl.max(outer));
                Ok(())
            }
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; kernel {}", self.name)?;
        fn go(sections: &[Section], indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(indent);
            let mut prev_straight = false;
            for s in sections {
                match s {
                    Section::Straight(bundles) => {
                        // Separate adjacent straight sections so the
                        // assembly text parses back losslessly.
                        if prev_straight {
                            writeln!(f, "{pad}.sect")?;
                        }
                        prev_straight = true;
                        for b in bundles {
                            writeln!(f, "{pad}{b}")?;
                        }
                    }
                    Section::Loop { level, trips, body } => {
                        prev_straight = false;
                        writeln!(f, "{pad}.loop L{} x{}", level.0, trips)?;
                        go(body, indent + 1, f)?;
                        writeln!(f, "{pad}.endloop")?;
                    }
                }
            }
            Ok(())
        }
        go(&self.sections, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instruction, VReg};

    fn fmac_bundle() -> Bundle {
        let v = |n| VReg::new(n).unwrap();
        let mut b = Bundle::new();
        b.push_auto(Instruction::vfmulas32(v(0), v(1), v(2)))
            .unwrap();
        b
    }

    fn simple_loop(trips: u64, body_cycles: usize) -> Section {
        Section::Loop {
            level: LoopLevel(0),
            trips,
            body: vec![Section::Straight(vec![fmac_bundle(); body_cycles])],
        }
    }

    #[test]
    fn cycles_expand_loops() {
        let mut p = Program::new("t");
        p.sections.push(Section::Straight(vec![Bundle::new(); 3]));
        p.sections.push(simple_loop(10, 4));
        assert_eq!(p.cycles(), 3 + 40);
        assert_eq!(p.fma_lanes(), 40 * 32);
        assert_eq!(p.flops(), 80 * 32);
    }

    #[test]
    fn nested_loops_multiply() {
        let inner = simple_loop(5, 2);
        let inner = match inner {
            Section::Loop { body, trips, .. } => Section::Loop {
                level: LoopLevel(1),
                trips,
                body,
            },
            _ => unreachable!(),
        };
        let outer = Section::Loop {
            level: LoopLevel(0),
            trips: 3,
            body: vec![inner],
        };
        let mut p = Program::new("t");
        p.sections.push(outer);
        assert_eq!(p.cycles(), 3 * 5 * 2);
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn visit_produces_loop_indices_in_order() {
        let mut p = Program::new("t");
        let inner = Section::Loop {
            level: LoopLevel(1),
            trips: 2,
            body: vec![Section::Straight(vec![fmac_bundle()])],
        };
        p.sections.push(Section::Loop {
            level: LoopLevel(0),
            trips: 2,
            body: vec![inner],
        });
        let mut seen = Vec::new();
        p.visit::<()>(&mut |idx, _b| {
            seen.push(idx.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn display_contains_loop_markers() {
        let mut p = Program::new("demo");
        p.sections.push(simple_loop(2, 1));
        let s = p.to_string();
        assert!(s.contains(".loop L0 x2"));
        assert!(s.contains(".endloop"));
        assert!(s.contains("VFMULAS32"));
    }
}
