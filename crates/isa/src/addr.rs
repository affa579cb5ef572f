//! Loop-relative address expressions.
//!
//! Micro-kernel programs are executed many times per GEMM with different
//! scratchpad buffer placements (ping/pong buffers) and inside counted
//! loops.  Instead of modelling scalar address arithmetic, memory operands
//! carry a symbolic affine expression
//!
//! ```text
//! addr = buffer_base(buf) + offset + Σ_level stride[level] · index[level]
//! ```
//!
//! where `index[level]` is the current trip count of the enclosing loop at
//! that [`crate::program::LoopLevel`].  The interpreter resolves the buffer
//! base from its execution context; the hazard checker and pipeline tables
//! ignore addresses entirely.

use std::fmt;

/// Maximum loop nesting depth address expressions can refer to.
pub const MAX_LOOP_DEPTH: usize = 4;

/// The on-chip memory space an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// 64 KB scalar memory, private per core (holds `A_s`).
    Sm,
    /// 768 KB array memory, private per core (holds `B_a`, `C_a`).
    Am,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemSpace::Sm => "SM",
            MemSpace::Am => "AM",
        })
    }
}

/// Symbolic kernel buffer whose base address is bound at execution time.
///
/// The blocking layers double-buffer these, so the same kernel program runs
/// against alternating physical offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufId {
    /// The `A_s[m_s][k_a]` panel in SM.
    A,
    /// The `B_a[k_a][n_a]` panel in AM.
    B,
    /// The `C_a[m_s][n_a]` accumulator panel in AM.
    C,
}

impl fmt::Display for BufId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BufId::A => "A",
            BufId::B => "B",
            BufId::C => "C",
        })
    }
}

/// An affine, loop-relative byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrExpr {
    /// Memory space accessed.
    pub space: MemSpace,
    /// Kernel buffer providing the runtime base address.
    pub buf: BufId,
    /// Constant byte offset from the buffer base.
    pub offset: u64,
    /// Byte stride per enclosing loop level (level 0 = outermost).
    pub strides: [u64; MAX_LOOP_DEPTH],
}

impl AddrExpr {
    /// A plain `base + offset` address with no loop dependence.
    pub fn flat(space: MemSpace, buf: BufId, offset: u64) -> Self {
        AddrExpr {
            space,
            buf,
            offset,
            strides: [0; MAX_LOOP_DEPTH],
        }
    }

    /// Add a per-iteration stride at the given loop level.
    pub fn with_stride(mut self, level: usize, stride_bytes: u64) -> Self {
        assert!(level < MAX_LOOP_DEPTH, "loop level out of range");
        self.strides[level] = stride_bytes;
        self
    }

    /// Resolve the byte address for the given loop indices (buffer base is
    /// added separately by the interpreter).
    pub fn resolve(&self, indices: &[u64]) -> u64 {
        let mut addr = self.offset;
        for (level, &stride) in self.strides.iter().enumerate() {
            if stride != 0 {
                let idx = indices.get(level).copied().unwrap_or(0);
                addr += stride * idx;
            }
        }
        addr
    }
}

impl fmt::Display for AddrExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}+{}", self.space, self.buf, self.offset)?;
        for (level, &stride) in self.strides.iter().enumerate() {
            if stride != 0 {
                write!(f, "+{stride}*i{level}")?;
            }
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_address_resolves_to_offset() {
        let a = AddrExpr::flat(MemSpace::Am, BufId::B, 256);
        assert_eq!(a.resolve(&[]), 256);
        assert_eq!(a.resolve(&[9, 9, 9, 9]), 256);
    }

    #[test]
    fn strides_accumulate_per_level() {
        let a = AddrExpr::flat(MemSpace::Sm, BufId::A, 16)
            .with_stride(0, 1000)
            .with_stride(1, 8);
        assert_eq!(a.resolve(&[2, 3]), 16 + 2000 + 24);
        // Missing inner indices are treated as zero (outside that loop).
        assert_eq!(a.resolve(&[2]), 16 + 2000);
    }

    #[test]
    fn display_is_readable() {
        let a = AddrExpr::flat(MemSpace::Am, BufId::C, 128).with_stride(1, 768);
        assert_eq!(a.to_string(), "AM[C+128+768*i1]");
    }

    #[test]
    #[should_panic(expected = "loop level out of range")]
    fn deep_loop_level_panics() {
        let _ = AddrExpr::flat(MemSpace::Sm, BufId::A, 0).with_stride(MAX_LOOP_DEPTH, 4);
    }
}
