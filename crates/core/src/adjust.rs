//! Dynamic adjusting (§IV-C): computation-to-memory-ratio (CMR) driven
//! initial block sizes, runtime block shrinking/growing to the matrix
//! shape, and parallelisation-strategy selection.

use crate::shape::{BLOCK_ALIGN, MAX_MICROKERNEL_ROWS, MIN_MICROKERNEL_ROWS};
use crate::walk::Layout;
use crate::{GemmShape, KparBlocks, MparBlocks};
use dspsim::HwConfig;
use kernelgen::{KernelCache, KernelSpec, MAX_NA};

/// Eq. 1: CMR of the `B_g`-in-GSM transfer level of the M-parallel
/// strategy.
pub fn cmr_f1(m_a: f64, k_g: f64, n_g: f64, cores: f64) -> f64 {
    2.0 * m_a * k_g * n_g * cores / (cores * m_a * (k_g + 2.0 * n_g) + k_g * n_g)
}

/// Eq. 2: CMR of the AM-resident level of the M-parallel strategy.
pub fn cmr_f2(m_a: f64, k_a: f64, n_a: f64, cores: f64) -> f64 {
    2.0 * m_a * k_a * n_a * cores / (cores * m_a * (k_a + 2.0 * n_a) + k_a * n_a)
}

/// Eq. 3: CMR of the `C_g`-in-GSM level of the K-parallel strategy.
pub fn cmr_f3(m_g: f64, k_a: f64, n_g: f64, cores: f64) -> f64 {
    2.0 * m_g * k_a * n_g * cores / (cores * k_a * (m_g + n_g) + 2.0 * m_g * n_g)
}

/// Eq. 4: CMR of the AM-resident level of the K-parallel strategy.
pub fn cmr_f4(m_a: f64, k_a: f64, n_a: f64, cores: f64) -> f64 {
    2.0 * m_a * k_a * n_a * cores / (cores * k_a * (m_a + n_a) + 2.0 * m_a * n_a)
}

/// Largest micro-kernel height whose double-buffered `A_s` panel fits SM.
fn ms_sm_cap(cfg: &HwConfig, k_a: usize) -> usize {
    (cfg.sm_bytes / (2 * 4 * k_a)).max(1)
}

/// Largest `k_a` that still lets an `m_s = 6` kernel fit SM (the paper's
/// `m_s ≥ 6` rule takes priority over deeper panels).
fn ka_sm_cap(cfg: &HwConfig) -> usize {
    (cfg.sm_bytes / (2 * 4 * MIN_MICROKERNEL_ROWS)) / BLOCK_ALIGN * BLOCK_ALIGN
}

/// Pick the micro-kernel height: the largest `m_s` that fits the
/// double-buffered SM budget and whose generated kernel is within 1 % of
/// the best efficiency; divisors of `m_a` are preferred (no m-tail).
fn pick_ms(cache: &KernelCache, cfg: &HwConfig, m_a: usize, k_a: usize, n_a: usize) -> usize {
    let ms_max = ms_sm_cap(cfg, k_a).min(MAX_MICROKERNEL_ROWS);
    let mut best_eff = 0.0f64;
    let mut effs = Vec::new();
    for m_s in 1..=ms_max {
        let eff = KernelSpec::new(m_s, k_a, n_a)
            .ok()
            .and_then(|s| cache.get(s).ok())
            .map_or(0.0, |k| k.efficiency(cfg));
        best_eff = best_eff.max(eff);
        effs.push((m_s, eff));
    }
    let good: Vec<usize> = effs
        .iter()
        .filter(|(_, e)| *e >= best_eff * 0.99)
        .map(|(m, _)| *m)
        .collect();
    good.iter()
        .rev()
        .find(|&&m| m_a.is_multiple_of(m))
        .copied()
        .or_else(|| good.last().copied())
        .unwrap_or(1)
}

/// CMR-optimal initial blocks for the M-parallel strategy, under the
/// scratchpad capacities (AM holds `C_a` once and `B_a` twice; SM holds
/// `A_s` twice; GSM holds `B_g` twice).
pub fn initial_mpar(cache: &KernelCache, cfg: &HwConfig, cores: usize) -> MparBlocks {
    let n_a = MAX_NA;
    let n_g = MAX_NA;
    let budget = Layout::am_rows(cfg, n_a); // m_a + 2·k_a ≤ budget
    let mut best = (0.0f64, 32usize, 32usize);
    let mut k_a = 32;
    while 2 * k_a + 32 <= budget {
        let m_a = (budget - 2 * k_a) / 32 * 32;
        if m_a >= 32 {
            let f = cmr_f2(m_a as f64, k_a as f64, n_a as f64, cores as f64);
            if f > best.0 {
                best = (f, m_a, k_a);
            }
        }
        k_a += 32;
    }
    let (_, m_a, k_a) = best;
    // k_g: as large as possible (maximises C_a reuse), a multiple of k_a,
    // within the double-buffered GSM budget.
    let k_g = (Layout::b_g_rows(cfg, n_g) / k_a).max(1) * k_a;
    let m_s = pick_ms(cache, cfg, m_a, k_a, n_a);
    MparBlocks {
        n_g,
        k_g,
        m_a,
        n_a,
        k_a,
        m_s,
    }
}

/// CMR-optimal initial blocks for the K-parallel strategy (GSM holds the
/// `C_g` panel once; AM as in M-par).
pub fn initial_kpar(cache: &KernelCache, cfg: &HwConfig, cores: usize) -> KparBlocks {
    let n_a = MAX_NA;
    let budget = Layout::am_rows(cfg, n_a);
    let mut best = (0.0f64, 32usize, 32usize);
    let mut k_a = 32;
    while 2 * k_a + 32 <= budget {
        let m_a = (budget - 2 * k_a) / 32 * 32;
        if m_a >= 32 {
            let f = cmr_f4(m_a as f64, k_a as f64, n_a as f64, cores as f64);
            if f > best.0 {
                best = (f, m_a, k_a);
            }
        }
        k_a += 32;
    }
    let (_, m_a, k_a) = best;
    // C_g panel: maximise f3 over power-of-two (m_g, n_g) within half of
    // GSM (the rest is head-room for reduction staging).
    let elems = cfg.gsm_bytes / 8;
    let mut bestg = (0.0f64, 1024usize, 512usize);
    let mut m_g = m_a.next_power_of_two();
    while m_g * 128 <= elems {
        let n_g = (elems / m_g).next_power_of_two() / 2;
        let f = cmr_f3(m_g as f64, k_a as f64, n_g as f64, cores as f64);
        if f > bestg.0 {
            bestg = (f, m_g, n_g);
        }
        m_g *= 2;
    }
    let (_, m_g, n_g) = bestg;
    let m_s = pick_ms(cache, cfg, m_a, k_a, n_a);
    KparBlocks {
        m_g,
        n_g,
        m_a,
        n_a,
        k_a,
        m_s,
    }
}

/// Runtime adjustment of M-parallel blocks to a concrete shape (§IV-C):
/// shrink `n` blocks to the real N (freeing AM for deeper/taller blocks),
/// clamp to the matrix, and re-balance `m_a` so all cores get work.
pub fn adjust_mpar(
    cache: &KernelCache,
    cfg: &HwConfig,
    shape: &GemmShape,
    cores: usize,
) -> MparBlocks {
    let n_a = shape.n.min(MAX_NA);
    let n_g = n_a;
    let budget = Layout::am_rows(cfg, n_a);
    // Re-run the CMR search with the freed budget and the real K; k_a is
    // capped so an m_s ≥ 6 A_s panel still double-buffers in SM.
    let ka_cap = ka_sm_cap(cfg);
    let mut best = (0.0f64, 32usize, 32usize);
    let mut k_a = 32;
    while 2 * k_a + 32 <= budget && k_a <= ka_cap {
        if k_a >= shape.k + 32 {
            break;
        }
        let k_eff = k_a.min(shape.k);
        let m_a = (budget - 2 * k_a) / 32 * 32;
        if m_a >= 32 {
            let f = cmr_f2(m_a as f64, k_eff as f64, n_a as f64, cores as f64);
            if f > best.0 {
                best = (f, m_a, k_eff);
            }
        }
        k_a += 32;
    }
    let (_, mut m_a, k_a) = best;
    // Balance the parallel dimension: no core should sit idle while
    // another holds more than one chunk of slack.
    let per_core = shape.m.div_ceil(cores);
    if per_core < m_a {
        m_a = per_core.div_ceil(32).max(1) * 32;
    }
    m_a = m_a.min(budget.saturating_sub(2 * 32).max(32));
    let m_s = if shape.m >= MIN_MICROKERNEL_ROWS {
        pick_ms(cache, cfg, m_a, k_a, n_a).max(MIN_MICROKERNEL_ROWS.min(m_a))
    } else {
        shape.m
    };
    let k_g = (Layout::b_g_rows(cfg, n_g) / k_a).max(1) * k_a;
    let k_g = k_g.min(shape.k.div_ceil(k_a) * k_a);
    MparBlocks {
        n_g,
        k_g,
        m_a,
        n_a,
        k_a,
        m_s,
    }
}

/// Runtime adjustment of K-parallel blocks to a concrete shape.
pub fn adjust_kpar(
    cache: &KernelCache,
    cfg: &HwConfig,
    shape: &GemmShape,
    cores: usize,
) -> KparBlocks {
    let init = initial_kpar(cache, cfg, cores);
    let n_a = shape.n.min(MAX_NA);
    let n_g = n_a;
    let budget = Layout::am_rows(cfg, n_a);
    let mut m_a = init.m_a.min(shape.m.div_ceil(32) * 32).max(32);
    // Grow the parallel (K) dimension block as far as the AM budget, the
    // SM budget (m_s ≥ 6 must still fit) and balance allow.
    let mut k_a = ((budget.saturating_sub(m_a)) / 2 / 32).max(1) * 32;
    let per_core = shape.k.div_ceil(cores);
    if per_core < k_a {
        k_a = per_core.div_ceil(32).max(1) * 32;
    }
    k_a = k_a
        .min(shape.k.div_ceil(32) * 32)
        .min(ka_sm_cap(cfg))
        .max(32);
    // Whatever k_a freed goes back to m_a.
    m_a = ((budget.saturating_sub(2 * k_a)) / 32 * 32)
        .min(shape.m.div_ceil(32) * 32)
        .max(32.min(budget.saturating_sub(2 * k_a).max(1)));
    let m_g = init.m_g.min(shape.m.next_power_of_two()).max(1);
    let m_s = if shape.m >= MIN_MICROKERNEL_ROWS {
        pick_ms(cache, cfg, m_a, k_a, n_a).max(MIN_MICROKERNEL_ROWS.min(m_a.min(shape.m)))
    } else {
        shape.m
    };
    KparBlocks {
        m_g,
        n_g,
        m_a: m_a.min(m_g),
        n_a,
        k_a,
        m_s,
    }
}

/// The strategy dynamic adjusting settles on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChosenStrategy {
    /// M-dimension parallelisation with the given blocks.
    MPar(MparBlocks),
    /// K-dimension parallelisation with the given blocks.
    KPar(KparBlocks),
    /// Traditional fixed-block GEMM (shapes outside the irregular scope).
    TGemm,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (KernelCache, HwConfig) {
        let cfg = HwConfig::default();
        (KernelCache::new(cfg.clone()), cfg)
    }

    #[test]
    fn cmr_formulas_match_paper_examples() {
        // Paper's M-par initial blocks maximise f2 under m_a + 2k_a = 2048.
        let f_paper = cmr_f2(320.0, 864.0, 96.0, 8.0);
        for (m_a, k_a) in [
            (256.0, 896.0),
            (384.0, 832.0),
            (448.0, 800.0),
            (128.0, 960.0),
        ] {
            assert!(
                f_paper >= cmr_f2(m_a, k_a, 96.0, 8.0) - 0.5,
                "({m_a},{k_a}) should not beat the paper's blocks decisively"
            );
        }
        // All CMRs grow with block volume.
        assert!(cmr_f1(320.0, 5888.0, 96.0, 8.0) > cmr_f1(320.0, 512.0, 96.0, 8.0));
        assert!(cmr_f3(1024.0, 512.0, 512.0, 8.0) > cmr_f3(128.0, 512.0, 512.0, 8.0));
        assert!(cmr_f4(1024.0, 512.0, 96.0, 8.0) > cmr_f4(64.0, 512.0, 96.0, 8.0));
    }

    #[test]
    fn initial_mpar_reproduces_paper_blocks() {
        let (cache, cfg) = setup();
        let b = initial_mpar(&cache, &cfg, 8);
        // The AM capacity constraint is exactly the paper's: m_a + 2k_a = 2048.
        assert_eq!(b.m_a + 2 * b.k_a, 2048, "{b:?}");
        // CMR optimum at (320, 864) as in §IV-C.
        assert_eq!((b.m_a, b.k_a), (320, 864), "{b:?}");
        assert_eq!(b.n_a, 96);
        assert_eq!(b.n_g, 96);
        // k_g is a multiple of k_a and fills the double-buffered GSM.
        assert_eq!(b.k_g % b.k_a, 0);
        assert!(2 * b.k_g * b.n_g * 4 <= cfg.gsm_bytes);
        assert!(
            (b.k_g + b.k_a) * 2 * b.n_g * 4 > cfg.gsm_bytes,
            "k_g maximal"
        );
        // m_s: ≥ 6, fits SM double-buffered, divides m_a (paper: 8).
        assert!(b.m_s >= 6);
        assert_eq!(b.m_a % b.m_s, 0);
        assert!(2 * b.m_s * b.k_a * 4 <= cfg.sm_bytes);
        assert_eq!(b.m_s, 8, "paper's §IV-C value");
    }

    #[test]
    fn initial_kpar_blocks_fit_and_match_family() {
        let (cache, cfg) = setup();
        let b = initial_kpar(&cache, &cfg, 8);
        assert_eq!(b.m_a + 2 * b.k_a, 2048, "AM exactly filled: {b:?}");
        assert!(b.m_g * b.n_g * 4 <= cfg.gsm_bytes);
        assert!(2 * b.m_s * b.k_a * 4 <= cfg.sm_bytes);
        assert_eq!(b.n_a, 96);
        // The paper lands on m_a = 1024, k_a = 512; f4 is quite flat, so we
        // accept the same order of magnitude with k_a ≥ 256.
        assert!(b.m_a >= 512, "{b:?}");
        assert!(b.k_a >= 256, "{b:?}");
    }

    #[test]
    fn adjust_shrinks_to_small_n_and_grows_depth() {
        let (cache, cfg) = setup();
        let shape = GemmShape::new(1 << 16, 32, 32);
        let b = adjust_mpar(&cache, &cfg, &shape, 8);
        assert_eq!(b.n_a, 32);
        assert!(b.k_a >= 32);
        // Freed AM goes to taller C panels than the N=96 default.
        let init = initial_mpar(&cache, &cfg, 8);
        assert!(b.m_a >= init.m_a, "{b:?} vs {init:?}");
        assert!(b.m_s >= 6);
    }

    #[test]
    fn adjust_balances_small_m_across_cores() {
        let (cache, cfg) = setup();
        let shape = GemmShape::new(512, 32, 1 << 16);
        let b = adjust_mpar(&cache, &cfg, &shape, 8);
        // 512 rows over 8 cores: chunks of ≤ 64 rows keep all cores busy.
        assert!(b.m_a <= 64, "{b:?}");
        let bk = adjust_kpar(&cache, &cfg, &shape, 8);
        assert!(bk.k_a * 8 <= (1 << 16) + bk.k_a * 8, "sane");
        assert!(bk.n_a == 32);
    }

    #[test]
    fn tiny_m_clamps_ms() {
        let (cache, cfg) = setup();
        let shape = GemmShape::new(3, 16, 4096);
        let b = adjust_kpar(&cache, &cfg, &shape, 8);
        assert_eq!(b.m_s, 3);
        assert!(b.m_a >= 3);
    }
}
