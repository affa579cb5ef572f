//! What the counting-allocator gates share: a global allocator that
//! tracks live and peak heap bytes, and a synthetic plan catalog.
//!
//! A binary that declares `mod support;` runs on the counting allocator.
//! Each such binary holds one test, so no other thread allocates while
//! it measures.

use ftimm::{
    ChosenStrategy, GemmShape, MparBlocks, Plan, PlanCatalog, PlanKey, PlanOrigin, Strategy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], counting the bytes it has handed out and not taken back.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks for the copy: count the new
        // one before the old one goes, so the peak is never understated.
        grew(new_size);
        // SAFETY: the caller's guarantees on `ptr`, `layout` and
        // `new_size` pass through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        shrank(if p.is_null() { new_size } else { layout.size() });
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f`; return what it returns, the peak heap bytes held above what
/// was live when it started, and the bytes still held above that when it
/// returned (its result included).
pub fn peak_above_live<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let r = f();
    let retained = LIVE.load(Ordering::SeqCst).saturating_sub(base);
    (r, PEAK.load(Ordering::SeqCst) - base, retained)
}

/// A catalog of `entries` distinct plans that every validate and fit the
/// default hardware, with seconds that need all 17 significant digits,
/// as tuned ones do.
pub fn synthetic_catalog(entries: usize) -> PlanCatalog {
    let entries = (0..entries)
        .map(|i| {
            let shape = GemmShape::new(32 + i, 32, 512);
            let key = PlanKey {
                shape,
                cores: 8,
                strategy: Strategy::Auto,
            };
            let plan = Plan {
                shape,
                cores: 8,
                strategy: ChosenStrategy::MPar(MparBlocks {
                    n_g: 32,
                    k_g: 512,
                    m_a: 320,
                    n_a: 32,
                    k_a: 512,
                    m_s: 8,
                }),
                origin: PlanOrigin::Tuned,
                predicted_s: 1e-3 / (i as f64 + 3.0),
                simulated_s: 1e-3 / (i as f64 + 7.0),
                candidates: 14,
                simulations: 9,
            };
            (key, plan)
        })
        .collect();
    PlanCatalog { entries }
}
