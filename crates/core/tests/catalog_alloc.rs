//! The plan-catalog decoder holds no tree of the document it reads.
//!
//! A counting global allocator tracks live and peak heap bytes while
//! `catalog_from_json` decodes a synthetic catalog of 125 000 entries
//! (~50 MB of JSON).  The peak heap held above the input text must stay
//! under twice the decoded catalog's own size plus 1 MiB: room for the
//! output's vector while it grows (a doubling `Vec` holds its old and new
//! buffers for one copy), the set of plan keys seen and the one element
//! being read.  A decoder that parses the whole document into a `Value`
//! tree first holds about 3 KB per entry, eight times that bound.  The
//! check counts bytes, not time, so it is deterministic; this binary
//! holds one test so no other thread allocates while it measures.

use ftimm::{
    catalog_from_json, catalog_json, ChosenStrategy, GemmShape, MparBlocks, Plan, PlanCatalog,
    PlanKey, PlanOrigin, Strategy,
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

const ENTRIES: usize = 125_000;

/// A catalog whose every entry validates, with seconds that need all 17
/// significant digits, as tuned ones do.
fn synthetic_catalog() -> PlanCatalog {
    let entries = (0..ENTRIES)
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
                coexec_cpu_rows: 0,
            };
            (key, plan)
        })
        .collect();
    PlanCatalog { entries }
}

#[test]
fn catalog_decode_holds_no_tree_of_the_document() {
    let text = catalog_json(&synthetic_catalog());

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let load = catalog_from_json(&text).expect("the synthetic catalog decodes");
    let peak = PEAK.load(Ordering::SeqCst) - base;

    assert_eq!(load.quarantined, 0);
    assert_eq!(load.catalog.entries.len(), ENTRIES);
    let output = load.catalog.entries.capacity() * std::mem::size_of::<(PlanKey, Plan)>();
    let bound = 2 * output + (1 << 20);
    assert!(
        peak <= bound,
        "decoding {} bytes of JSON peaked at {peak} bytes of heap above the input, \
         over the bound {bound} (2 × the {output}-byte output + 1 MiB)",
        text.len(),
    );
}
