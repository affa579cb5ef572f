//! A plan-catalog round trip holds each plan once.
//!
//! A counting global allocator tracks the heap while a context holding
//! 20 000 tuned plans saves them, and while a fresh context with room
//! for all of them in its plan cache loads the file back:
//!
//! * saving streams the document to the file entry by entry, so it
//!   peaks at most 1 MiB above the state the context already holds (a
//!   save that builds the whole document as one string first needs
//!   ~630 B more per entry);
//! * loading stages each plan once, in a table whose index is also the
//!   duplicate-key check and the catalog-hit flag, and serves it from
//!   there without copying it into the plan cache, so it peaks at 400 B
//!   per entry including the file's text (274 measured; a load that also
//!   preloads the plan cache measures 328, and one that also holds the
//!   decoded catalog, a key set and a second copy of the tuned plans
//!   needs ~1 200);
//! * the loaded context then retains at most 200 B per entry (141
//!   measured: a plan and its index slot; 322 with the plan cache
//!   preloaded as well).
//!
//! The check counts bytes, not time, so it is deterministic.

mod support;

use dspsim::HwConfig;
use ftimm::{CatalogLoad, FtImm, GemmShape, Strategy};
use support::{peak_above_live, synthetic_catalog};

const ENTRIES: usize = 20_000;

#[test]
fn a_catalog_round_trip_holds_each_plan_once() {
    let path = std::env::temp_dir().join(format!(
        "ftimm-round-trip-alloc-{}.json",
        std::process::id()
    ));
    let cfg = HwConfig::default();
    let tuned = FtImm::with_plan_cache_capacity(cfg.clone(), ENTRIES + 16);
    let load = CatalogLoad {
        catalog: synthetic_catalog(ENTRIES),
        quarantined: 0,
    };
    assert_eq!(tuned.attach_catalog(load), ENTRIES);

    let (saved, save_peak, _) = peak_above_live(|| tuned.save_plan_catalog(&path));
    saved.expect("the catalog saves");
    drop(tuned);

    let fresh = FtImm::with_plan_cache_capacity(cfg, ENTRIES + 16);
    let (loaded, load_peak, retained) = peak_above_live(|| fresh.load_plan_catalog(&path));
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.expect("the catalog loads"), ENTRIES);
    assert_eq!(fresh.tuning_stats().quarantined, 0);
    let last = GemmShape::new(32 + ENTRIES - 1, 32, 512);
    assert_eq!(fresh.plan_full(&last, Strategy::Auto, 8).shape, last);
    assert_eq!(fresh.timing_simulations(), 0);

    assert!(
        save_peak <= 1 << 20,
        "saving {ENTRIES} plans ({bytes} bytes) peaked {save_peak} bytes above the held state, \
         over 1 MiB"
    );
    let per_entry = load_peak / ENTRIES;
    assert!(
        load_peak <= 400 * ENTRIES,
        "loading {ENTRIES} plans ({bytes} bytes) into a fresh context peaked at {load_peak} \
         bytes of heap ({per_entry} per entry), over 400 per entry"
    );
    let per_entry = retained / ENTRIES;
    assert!(
        retained <= 200 * ENTRIES,
        "the context retains {retained} bytes of heap for {ENTRIES} loaded plans \
         ({per_entry} per entry), over 200 per entry"
    );
}
