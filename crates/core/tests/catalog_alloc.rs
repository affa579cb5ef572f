//! The plan-catalog decoder holds no tree of the document it reads.
//!
//! A counting global allocator tracks live and peak heap bytes while
//! `catalog_from_json` decodes a synthetic catalog of 125 000 entries
//! (~50 MB of JSON).  The peak heap held above the input text must stay
//! under twice the decoded catalog's own size plus 1 MiB: room for the
//! output's vector while it grows (a doubling `Vec` holds its old and new
//! buffers for one copy), the index of plan keys seen and the one element
//! being read.  A decoder that parses the whole document into a `Value`
//! tree first holds about 3 KB per entry, eight times that bound.  The
//! check counts bytes, not time, so it is deterministic.

mod support;

use ftimm::{catalog_from_json, catalog_json, Plan, PlanKey};
use support::{peak_above_live, synthetic_catalog};

const ENTRIES: usize = 125_000;

#[test]
fn catalog_decode_holds_no_tree_of_the_document() {
    let text = catalog_json(&synthetic_catalog(ENTRIES));

    let (load, peak, _) =
        peak_above_live(|| catalog_from_json(&text).expect("the synthetic catalog decodes"));

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
