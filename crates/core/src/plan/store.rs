//! The on-disk plan catalog: `ftimm-plan-catalog-v2`.
//!
//! Tuned plans persist across processes through a single JSON document,
//! streamed through [`dspsim::minijson::Writer`] (one entry per line)
//! and decoded one entry at a time ([`Parser::parse_streaming`]) through
//! [`dspsim::minijson::Fields`]; neither direction builds a tree of the
//! document:
//!
//! ```json
//! {
//!   "schema": "ftimm-plan-catalog-v2",
//!   "entries": [ { "key": {...}, "plan": { ...ftimm-plan-v1... } } ]
//! }
//! ```
//!
//! A `v1` catalog (which also carried the tuner's calibration records)
//! is refused like any other schema: its plans are re-tuned, not
//! migrated.
//!
//! Each entry embeds a complete `ftimm-plan-v1` object under `"plan"`,
//! so a catalog entry is exactly as expressive (and exactly as strictly
//! validated) as a standalone plan file.  Failure policy:
//!
//! * **Document-level** problems — unreadable file, truncated/invalid
//!   JSON, missing or unknown `schema` (`v1` included), an unknown or
//!   duplicated
//!   top-level key, the same plan key stored twice — reject the whole
//!   catalog with `Err`.  A catalog that lies about its own structure
//!   cannot be trusted entry-by-entry.
//! * **Entry-level** corruption — a mangled plan, an unknown or
//!   duplicated key inside an entry, a key that disagrees with its plan's
//!   shape/cores — is *quarantined*: the entry is skipped and counted in
//!   [`CatalogLoad::quarantined`], never a panic and never a poisoned
//!   load.  One bad entry must not cost the warm start of every other
//!   shape.
//!
//! Loading a catalog pre-populates the LRU [`super::PlanCache`] (via
//! [`crate::FtImm::with_plan_catalog`]), which is what makes
//! `plan_full` warm-start simulation-free across processes.

use super::{plan_from_value, read_shape, write_plan, write_shape, Plan, PlanKey};
use crate::Strategy;
use dspsim::minijson::{Fields, Parser, Value, Writer};
use std::collections::HashSet;
use std::path::Path;

/// Document identifier embedded in (and required from) catalog JSON.
pub const PLAN_CATALOG_SCHEMA: &str = "ftimm-plan-catalog-v2";

/// A persistable set of tuned plans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanCatalog {
    /// Tuned plans, keyed exactly like the in-memory plan cache.
    pub entries: Vec<(PlanKey, Plan)>,
}

impl PlanCatalog {
    /// Insert or replace the plan stored under `key`.
    pub fn upsert(&mut self, key: PlanKey, plan: Plan) {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = plan,
            None => self.entries.push((key, plan)),
        }
    }
}

/// The result of parsing a catalog: the clean part plus how many
/// corrupt entries were quarantined along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogLoad {
    /// Every entry that validated.
    pub catalog: PlanCatalog,
    /// Corrupt entries skipped (0 for a pristine catalog).
    pub quarantined: usize,
}

/// Serialise a catalog as a self-contained JSON document, one entry per
/// line (stable field order, exact `f64` round-trip, `"inf"` sentinel
/// for infinities — the same conventions as [`super::plan_json`]).
/// Streams through one [`Writer`]: no tree is built, whatever the number
/// of entries.
pub fn catalog_json(catalog: &PlanCatalog) -> String {
    catalog_text(&catalog.entries)
}

/// [`catalog_json`] of a catalog held as its entries (a context writes
/// its tuned plans without first copying them into a [`PlanCatalog`]).
/// `entries` must not repeat a key.
pub(crate) fn catalog_text(entries: &[(PlanKey, Plan)]) -> String {
    let mut w = Writer::new(2);
    w.begin_obj();
    w.key("schema").str(PLAN_CATALOG_SCHEMA);
    w.key("entries").begin_arr();
    for (key, plan) in entries {
        w.begin_obj();
        w.key("key").begin_obj();
        write_shape(&mut w, &key.shape);
        w.key("cores").u64(key.cores as u64);
        w.key("strategy").str(key.strategy.tag());
        w.end_obj();
        w.key("plan");
        write_plan(&mut w, plan);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

fn parse_entry(v: &Value) -> Result<(PlanKey, Plan), String> {
    let mut entry = Fields::new(v, "entry")?;
    let mut k = Fields::new(entry.req("key")?, "key")?;
    let key = PlanKey {
        shape: read_shape(&mut k)?,
        cores: k.usize("cores")?,
        strategy: Strategy::from_tag(k.str("strategy")?)?,
    };
    k.finish()?;
    let plan = plan_from_value(entry.req("plan")?)?;
    entry.finish()?;
    if plan.shape != key.shape || plan.cores != key.cores {
        return Err("entry key does not match its plan".into());
    }
    Ok((key, plan))
}

/// Parse a catalog document produced by [`catalog_json`].
///
/// Structural problems (truncation, unknown schema, an unknown or
/// duplicated top-level key, duplicate plan keys) return `Err`; corrupt
/// individual entries — an unknown or duplicated key inside one
/// included — are quarantined and counted, never panicked on.
///
/// The `entries` array is decoded one element at a time
/// ([`Parser::parse_streaming`]), so no tree of the whole document is
/// built: the reader holds the catalog it returns, one element and the
/// set of plan keys seen.  The top level is then checked by [`Fields`]
/// with the streamed array left empty in its place, and the checks run
/// in the order a whole-tree decode makes them, so every document gets
/// the same verdict and error.
pub fn catalog_from_json(text: &str) -> Result<CatalogLoad, String> {
    let mut catalog = PlanCatalog::default();
    let mut keys = HashSet::new();
    let mut duplicate = None;
    let mut quarantined = 0usize;
    let top =
        Parser::new(text).parse_streaming(&["entries"], |_, item| match parse_entry(&item) {
            Ok((key, plan)) if keys.insert(key) => catalog.entries.push((key, plan)),
            Ok((key, _)) => {
                duplicate.get_or_insert(key);
            }
            Err(_) => quarantined += 1,
        })?;
    let mut top = Fields::new(&top, "catalog")?;
    top.schema(PLAN_CATALOG_SCHEMA)
        .map_err(|e| format!("{e}: this build reads {PLAN_CATALOG_SCHEMA:?}"))?;
    top.arr("entries")?;
    if let Some(key) = duplicate {
        return Err(format!(
            "duplicate catalog key for {} on {} cores",
            key.shape, key.cores
        ));
    }
    top.finish()?;
    Ok(CatalogLoad {
        catalog,
        quarantined,
    })
}

/// Write a catalog to `path` (atomicity is the caller's concern; the
/// document is always complete or the write errors).
pub fn save_catalog(path: &Path, catalog: &PlanCatalog) -> Result<(), String> {
    write_catalog_text(path, &catalog_json(catalog))
}

/// Write an encoded catalog to `path`.
pub(crate) fn write_catalog_text(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Read and parse a catalog from `path`.
pub fn load_catalog(path: &Path) -> Result<CatalogLoad, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    catalog_from_json(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanOrigin;
    use crate::{ChosenStrategy, GemmShape, MparBlocks};

    fn sample_plan(shape: GemmShape, cores: usize) -> Plan {
        Plan {
            shape,
            cores,
            strategy: ChosenStrategy::MPar(MparBlocks {
                n_g: 32,
                k_g: 512,
                m_a: 320,
                n_a: 32,
                k_a: 512,
                m_s: 8,
            }),
            origin: PlanOrigin::Tuned,
            predicted_s: 1.25e-3,
            simulated_s: 1.5e-3,
            candidates: 14,
            simulations: 9,
            coexec_cpu_rows: 0,
        }
    }

    fn sample_catalog() -> PlanCatalog {
        let shape = GemmShape::new(4096, 32, 512);
        let mut cat = PlanCatalog::default();
        cat.upsert(
            PlanKey {
                shape,
                cores: 8,
                strategy: Strategy::Auto,
            },
            sample_plan(shape, 8),
        );
        let other = GemmShape::new(32, 32, 16384);
        cat.upsert(
            PlanKey {
                shape: other,
                cores: 4,
                strategy: Strategy::Auto,
            },
            sample_plan(other, 4),
        );
        cat
    }

    #[test]
    fn catalogs_round_trip_exactly() {
        let cat = sample_catalog();
        let text = catalog_json(&cat);
        let load = catalog_from_json(&text).unwrap();
        assert_eq!(load.quarantined, 0);
        assert_eq!(load.catalog, cat);
        assert_eq!(catalog_json(&load.catalog), text);
    }

    #[test]
    fn empty_catalogs_round_trip() {
        let cat = PlanCatalog::default();
        let load = catalog_from_json(&catalog_json(&cat)).unwrap();
        assert_eq!(load.catalog, cat);
        assert_eq!(load.quarantined, 0);
    }

    #[test]
    fn truncated_and_unversioned_catalogs_are_rejected() {
        let text = catalog_json(&sample_catalog());
        assert!(catalog_from_json(&text[..text.len() / 2]).is_err());
        assert!(catalog_from_json(&text[..text.len() - 1]).is_err());
        let unknown = text.replace(PLAN_CATALOG_SCHEMA, "ftimm-plan-catalog-v9");
        assert!(catalog_from_json(&unknown)
            .unwrap_err()
            .contains("unsupported catalog schema"));
        assert!(catalog_from_json("{}").unwrap_err().contains("schema"));
        // A v1 catalog is refused by name, and the error says what this
        // build reads instead.
        let v1 = text.replace(PLAN_CATALOG_SCHEMA, "ftimm-plan-catalog-v1");
        let err = catalog_from_json(&v1).unwrap_err();
        assert!(err.contains("\"ftimm-plan-catalog-v1\""), "{err}");
        assert!(err.contains("\"ftimm-plan-catalog-v2\""), "{err}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let mut cat = sample_catalog();
        let dup = cat.entries[0];
        cat.entries.push(dup);
        assert!(catalog_from_json(&catalog_json(&cat))
            .unwrap_err()
            .contains("duplicate catalog key"));
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_fatal() {
        let text = catalog_json(&sample_catalog());
        // Mangle the first entry's plan origin: that entry quarantines,
        // the second entry survives.
        let mangled = text.replacen("\"tuned\"", "\"vibes\"", 1);
        let load = catalog_from_json(&mangled).unwrap();
        assert_eq!(load.quarantined, 1);
        assert_eq!(load.catalog.entries.len(), 1);
    }

    #[test]
    fn unknown_and_duplicated_keys_split_by_level() {
        let text = catalog_json(&sample_catalog());
        // At the top level the document lies about its own structure.
        let bad = text.replacen("\"entries\"", "\"extra\": 1,\n  \"entries\"", 1);
        let err = catalog_from_json(&bad).unwrap_err();
        assert!(err.contains("unknown catalog key \"extra\""), "{err}");
        let bad = text.replacen("\"entries\"", "\"entries\": [],\n  \"entries\"", 1);
        let err = catalog_from_json(&bad).unwrap_err();
        assert!(err.contains("duplicate catalog key \"entries\""), "{err}");
        // v1's records array is no longer part of the structure.
        let bad = text.replacen("\"entries\"", "\"records\": [],\n  \"entries\"", 1);
        let err = catalog_from_json(&bad).unwrap_err();
        assert!(err.contains("unknown catalog key \"records\""), "{err}");
        // Inside an entry, its key or its plan: one quarantine.
        for (needle, with) in [
            ("{\"key\": ", "{\"typo\": 1, \"key\": "),
            (
                "\"cores\": 8, \"strategy\"",
                "\"cores\": 8, \"cores\": 8, \"strategy\"",
            ),
            ("\"origin\": ", "\"coexec_cpu_row\": 128, \"origin\": "),
            (
                "\"kind\": \"mpar\"",
                "\"kind\": \"mpar\", \"kind\": \"mpar\"",
            ),
        ] {
            assert!(text.contains(needle), "{needle}");
            let load = catalog_from_json(&text.replacen(needle, with, 1)).unwrap();
            assert_eq!(load.quarantined, 1, "{with}");
            assert_eq!(load.catalog.entries.len(), 1, "{with}");
        }
    }

    #[test]
    fn key_plan_disagreement_is_quarantined() {
        let shape = GemmShape::new(4096, 32, 512);
        let mut cat = PlanCatalog::default();
        cat.upsert(
            PlanKey {
                shape,
                cores: 8,
                strategy: Strategy::Auto,
            },
            sample_plan(shape, 4), // cores disagree with the key
        );
        let load = catalog_from_json(&catalog_json(&cat)).unwrap();
        assert_eq!(load.quarantined, 1);
        assert!(load.catalog.entries.is_empty());
    }

    #[test]
    fn upsert_replaces_in_place() {
        let shape = GemmShape::new(8, 8, 8);
        let key = PlanKey {
            shape,
            cores: 2,
            strategy: Strategy::Auto,
        };
        let mut cat = PlanCatalog::default();
        cat.upsert(key, sample_plan(shape, 2));
        let mut newer = sample_plan(shape, 2);
        newer.simulations = 99;
        cat.upsert(key, newer);
        assert_eq!(cat.entries.len(), 1);
        assert_eq!(cat.entries[0].1.simulations, 99);
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let cat = sample_catalog();
        let path =
            std::env::temp_dir().join(format!("ftimm-store-test-{}.json", std::process::id()));
        save_catalog(&path, &cat).unwrap();
        let load = load_catalog(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(load.catalog, cat);
        assert!(load_catalog(Path::new("/nonexistent/ftimm.json")).is_err());
    }
}
