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
use kernelgen::SlotIndex;
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::fs::File;
use std::hash::BuildHasher;
use std::io::{self, BufWriter, Read, Write};
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

/// Plans held once each, in the order their keys were first stored (the
/// order a saved catalog lists them), with an index by key.  The index
/// is also what a decode checks duplicate keys against, and each plan
/// records whether an attached catalog supplied its key (catalog-hit
/// attribution).  A context keeps its tuned plans in one; a catalog load
/// stages the document's plans in another and hands it over whole.
///
/// A key is its plan's shape and cores plus the requested strategy, so a
/// plan is stored with that strategy alone, the table holds only plans
/// that agree with their keys, and the index ([`SlotIndex`]) holds
/// positions, not keys.
#[derive(Debug, Default)]
pub(crate) struct PlanTable {
    entries: Vec<Stored>,
    index: SlotIndex,
    hasher: RandomState,
}

/// One plan of a [`PlanTable`].
#[derive(Debug, Clone, Copy)]
struct Stored {
    strategy: Strategy,
    from_catalog: bool,
    plan: Plan,
}

impl Stored {
    /// The key the plan answers to.
    fn key(&self) -> PlanKey {
        PlanKey {
            shape: self.plan.shape,
            cores: self.plan.cores,
            strategy: self.strategy,
        }
    }
}

/// Whether `plan` can be stored under `key`: its shape and cores are the
/// key's.
fn agrees(key: &PlanKey, plan: &Plan) -> bool {
    plan.shape == key.shape && plan.cores == key.cores
}

impl PlanTable {
    /// A table of `entries` (a later repeat of a key replaces the plan in
    /// the earlier one's place), every key flagged as a catalog's, and how
    /// many entries were refused because their plan disagrees with their
    /// key.
    pub(crate) fn of_catalog(entries: Vec<(PlanKey, Plan)>) -> (PlanTable, usize) {
        let mut table = PlanTable::default();
        let mut refused = 0;
        for (key, plan) in entries {
            if agrees(&key, &plan) {
                table.upsert(key, plan, true);
            } else {
                refused += 1;
            }
        }
        (table, refused)
    }

    /// Where `key`'s plan sits in `entries`.
    fn position(&self, key: &PlanKey) -> Option<usize> {
        let entries = &self.entries;
        self.index
            .find(self.hasher.hash_one(key), |at| entries[at].key() == *key)
    }

    /// Append a plan for a key not yet held and index it.
    fn push(&mut self, stored: Stored) {
        if self.entries.len() == self.entries.capacity() {
            // Grow by a quarter, not double: a context that tunes a long
            // stream leaves at most a fifth of its plan storage unused.
            self.entries.reserve_exact(self.entries.len() / 4 + 16);
        }
        self.entries.push(stored);
        self.index(self.entries.len() - 1);
    }

    /// Index the plan at `at` (not indexed yet).
    fn index(&mut self, at: usize) {
        let PlanTable {
            entries,
            index,
            hasher,
        } = self;
        let hash_at = |i: usize| hasher.hash_one(entries[i].key());
        index.insert(hash_at(at), at, hash_at);
    }

    /// Store `plan` (which must agree with `key`) under `key`, replacing
    /// the plan in place if the key is held; a key stays flagged once a
    /// catalog has supplied it.
    pub(crate) fn upsert(&mut self, key: PlanKey, plan: Plan, from_catalog: bool) {
        debug_assert!(agrees(&key, &plan), "{key:?} stored with {plan:?}");
        match self.position(&key) {
            Some(at) => {
                let stored = &mut self.entries[at];
                stored.plan = plan;
                stored.from_catalog |= from_catalog;
            }
            None => self.push(Stored {
                strategy: key.strategy,
                from_catalog,
                plan,
            }),
        }
    }

    /// Store a plan (which must agree with `key`) under a key not yet
    /// held; `false`, and nothing stored, if the key is held.
    fn insert_new(&mut self, key: PlanKey, plan: Plan, from_catalog: bool) -> bool {
        if self.position(&key).is_some() {
            return false;
        }
        self.push(Stored {
            strategy: key.strategy,
            from_catalog,
            plan,
        });
        true
    }

    /// The held plans with their keys, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = (PlanKey, Plan)> + Clone + '_ {
        self.entries.iter().map(|s| (s.key(), s.plan))
    }

    /// `key`'s plan, and whether an attached catalog supplied the key.
    pub(crate) fn get(&self, key: &PlanKey) -> Option<(Plan, bool)> {
        self.position(key).map(|at| {
            let stored = &self.entries[at];
            (stored.plan, stored.from_catalog)
        })
    }

    /// Drop every plan `keep` refuses, keeping the order of the rest;
    /// returns how many were dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Plan) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|s| keep(&s.plan));
        let kept = self.entries.len();
        if kept < before {
            self.index.clear();
            for at in 0..kept {
                self.index(at);
            }
        }
        before - kept
    }

    /// Take over every plan of `other`, in its order (an empty table
    /// takes `other` itself, without copying a plan).
    pub(crate) fn merge(&mut self, other: PlanTable) {
        if self.entries.is_empty() {
            *self = other;
            return;
        }
        for stored in &other.entries {
            self.upsert(stored.key(), stored.plan, stored.from_catalog);
        }
    }
}

/// Serialise a catalog as a self-contained JSON document, one entry per
/// line (stable field order, exact `f64` round-trip, `"inf"` sentinel
/// for infinities — the same conventions as [`super::plan_json`]).
/// Streams through one [`Writer`]: no tree is built, whatever the number
/// of entries.
pub fn catalog_json(catalog: &PlanCatalog) -> String {
    let mut w = Writer::new(2);
    // A `Writer` appends to memory, so the entry hook cannot fail.
    let _ = encode(&mut w, catalog.entries.iter().copied(), |_| Ok(()));
    w.finish()
}

/// Write the catalog document of `entries` into `w`, calling `each`
/// after every entry (where a file writer drains what `w` holds).
/// `entries` must not repeat a key.
fn encode(
    w: &mut Writer,
    entries: impl Iterator<Item = (PlanKey, Plan)>,
    mut each: impl FnMut(&mut Writer) -> io::Result<()>,
) -> io::Result<()> {
    w.begin_obj();
    w.key("schema").str(PLAN_CATALOG_SCHEMA);
    w.key("entries").begin_arr();
    for (key, plan) in entries {
        w.begin_obj();
        w.key("key").begin_obj();
        write_shape(w, &key.shape);
        w.key("cores").u64(key.cores as u64);
        w.key("strategy").str(key.strategy.tag());
        w.end_obj();
        w.key("plan");
        write_plan(w, &plan);
        w.end_obj();
        each(w)?;
    }
    w.end_arr();
    w.end_obj();
    Ok(())
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
    if !agrees(&key, &plan) {
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
    let mut collected = Collected::default();
    let quarantined = decode(Parser::new(text), |key, plan| collected.stage(key, plan))?;
    Ok(collected.load(quarantined))
}

/// A catalog being decoded, with the set of its keys (the duplicate-key
/// check).
#[derive(Default)]
struct Collected {
    catalog: PlanCatalog,
    keys: HashSet<PlanKey>,
}

impl Collected {
    /// Keep an entry whose key is new; `false` for a repeated key.
    fn stage(&mut self, key: PlanKey, plan: Plan) -> bool {
        let new = self.keys.insert(key);
        if new {
            self.catalog.entries.push((key, plan));
        }
        new
    }

    fn load(self, quarantined: usize) -> CatalogLoad {
        CatalogLoad {
            catalog: self.catalog,
            quarantined,
        }
    }
}

/// The decode behind [`catalog_from_json`]: every entry that validates
/// goes to `stage`, which returns `false` for a key it already holds (the
/// document is then refused); returns how many entries were
/// quarantined.
fn decode(
    parser: Parser<'_>,
    mut stage: impl FnMut(PlanKey, Plan) -> bool,
) -> Result<usize, String> {
    let mut duplicate = None;
    let mut quarantined = 0usize;
    let top = parser.parse_streaming(&["entries"], |_, item| match parse_entry(&item) {
        Ok((key, plan)) => {
            if !stage(key, plan) {
                duplicate.get_or_insert(key);
            }
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
    Ok(quarantined)
}

/// Write a catalog to `path` (atomicity is the caller's concern; the
/// document is always complete or the write errors).
pub fn save_catalog(path: &Path, catalog: &PlanCatalog) -> Result<(), String> {
    write_catalog(path, catalog.entries.iter().copied())
}

/// Write the catalog document of `entries` to `path`, streamed through a
/// buffered file one entry at a time: the bytes of [`catalog_json`],
/// without ever holding the document.  `entries` must not repeat a key.
pub(crate) fn write_catalog(
    path: &Path,
    entries: impl Iterator<Item = (PlanKey, Plan)>,
) -> Result<(), String> {
    let write = || -> io::Result<()> {
        let mut file = BufWriter::new(File::create(path)?);
        let mut w = Writer::new(2);
        encode(&mut w, entries, |w| w.drain_into(&mut file))?;
        file.write_all(w.finish().as_bytes())?;
        file.flush()
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))
}

/// Read and parse a catalog from `path`, decoding the file as it is read
/// ([`Parser::from_reader`]): the verdicts and errors of
/// [`catalog_from_json`] on its text, without holding the text.
pub fn load_catalog(path: &Path) -> Result<CatalogLoad, String> {
    let mut collected = Collected::default();
    let quarantined = read_catalog(path, |key, plan| collected.stage(key, plan))?;
    Ok(collected.load(quarantined))
}

/// [`load_catalog`] into a staged [`PlanTable`] (every key flagged as a
/// catalog's), also returning the quarantined count: the table is all
/// the load keeps.
pub(crate) fn load_table(path: &Path) -> Result<(PlanTable, usize), String> {
    let mut table = PlanTable::default();
    let quarantined = read_catalog(path, |key, plan| table.insert_new(key, plan, true))?;
    // Done growing: keep the plans at their exact size.
    table.entries.shrink_to_fit();
    Ok((table, quarantined))
}

/// [`decode`] the catalog file at `path` as it is read
/// ([`Parser::from_reader`]), so its text is never held whole.  Verdicts
/// and errors are those of [`catalog_from_json`] on the file's text: a
/// read error is reported as one, and a refused document is refused
/// first for not being UTF-8, as reading the text whole refuses it.
fn read_catalog(path: &Path, stage: impl FnMut(PlanKey, Plan) -> bool) -> Result<usize, String> {
    let read_error = |e: io::Error| format!("read {}: {e}", path.display());
    let mut file = Recorded {
        inner: File::open(path).map_err(read_error)?,
        error: None,
    };
    let decoded = decode(Parser::from_reader(&mut file), stage);
    if let Some(e) = file.error {
        return Err(read_error(e));
    }
    if decoded.is_err() {
        std::fs::read_to_string(path).map_err(read_error)?;
    }
    decoded
}

/// A reader whose first error (an interruption aside) ends its input and
/// is kept for the caller.
struct Recorded<R> {
    inner: R,
    error: Option<io::Error>,
}

impl<R: Read> Read for Recorded<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.error.is_some() {
            return Ok(0);
        }
        match self.inner.read(buf) {
            Err(e) if e.kind() != io::ErrorKind::Interrupted => {
                self.error = Some(e);
                Ok(0)
            }
            read => read,
        }
    }
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
    fn the_plan_table_matches_a_keyed_list_model() {
        let mut table = PlanTable::default();
        let mut model: Vec<(PlanKey, Plan, bool)> = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..3000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let shape = GemmShape::new(8 + (x % 40) as usize, 32, 512);
            let strategy = [Strategy::Auto, Strategy::MPar][(x >> 8) as usize % 2];
            let key = PlanKey {
                shape,
                cores: 8,
                strategy,
            };
            let plan = Plan {
                simulations: step,
                ..sample_plan(shape, 8)
            };
            let flag = (x >> 9) % 2 == 1;
            let at = model.iter().position(|(k, ..)| *k == key);
            if x.is_multiple_of(5) {
                assert_eq!(table.insert_new(key, plan, flag), at.is_none());
                if at.is_none() {
                    model.push((key, plan, flag));
                }
            } else {
                table.upsert(key, plan, flag);
                match at {
                    Some(i) => (model[i].1, model[i].2) = (plan, model[i].2 | flag),
                    None => model.push((key, plan, flag)),
                }
            }
            if step % 700 == 699 {
                let before = model.len();
                model.retain(|(_, p, _)| p.shape.m % 3 != 0);
                assert_eq!(table.retain(|p| p.shape.m % 3 != 0), before - model.len());
            }
            let listed: Vec<(PlanKey, Plan)> = model.iter().map(|&(k, p, _)| (k, p)).collect();
            assert_eq!(table.iter().collect::<Vec<_>>(), listed, "step {step}");
            for &(k, p, flag) in &model {
                assert_eq!(table.get(&k), Some((p, flag)), "step {step}");
            }
        }
        // Merging keeps the receiver's order and appends the newcomers.
        let (catalog, refused) = PlanTable::of_catalog(sample_catalog().entries);
        assert_eq!(refused, 0);
        let before: Vec<(PlanKey, Plan)> = table.iter().collect();
        table.merge(catalog);
        let merged: Vec<(PlanKey, Plan)> = table.iter().collect();
        assert_eq!(merged[..before.len()], before[..]);
        assert_eq!(merged[before.len()..], sample_catalog().entries[..]);
        assert!(sample_catalog()
            .entries
            .iter()
            .all(|(k, p)| table.get(k) == Some((*p, true))));
    }

    #[test]
    fn a_streamed_load_gives_the_verdicts_of_decoding_the_whole_text() {
        let text = catalog_json(&sample_catalog());
        let mut dup = sample_catalog();
        dup.entries.push(dup.entries[0]);
        let with_bytes = |bytes: &[u8]| {
            let mut doc = text.clone().into_bytes();
            doc.extend_from_slice(bytes);
            doc
        };
        let cases: Vec<Vec<u8>> = vec![
            text.clone().into_bytes(),
            text[..text.len() / 2].into(),
            text.replacen("\"tuned\"", "\"vibes\"", 1).into(),
            catalog_json(&dup).into(),
            text.replacen(PLAN_CATALOG_SCHEMA, "ftimm-plan-catalog-v1", 1)
                .into(),
            with_bytes(b" "),
            with_bytes(b"\xff"),
            text.replacen("\"tuned\"", "\"tun\u{e9}d\"", 1).into(),
            {
                let mut doc = text.clone().into_bytes();
                let at = text.find("tuned").unwrap();
                doc[at + 2] = 0xff;
                doc
            },
        ];
        for (i, bytes) in cases.iter().enumerate() {
            let path = std::env::temp_dir().join(format!(
                "ftimm-store-stream-{}-{i}.json",
                std::process::id()
            ));
            std::fs::write(&path, bytes).unwrap();
            let whole = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))
                .and_then(|text| catalog_from_json(&text))
                .map(|l| (l.catalog.entries, l.quarantined));
            let loaded = load_catalog(&path).map(|l| (l.catalog.entries, l.quarantined));
            let staged = load_table(&path).map(|(t, q)| (t.iter().collect::<Vec<_>>(), q));
            std::fs::remove_file(&path).ok();
            assert_eq!(loaded, whole, "case {i}");
            assert_eq!(staged, whole, "case {i}");
        }
        let missing = Path::new("/nonexistent/ftimm.json");
        let refused = load_catalog(missing).unwrap_err();
        assert!(
            refused.starts_with("read /nonexistent/ftimm.json: "),
            "{refused}"
        );
        assert_eq!(load_table(missing).err(), Some(refused));
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
