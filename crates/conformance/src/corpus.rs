//! The persisted mismatch corpus.
//!
//! Every mismatch the fuzzer finds is shrunk and serialised to a small
//! JSON fixture under `tests/fixtures/conformance/`; the repo's
//! integration suite replays every fixture on every CI run, so a bug
//! found once by fuzzing can never silently return.  Fixtures are
//! hand-rolled JSON via [`dspsim::minijson`] and deliberately carry a *recipe*, not data: the case
//! seed regenerates the matrices and the fault plan exactly.
//!
//! Schema (`ftimm-conformance-case-v1`):
//!
//! ```json
//! {
//!   "schema": "ftimm-conformance-case-v1",
//!   "seed": 1234, "m": 40, "n": 17, "k": 5,
//!   "cores": 3, "strategy": "mpar", "oracle": "reference",
//!   "regime": "tiny-k",
//!   "fault_seed": 99,        // optional
//!   "note": "free-form text" // optional
//! }
//! ```
//!
//! Unknown keys are rejected so typos cannot silently disable a fixture.

use crate::fuzzer::{check_case, CaseSpec, Mismatch, OracleKind};
use crate::regime::Regime;
use dspsim::minijson::{quote, Parser, Value};
use ftimm::{FtImm, GemmShape, Strategy};
use std::fs;
use std::path::{Path, PathBuf};

/// The fixture schema identifier.
pub const SCHEMA: &str = "ftimm-conformance-case-v1";

/// Serialise a case (plus an optional free-form note) to fixture JSON.
pub fn case_to_json(case: &CaseSpec, note: Option<&str>) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"schema\": {},\n", quote(SCHEMA)));
    s.push_str(&format!("  \"seed\": {},\n", case.seed));
    s.push_str(&format!(
        "  \"m\": {}, \"n\": {}, \"k\": {},\n",
        case.shape.m, case.shape.n, case.shape.k
    ));
    s.push_str(&format!("  \"cores\": {},\n", case.cores));
    s.push_str(&format!(
        "  \"strategy\": {},\n",
        quote(case.strategy.tag())
    ));
    s.push_str(&format!("  \"oracle\": {},\n", quote(case.oracle.tag())));
    if let Some(fs) = case.fault_seed {
        s.push_str(&format!("  \"fault_seed\": {fs},\n"));
    }
    if let Some(n) = note {
        s.push_str(&format!("  \"note\": {},\n", quote(n)));
    }
    s.push_str(&format!(
        "  \"regime\": {}\n",
        quote(Regime::classify(&case.shape).tag())
    ));
    s.push('}');
    s
}

fn field_u64(obj: &[(String, Value)], key: &str) -> Result<u64, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .1
        .as_u64(key)
}

fn field_str<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a str, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .1
        .as_str(key)
}

/// Parse a fixture back into a case.  Strict: bad schema, unknown keys,
/// unknown tags and regime/shape disagreement are all errors.
pub fn case_from_json(text: &str) -> Result<CaseSpec, String> {
    let v = Parser::new(text).parse()?;
    let obj = v.as_obj("fixture")?;
    const KNOWN: [&str; 10] = [
        "schema",
        "seed",
        "m",
        "n",
        "k",
        "cores",
        "strategy",
        "oracle",
        "regime",
        "fault_seed",
    ];
    for (k, _) in obj {
        if k != "note" && !KNOWN.contains(&k.as_str()) {
            return Err(format!("unknown key {k:?}"));
        }
    }
    let schema = field_str(obj, "schema")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
    }
    let shape = GemmShape::new(
        field_u64(obj, "m")? as usize,
        field_u64(obj, "n")? as usize,
        field_u64(obj, "k")? as usize,
    );
    if shape.m == 0 || shape.n == 0 || shape.k == 0 {
        return Err(format!("degenerate shape {shape}"));
    }
    let regime_tag = field_str(obj, "regime")?;
    let regime =
        Regime::from_tag(regime_tag).ok_or_else(|| format!("unknown regime {regime_tag:?}"))?;
    if Regime::classify(&shape) != regime {
        return Err(format!(
            "fixture says regime {regime_tag:?} but {shape} classifies as {}",
            Regime::classify(&shape)
        ));
    }
    let strategy = Strategy::from_tag(field_str(obj, "strategy")?)?;
    let oracle_s = field_str(obj, "oracle")?;
    let oracle =
        OracleKind::from_tag(oracle_s).ok_or_else(|| format!("unknown oracle {oracle_s:?}"))?;
    let fault_seed = match v.get("fault_seed") {
        Some(x) => Some(x.as_u64("fault_seed")?),
        None => None,
    };
    Ok(CaseSpec {
        seed: field_u64(obj, "seed")?,
        shape,
        cores: field_u64(obj, "cores")?.max(1) as usize,
        strategy,
        oracle,
        fault_seed,
    })
}

/// Write a shrunk mismatch as a fixture file; returns the path.  The
/// file name encodes the case so independent failures never collide.
pub fn write_fixture(dir: &Path, m: &Mismatch) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let c = &m.case;
    let name = format!(
        "{}-{}-{}x{}x{}-s{}.json",
        c.oracle.tag(),
        c.strategy.tag(),
        c.shape.m,
        c.shape.n,
        c.shape.k,
        c.seed
    );
    let path = dir.join(name);
    fs::write(&path, case_to_json(c, Some(&m.detail)))?;
    Ok(path)
}

/// Outcome of replaying one fixture.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Fixture path.
    pub path: PathBuf,
    /// `Ok(())` if the case now conforms, `Err(why)` on parse failure or
    /// a still-reproducing mismatch.
    pub result: Result<(), String>,
}

/// Replay every `*.json` fixture in `dir` (sorted for determinism).
/// A missing directory is an empty corpus, not an error.
pub fn replay_dir(ft: &FtImm, dir: &Path) -> Vec<ReplayOutcome> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(_) => return Vec::new(),
    };
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let result = fs::read_to_string(&path)
                .map_err(|e| format!("read: {e}"))
                .and_then(|text| case_from_json(&text))
                .and_then(|case| check_case(ft, &case).map_err(|m| m.to_string()));
            ReplayOutcome { path, result }
        })
        .collect()
}

/// The canonical corpus directory for this checkout
/// (`tests/fixtures/conformance/` at the workspace root).
pub fn default_corpus_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR of whichever crate compiled this is
    // <root>/crates/<name>; hop to the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/fixtures/conformance")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftimm::Strategy;

    fn sample_case() -> CaseSpec {
        CaseSpec {
            seed: 1234,
            shape: GemmShape::new(40, 17, 5),
            cores: 3,
            strategy: Strategy::MPar,
            oracle: OracleKind::Reference,
            fault_seed: None,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let case = sample_case();
        // A static-verifier mismatch's note is a multi-line report.
        let text = case_to_json(&case, Some("note with \"quotes\"\nand a second line"));
        let back = case_from_json(&text).unwrap();
        assert_eq!(back, case);

        let mut with_fault = case;
        with_fault.oracle = OracleKind::FaultRecovery;
        with_fault.fault_seed = Some(99);
        let back = case_from_json(&case_to_json(&with_fault, None)).unwrap();
        assert_eq!(back, with_fault);
    }

    #[test]
    fn strict_parsing_rejects_bad_fixtures() {
        let case = sample_case();
        let good = case_to_json(&case, None);
        // Unknown key.
        let bad = good.replacen("\"seed\"", "\"sed\"", 1);
        assert!(case_from_json(&bad).is_err());
        // Wrong schema.
        let bad = good.replacen("case-v1", "case-v9", 1);
        assert!(case_from_json(&bad).is_err());
        // Regime disagreeing with the shape.
        let bad = good.replacen("\"tiny-k\"", "\"square\"", 1);
        assert!(case_from_json(&bad).is_err());
        // Degenerate shape.
        let bad = good.replacen("\"m\": 40", "\"m\": 0", 1);
        assert!(case_from_json(&bad).is_err());
        // Not JSON at all.
        assert!(case_from_json("]").is_err());
    }

    #[test]
    fn write_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("ftimm-conformance-corpus-test");
        let _ = fs::remove_dir_all(&dir);
        let m = Mismatch {
            case: sample_case(),
            detail: "synthetic".into(),
        };
        let path = write_fixture(&dir, &m).unwrap();
        assert!(path.exists());
        let ft = FtImm::new(dspsim::HwConfig::default());
        let outcomes = replay_dir(&ft, &dir);
        assert_eq!(outcomes.len(), 1);
        // The sample case is a healthy one, so replay passes.
        outcomes[0].result.as_ref().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_missing_dir_is_empty() {
        let ft = FtImm::new(dspsim::HwConfig::default());
        assert!(replay_dir(&ft, Path::new("/nonexistent/corpus")).is_empty());
    }
}
