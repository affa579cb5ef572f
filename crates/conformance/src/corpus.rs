//! The persisted mismatch corpus.
//!
//! Every mismatch the fuzzer finds is shrunk and serialised to a small
//! JSON fixture under `tests/fixtures/conformance/`; the repo's
//! integration suite replays every fixture on every CI run, so a bug
//! found once by fuzzing can never silently return.  Fixtures are written
//! and decoded through [`dspsim::minijson`] and deliberately carry a
//! *recipe*, not data: the case seed regenerates the matrices and the
//! fault plan exactly.
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
//! Decoding is strict in the [`dspsim::minijson::Fields`] sense: unknown
//! and duplicated keys are rejected, so a typo cannot silently disable a
//! fixture and a repeated `seed` cannot replay a different case.

use crate::fuzzer::{check_case, CaseSpec, Mismatch, OracleKind};
use crate::regime::Regime;
use dspsim::minijson::{Fields, Parser, Writer};
use ftimm::{FtImm, GemmShape, Strategy};
use std::fs;
use std::path::{Path, PathBuf};

/// The fixture schema identifier.
pub const SCHEMA: &str = "ftimm-conformance-case-v1";

/// Serialise a case (plus an optional free-form note) to fixture JSON.
pub fn case_to_json(case: &CaseSpec, note: Option<&str>) -> String {
    let mut w = Writer::new(1);
    w.begin_obj();
    w.key("schema").str(SCHEMA);
    w.key("seed").u64(case.seed);
    w.key("m").u64(case.shape.m as u64);
    w.key("n").u64(case.shape.n as u64);
    w.key("k").u64(case.shape.k as u64);
    w.key("cores").u64(case.cores as u64);
    w.key("strategy").str(case.strategy.tag());
    w.key("oracle").str(case.oracle.tag());
    if let Some(fs) = case.fault_seed {
        w.key("fault_seed").u64(fs);
    }
    if let Some(n) = note {
        w.key("note").str(n);
    }
    w.key("regime").str(Regime::classify(&case.shape).tag());
    w.end_obj();
    w.finish()
}

/// Parse a fixture back into a case.  Strict: bad schema, unknown or
/// duplicated keys, unknown tags and regime/shape disagreement are all
/// errors.
pub fn case_from_json(text: &str) -> Result<CaseSpec, String> {
    let v = Parser::new(text).parse()?;
    let mut f = Fields::new(&v, "fixture")?;
    f.schema(SCHEMA)?;
    let shape = GemmShape::new(f.usize("m")?, f.usize("n")?, f.usize("k")?);
    if shape.m == 0 || shape.n == 0 || shape.k == 0 {
        return Err(format!("degenerate shape {shape}"));
    }
    let regime_tag = f.str("regime")?;
    let regime =
        Regime::from_tag(regime_tag).ok_or_else(|| format!("unknown regime {regime_tag:?}"))?;
    if Regime::classify(&shape) != regime {
        return Err(format!(
            "fixture says regime {regime_tag:?} but {shape} classifies as {}",
            Regime::classify(&shape)
        ));
    }
    let oracle_s = f.str("oracle")?;
    let case = CaseSpec {
        seed: f.u64("seed")?,
        shape,
        cores: f.usize("cores")?.max(1),
        strategy: Strategy::from_tag(f.str("strategy")?)?,
        oracle: OracleKind::from_tag(oracle_s)
            .ok_or_else(|| format!("unknown oracle {oracle_s:?}"))?,
        fault_seed: match f.opt("fault_seed") {
            Some(x) => Some(x.as_u64("fault_seed")?),
            None => None,
        },
    };
    // The note is for the human reading the fixture; nothing decodes it.
    f.opt("note");
    f.finish()?;
    Ok(case)
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
        let bad = good.replacen("\"seed\"", "\"sed\": 1,\n  \"seed\"", 1);
        let err = case_from_json(&bad).unwrap_err();
        assert!(err.contains("unknown fixture key \"sed\""), "{err}");
        // Duplicated key: neither copy may win.
        let bad = good.replacen("\"seed\": 1234", "\"seed\": 1234,\n  \"seed\": 99", 1);
        let err = case_from_json(&bad).unwrap_err();
        assert!(err.contains("duplicate fixture key \"seed\""), "{err}");
        // Missing key.
        let bad = good.replacen("\"seed\"", "\"note\"", 1);
        let err = case_from_json(&bad).unwrap_err();
        assert!(err.contains("fixture missing \"seed\""), "{err}");
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
