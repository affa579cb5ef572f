//! One harness for every in-repo decoder.
//!
//! Each row of [`codecs`] is one persisted schema: a sample generator, its
//! `encode` and its `decode`.  The same properties run over every row:
//! `decode(encode(x)) == x` and `encode(decode(text)) == text`; a
//! truncation at every byte, an unknown key injected into any object, any
//! key duplicated and any schema version moved one up or down each yield
//! `Err` (a quarantined catalog entry counts as `Err` here); a mutated
//! byte never panics and never decodes to something that does not
//! re-encode stably.  `ftimm-perf-baseline-v1` lives under `perf/` and is
//! out of scope.

use conformance::{case_from_json, case_to_json, generate_case, Rng64};
use dspsim::minijson::Parser;
use ftimm::{
    catalog_from_json, catalog_json, ChosenStrategy, GemmShape, KparBlocks, MparBlocks, Plan,
    PlanCatalog, PlanKey, PlanOrigin, Strategy,
};
use proptest::prelude::*;
use std::fmt::Debug;

/// `encode(decode(text))`.
type Recode = Box<dyn Fn(&str) -> Result<String, String>>;

/// One schema, with its value type erased so the rows fit one table.
struct Codec {
    name: &'static str,
    /// Encode the sample value `seed` denotes, checking on the way that
    /// `decode(encode(x)) == x`.
    sample: Box<dyn Fn(u64) -> String>,
    recode: Recode,
}

fn codec<T: PartialEq + Debug + 'static>(
    name: &'static str,
    generate: fn(&mut Rng64) -> T,
    encode: fn(&T) -> String,
    decode: fn(&str) -> Result<T, String>,
) -> Codec {
    Codec {
        name,
        sample: Box::new(move |seed| {
            let value = generate(&mut Rng64::new(seed));
            let text = encode(&value);
            let back = decode(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
            assert_eq!(back, value, "{name}: decode(encode(x)) != x\n{text}");
            text
        }),
        recode: Box::new(move |text| decode(text).map(|value| encode(&value))),
    }
}

fn codecs() -> Vec<Codec> {
    vec![
        codec("ftimm-plan-catalog-v2", catalog, catalog_json, |text| {
            let load = catalog_from_json(text)?;
            match load.quarantined {
                0 => Ok(load.catalog),
                n => Err(format!("{n} quarantined")),
            }
        }),
        codec(
            "ftimm-conformance-case-v1",
            |rng| generate_case(rng.next(), rng.range(0, 999)),
            |case| case_to_json(case, None),
            case_from_json,
        ),
    ]
}

// ------------------------------------------------------------ generators

/// Values the codecs must preserve exactly: mantissas that need all 17
/// digits across 24 decades, and the smallest subnormal (the worst case
/// for shortest-round-trip formatting).
fn finite(rng: &mut Rng64) -> f64 {
    if rng.range(0, 15) == 0 {
        return 4.9e-324;
    }
    let mantissa = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    mantissa * 10f64.powi(rng.range(0, 24) as i32 - 12)
}

/// A seconds field: finite, or the `"inf"` sentinel's `INFINITY`.
fn seconds(rng: &mut Rng64) -> f64 {
    if rng.range(0, 3) == 0 {
        f64::INFINITY
    } else {
        finite(rng)
    }
}

fn dim(rng: &mut Rng64) -> usize {
    rng.range(1, 70_000) as usize
}

fn chosen(rng: &mut Rng64) -> ChosenStrategy {
    let mut b = || rng.range(1, 4096) as usize;
    let (g0, g1, m_a, n_a, k_a, m_s) = (b(), b(), b(), b(), b(), b());
    match rng.range(0, 2) {
        0 => ChosenStrategy::MPar(MparBlocks {
            n_g: g0,
            k_g: g1,
            m_a,
            n_a,
            k_a,
            m_s,
        }),
        1 => ChosenStrategy::KPar(KparBlocks {
            m_g: g0,
            n_g: g1,
            m_a,
            n_a,
            k_a,
            m_s,
        }),
        _ => ChosenStrategy::TGemm,
    }
}

fn plan_for(rng: &mut Rng64, shape: GemmShape, cores: usize) -> Plan {
    const ORIGINS: [PlanOrigin; 5] = [
        PlanOrigin::Forced,
        PlanOrigin::Rules,
        PlanOrigin::CostModel,
        PlanOrigin::Pinned,
        PlanOrigin::Tuned,
    ];
    Plan {
        shape,
        cores,
        strategy: chosen(rng),
        origin: *rng.pick(&ORIGINS),
        predicted_s: seconds(rng),
        simulated_s: seconds(rng),
        candidates: rng.range(0, u32::MAX as u64) as u32,
        simulations: rng.range(0, 100) as u32,
    }
}

fn catalog(rng: &mut Rng64) -> PlanCatalog {
    let mut cat = PlanCatalog::default();
    for i in 0..rng.range(0, 3) as usize {
        // Disjoint M intervals per index make every key unique.
        let shape = GemmShape::new(64 * i + rng.range(1, 63) as usize, dim(rng), dim(rng));
        let key = PlanKey {
            shape,
            cores: rng.range(1, 16) as usize,
            strategy: *rng.pick(&Strategy::ALL),
        };
        cat.entries.push((key, plan_for(rng, shape, key.cores)));
    }
    cat
}

// ------------------------------------------------------- document surgery

/// Byte offsets of a document's structure: where each object opens and
/// where each key starts (string contents are skipped, so a brace or a
/// colon inside a note is not structure).
fn structure(text: &str) -> (Vec<usize>, Vec<(usize, usize)>) {
    let bytes = text.as_bytes();
    let (mut objects, mut keys) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => objects.push(i),
            b'"' => {
                let start = i;
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                let after = text[i + 1..].trim_start();
                if after.starts_with(':') {
                    keys.push((start, i + 1));
                }
            }
            _ => {}
        }
        i += 1;
    }
    (objects, keys)
}

fn splice(text: &str, at: usize, insert: &str) -> String {
    format!("{}{insert}{}", &text[..at], &text[at..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_decoder_round_trips_and_rejects_every_malformation(seed in 0u64..u64::MAX) {
        for c in codecs() {
            let name = c.name;
            let text = (c.sample)(seed);
            Parser::new(&text).parse().unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
            prop_assert_eq!((c.recode)(&text).as_ref(), Ok(&text), "{}", name);

            // A truncated file must never parse.
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                prop_assert!((c.recode)(&text[..cut]).is_err(), "{} cut at {}", name, cut);
            }

            let (objects, keys) = structure(&text);
            prop_assert!(!objects.is_empty() && !keys.is_empty(), "{}", name);
            // An unknown key in any object, at any depth.
            for &open in &objects {
                let empty = text[open + 1..].trim_start().starts_with('}');
                let extra = if empty { "\"zz_unknown\": 0" } else { "\"zz_unknown\": 0, " };
                let bad = splice(&text, open + 1, extra);
                prop_assert!((c.recode)(&bad).is_err(), "{}: accepted\n{}", name, bad);
            }
            // Any key twice: neither first-wins, last-wins nor a merge.
            for &(start, end) in &keys {
                let bad = splice(&text, start, &format!("{}: 0, ", &text[start..end]));
                prop_assert!((c.recode)(&bad).is_err(), "{}: accepted\n{}", name, bad);
            }
            // Any schema version but the one written, top-level or
            // embedded: the one after it and the one before.
            for (at, _) in text.match_indices("-v") {
                let digits = text[at + 2..].bytes().take_while(u8::is_ascii_digit).count();
                let end = at + 2 + digits;
                if digits == 0 || !text[end..].starts_with('"') {
                    continue;
                }
                let v: u32 = text[at + 2..end].parse().unwrap();
                for other in [Some(v + 1), v.checked_sub(1)].into_iter().flatten() {
                    let bad = format!("{}-v{other}{}", &text[..at], &text[end..]);
                    prop_assert!((c.recode)(&bad).is_err(), "{}: accepted\n{}", name, bad);
                }
            }

            // A mutated byte: no panic, and whatever still decodes is a
            // document the codec itself stands behind.
            let mut rng = Rng64::new(seed);
            for _ in 0..64 {
                let at = rng.range(0, text.len() as u64 - 1) as usize;
                let with = *rng.pick(b"0123456789-+.eE\"\\{}[]:, \nabfinrtuvxz_");
                let mut bytes = text.clone().into_bytes();
                bytes[at] = with;
                let Ok(mutated) = String::from_utf8(bytes) else { continue };
                if let Ok(again) = (c.recode)(&mutated) {
                    prop_assert_eq!((c.recode)(&again).as_ref(), Ok(&again), "{}", name);
                }
            }
        }
    }
}

/// Every committed fixture of every schema still loads.
#[test]
fn committed_fixtures_load_unchanged() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).unwrap();
    let mut loaded = 0;
    for entry in std::fs::read_dir(&fixtures).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        assert!(
            path.ends_with("plan-catalog.json"),
            "{}: no decoder for this fixture",
            path.display()
        );
        let load = catalog_from_json(&read(&path)).unwrap();
        assert_eq!(load.quarantined, 0, "{}", path.display());
        assert!(!load.catalog.entries.is_empty());
        loaded += 1;
    }
    for entry in std::fs::read_dir(fixtures.join("conformance")).unwrap() {
        let path = entry.unwrap().path();
        case_from_json(&read(&path)).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        loaded += 1;
    }
    assert!(loaded >= 7, "only {loaded} fixtures found");
}
