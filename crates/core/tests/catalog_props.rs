//! Property tests over what is particular to the `ftimm-plan-catalog-v2`
//! codec: a plan key stored twice rejects the document, and entry-level
//! corruption (a key disagreeing with its embedded plan) quarantines
//! exactly that entry and keeps the rest.  The decoder streams the
//! `entries` array, and is exactly as strict as a decode of the whole
//! tree about the top level around it.  Attaching a catalog re-checks
//! every plan against the context's hardware: one that does not fit is
//! quarantined too, never served.  The properties every decoder
//! shares — exact round trip, truncation, unknown and duplicated JSON
//! keys, unknown schema versions — run over this schema as one row of the
//! table in the workspace root's `tests/codecs.rs`.

use dspsim::HwConfig;
use ftimm::{
    catalog_from_json, catalog_json, ChosenStrategy, FtImm, GemmShape, KparBlocks, MparBlocks,
    Plan, PlanCatalog, PlanKey, PlanOrigin, Strategy, TuneConfig, Walk,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// Seconds values the codec must preserve exactly: finite positives of
/// wildly varying magnitude, plus the `"inf"` sentinel.
fn arb_seconds() -> BoxedStrategy<f64> {
    prop_oneof![
        (1e-12f64..1e3).boxed(),
        Just(f64::INFINITY).boxed(),
        Just(4.9e-324f64).boxed(), // smallest subnormal: worst case for `{:?}`
    ]
    .boxed()
}

fn arb_chosen() -> BoxedStrategy<ChosenStrategy> {
    prop_oneof![
        (
            1usize..64,
            1usize..64,
            1usize..64,
            (1usize..16, 1usize..64, 6usize..15)
        )
            .prop_map(|(n_g, k_g, m_a, (n_a, k_a, m_s))| {
                ChosenStrategy::MPar(MparBlocks {
                    n_g: n_g * 16,
                    k_g: k_g * 32,
                    m_a: m_a * 32,
                    n_a,
                    k_a: k_a * 32,
                    m_s,
                })
            }),
        (
            1usize..64,
            1usize..64,
            1usize..64,
            (1usize..16, 1usize..64, 6usize..15)
        )
            .prop_map(|(m_g, n_g, m_a, (n_a, k_a, m_s))| {
                ChosenStrategy::KPar(KparBlocks {
                    m_g: m_g * 64,
                    n_g: n_g * 16,
                    m_a: m_a * 32,
                    n_a,
                    k_a: k_a * 32,
                    m_s,
                })
            }),
        Just(ChosenStrategy::TGemm),
    ]
    .boxed()
}

fn arb_origin() -> BoxedStrategy<PlanOrigin> {
    prop_oneof![
        Just(PlanOrigin::Forced),
        Just(PlanOrigin::Rules),
        Just(PlanOrigin::CostModel),
        Just(PlanOrigin::Pinned),
        Just(PlanOrigin::Tuned),
    ]
    .boxed()
}

/// One catalog entry minus its M dimension, which `arb_catalog` derives
/// from the entry index so keys are unique by construction.
type EntrySpec = (
    (usize, usize, usize, usize), // m_small, n, k, cores
    usize,                        // requested-strategy index
    ChosenStrategy,
    PlanOrigin,
    (f64, f64), // predicted_s, simulated_s
    (u32, u32), // candidates, simulations
);

fn arb_entry() -> BoxedStrategy<EntrySpec> {
    (
        (1usize..64, 1usize..4096, 1usize..4096, 1usize..16),
        0usize..Strategy::ALL.len(),
        arb_chosen(),
        arb_origin(),
        (arb_seconds(), arb_seconds()),
        (0u32..1000, 0u32..100),
    )
        .boxed()
}

fn build_catalog(specs: Vec<EntrySpec>) -> PlanCatalog {
    let entries = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let ((m_small, n, k, cores), strat, strategy, origin, secs, counts) = spec;
            // Disjoint M intervals per index make every key unique.
            let shape = GemmShape::new(64 * i + m_small, n, k);
            let key = PlanKey {
                shape,
                cores,
                strategy: Strategy::ALL[strat],
            };
            let plan = Plan {
                shape,
                cores,
                strategy,
                origin,
                predicted_s: secs.0,
                simulated_s: secs.1,
                candidates: counts.0,
                simulations: counts.1,
            };
            (key, plan)
        })
        .collect();
    PlanCatalog { entries }
}

fn arb_nonempty_catalog() -> BoxedStrategy<PlanCatalog> {
    prop::collection::vec(arb_entry(), 1..8)
        .prop_map(build_catalog)
        .boxed()
}

proptest! {
    /// A document carrying the same plan key twice is rejected outright
    /// (not quarantined): silently keeping either copy could change
    /// which plan a warm start serves.
    #[test]
    fn duplicate_keys_are_rejected(catalog in arb_nonempty_catalog(), pick in 0usize..64) {
        let mut dup = catalog;
        let copy = dup.entries[pick % dup.entries.len()];
        dup.entries.push(copy);
        prop_assert!(catalog_from_json(&catalog_json(&dup)).is_err());
    }

    /// An entry whose key disagrees with its embedded plan is
    /// quarantined alone; every other entry survives.
    #[test]
    fn key_plan_mismatches_quarantine_one_entry(
        catalog in arb_nonempty_catalog(),
        pick in 0usize..64,
    ) {
        let mut bad = catalog;
        let i = pick % bad.entries.len();
        // Far outside every generated M interval, so no key collision.
        bad.entries[i].0.shape.m += 1_000_000;
        let load = catalog_from_json(&catalog_json(&bad)).expect("document level is intact");
        prop_assert_eq!(load.quarantined, 1);
        prop_assert_eq!(load.catalog.entries.len(), bad.entries.len() - 1);
        for (key, _) in &load.catalog.entries {
            prop_assert!(key.shape.m < 1_000_000);
        }
    }
}

/// The top-level members of an encoded catalog, each as its own text
/// (`"schema": ...`, `"entries": [...]`): the writer
/// starts each on a line of its own at a two-space indent.
fn top_level_members(text: &str) -> Vec<String> {
    let body = text
        .strip_prefix("{\n")
        .and_then(|t| t.strip_suffix("\n}"))
        .expect("an encoded catalog is one object");
    let mut members: Vec<String> = Vec::new();
    for line in body.lines() {
        match members.last_mut() {
            Some(last) if !line.starts_with("  \"") => {
                last.push('\n');
                last.push_str(line);
            }
            _ => members.push(line.to_string()),
        }
    }
    for m in &mut members {
        if m.ends_with(',') {
            m.pop();
        }
    }
    members
}

fn document(members: &[String]) -> String {
    format!("{{\n{}\n}}", members.join(",\n"))
}

proptest! {
    /// Top-level members decode in either order: the streamed array
    /// need not follow the schema.
    #[test]
    fn top_level_members_decode_in_any_order(catalog in arb_nonempty_catalog()) {
        let members = top_level_members(&catalog_json(&catalog));
        prop_assert_eq!(members.len(), 2);
        let shuffled = [members[1].clone(), members[0].clone()];
        let load = catalog_from_json(&document(&shuffled)).expect("order is not structure");
        prop_assert_eq!(load.quarantined, 0);
        prop_assert_eq!(load.catalog, catalog);
    }

    /// Around the streamed array the top level is as strict as ever: a
    /// second `entries` member (which a streaming reader would otherwise
    /// ingest twice), a non-array `entries`, an unknown array-valued key
    /// (v1's `records` among them) and a document cut inside `entries`
    /// are each rejected whole.
    #[test]
    fn streamed_arrays_keep_the_top_level_strict(catalog in arb_nonempty_catalog()) {
        let text = catalog_json(&catalog);
        let members = top_level_members(&text);
        let entries = &members[1];
        prop_assert!(entries.starts_with("  \"entries\": ["), "{}", entries);

        let twice = document(&[members[0].clone(), entries.clone(), entries.clone()]);
        let err = catalog_from_json(&twice).unwrap_err();
        prop_assert!(err.contains("duplicate catalog key \"entries\""), "{}", err);

        for not_an_array in ["{}", "0", "\"entries\""] {
            let bad = document(&[members[0].clone(), format!("  \"entries\": {not_an_array}")]);
            prop_assert!(catalog_from_json(&bad).is_err(), "{}", not_an_array);
        }

        for extra in [
            "  \"extra\": []".to_string(),
            "  \"records\": []".to_string(),
            entries.replacen("entries", "entries2", 1),
        ] {
            let bad = document(&[members[0].clone(), entries.clone(), extra]);
            let err = catalog_from_json(&bad).unwrap_err();
            prop_assert!(err.contains("unknown catalog key"), "{}", err);
        }

        // Every cut inside the entries array, between or within entries.
        let start = text.find("\"entries\": [").expect("entries member");
        for cut in (start..text.len() - 1).filter(|&i| text.is_char_boundary(i)) {
            prop_assert!(catalog_from_json(&text[..cut]).is_err(), "cut at {}", cut);
        }
    }
}

fn fits(cfg: &HwConfig, plan: &Plan) -> bool {
    let s = plan.shape;
    let cores = plan.cores.clamp(1, cfg.cores_per_cluster);
    Walk::new(&plan.strategy, s.m, s.n, s.k, cores)
        .footprint()
        .fits(cfg)
}

/// A hand-edited entry whose `k_a` overruns SM parses cleanly, and is
/// quarantined on attach: the shape is re-planned, not served.
#[test]
fn an_entry_that_overruns_sm_is_quarantined_on_attach() {
    let shape = GemmShape::new(32, 32, 1 << 14);
    let cfg = HwConfig::default();
    let tuned = FtImm::new(cfg.clone())
        .tune(&shape, 8, &TuneConfig::default())
        .plan;
    let ChosenStrategy::KPar(b) = tuned.strategy else {
        panic!("premise: {shape} tunes to K-par, got {tuned:?}")
    };
    let mut edited = tuned;
    edited.strategy = ChosenStrategy::KPar(KparBlocks { k_a: 4096, ..b });
    assert!(fits(&cfg, &tuned) && !fits(&cfg, &edited));
    let key = PlanKey {
        shape,
        cores: 8,
        strategy: Strategy::Auto,
    };
    let catalog = PlanCatalog {
        entries: vec![(key, edited)],
    };
    let load = catalog_from_json(&catalog_json(&catalog)).unwrap();
    assert_eq!(load.quarantined, 0, "the document itself is well formed");

    let ft = FtImm::new(cfg.clone());
    assert_eq!(ft.attach_catalog(load), 0, "nothing preloaded");
    let stats = ft.tuning_stats();
    assert_eq!(stats.quarantined, 1);
    let served = ft.plan_full(&shape, Strategy::Auto, 8);
    assert_ne!(served, edited);
    assert!(
        fits(&cfg, &served) && ft.timing_simulations() > 0,
        "{served:?}"
    );
    assert_eq!(ft.tuning_stats().catalog_hits, 0);
}

/// A catalog tuned on a machine with four times the scratchpads, attached
/// under the default machine: whatever does not fit is quarantined, and
/// every plan that is served fits.
#[test]
fn a_catalog_from_a_larger_machine_serves_only_what_fits() {
    let big = HwConfig {
        sm_bytes: 4 * HwConfig::default().sm_bytes,
        am_bytes: 4 * HwConfig::default().am_bytes,
        gsm_bytes: 4 * HwConfig::default().gsm_bytes,
        ..HwConfig::default()
    };
    let shapes = [
        GemmShape::new(32, 32, 1 << 16),
        GemmShape::new(1 << 16, 32, 32),
        GemmShape::new(64, 64, 4096),
    ];
    let path = std::env::temp_dir().join(format!("ftimm-catalog-big-{}.json", std::process::id()));
    let tuned = {
        let ft = FtImm::new(big);
        let tuned: Vec<Plan> = shapes
            .iter()
            .map(|s| ft.tune(s, 8, &TuneConfig::default()).plan)
            .collect();
        ft.save_plan_catalog(&path).unwrap();
        tuned
    };
    let cfg = HwConfig::default();
    let misfits = tuned.iter().filter(|p| !fits(&cfg, p)).count();
    assert!(
        misfits > 0,
        "premise: the larger machine tunes past the default"
    );

    let ft = FtImm::new(cfg.clone());
    let kept = ft.load_plan_catalog(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(kept, shapes.len() - misfits);
    assert_eq!(ft.tuning_stats().quarantined, misfits as u64);
    for (shape, plan) in shapes.iter().zip(&tuned) {
        let served = ft.plan_full(shape, Strategy::Auto, 8);
        assert!(fits(&cfg, &served), "{served:?}");
        assert_eq!(served == *plan, fits(&cfg, plan), "{shape}");
    }
}
