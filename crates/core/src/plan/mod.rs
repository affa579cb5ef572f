//! The Plan IR: an explicit, serialisable description of how one GEMM
//! will execute, separated from execution itself.
//!
//! The paper's headline claim is that ftIMM "automatically chooses the
//! optimal block sizes and parallelisation strategy" per irregular shape
//! (§III).  Before this module, that choice was scattered: rule-based
//! selection lived in `adjust`, `Strategy::Auto` ran two full
//! timing-model simulations inside [`crate::FtImm::plan`] on *every*
//! call, and each entry point re-derived what to run.  The plan layer
//! splits the concern three ways:
//!
//! * [`Plan`] — the IR itself: shape, cores, the resolved
//!   [`ChosenStrategy`] (with concrete block sizes), where the plan came
//!   from, and what the planner predicted/measured for it.  Serialisable
//!   via [`plan_json`]/[`plan_from_json`] so plans can be logged, diffed
//!   and pinned.
//! * [`planner::Planner`] — produces plans: a cheap analytic cost model
//!   ([`cost::analytic_seconds`]) ranks a broadened candidate space
//!   (mPar/kPar/TGEMM × a block-size grid), and only the top-K
//!   candidates are evaluated on the timing model.
//! * [`cache::PlanCache`] — a bounded, shared memo of
//!   `(shape, cores, strategy) → Plan` with hit/miss/eviction counters,
//!   so repeated shapes plan in O(1) with **zero** simulations.
//!
//! The [`crate::exec::Executor`] consumes plans; every entry point —
//! `gemm`, `tgemm`, the resilient variants, the job engine and the batch
//! API — routes through it, so this module is the only place planning
//! decisions are made.

pub mod cache;
pub mod cost;
pub mod planner;
pub mod sharded;
pub mod store;
pub mod tune;

pub use cache::{PlanCache, PlanCacheStats, PlanKey, DEFAULT_PLAN_CACHE_CAPACITY};
pub use cost::{analytic_seconds, corrected_seconds};
pub use planner::{choose_strategy, Planner};
pub use sharded::{
    choose_coexec_split, plan_coexec, plan_sharded, CoexecChoice, Shard, ShardOrigin, ShardedPlan,
};
pub use store::{
    catalog_from_json, catalog_json, load_catalog, save_catalog, CatalogLoad, PlanCatalog,
    PLAN_CATALOG_SCHEMA,
};
pub use tune::{
    bit_signature, ranking_agreement, BitSignature, Calibration, CalibrationRecord, CoexecTune,
    RegimeAgreement, StrategyKind, TuneConfig, TuneOutcome, Tuner, REGIMES,
};

use crate::{ChosenStrategy, GemmShape, KparBlocks, MparBlocks};
use dspsim::minijson::{quote, Parser, Value};
use std::fmt;
use std::fmt::Write as _;

/// Where a [`Plan`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanOrigin {
    /// The caller forced a strategy; only its blocks were adjusted.
    Forced,
    /// Rule-based selection (§IV-C rules, no model evaluation).
    Rules,
    /// The cost-model planner ranked candidates and simulated the top-K.
    CostModel,
    /// The caller handed the executor a pre-resolved strategy.
    Pinned,
    /// The autotuner searched beyond the planner's candidates and either
    /// adopted a bit-safe variant or confirmed the default pick
    /// (see [`tune::Tuner`]).
    Tuned,
}

impl PlanOrigin {
    /// Stable lower-case tag used by the JSON codec.
    pub fn tag(self) -> &'static str {
        match self {
            PlanOrigin::Forced => "forced",
            PlanOrigin::Rules => "rules",
            PlanOrigin::CostModel => "cost-model",
            PlanOrigin::Pinned => "pinned",
            PlanOrigin::Tuned => "tuned",
        }
    }

    /// Parse a [`PlanOrigin::tag`] back.
    pub fn from_tag(s: &str) -> Result<PlanOrigin, String> {
        [
            PlanOrigin::Forced,
            PlanOrigin::Rules,
            PlanOrigin::CostModel,
            PlanOrigin::Pinned,
            PlanOrigin::Tuned,
        ]
        .into_iter()
        .find(|o| o.tag() == s)
        .ok_or_else(|| format!("unknown plan origin {s:?}"))
    }
}

/// An explicit description of how one GEMM will execute.
///
/// Plans are plain values (`Copy`, `PartialEq`) and deliberately carry
/// **no wall-clock timestamps**: planning the same shape twice with the
/// same inputs yields bit-identical plans (asserted by the conformance
/// suite), which is what makes them cacheable and diffable.  Times that
/// *predict* the run (`predicted_s`, `simulated_s`) are part of the
/// plan; the time spent planning is observability and lives in the
/// profiler's `plan` phase instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The problem shape this plan is for.
    pub shape: GemmShape,
    /// Cores the plan assigns work across.
    pub cores: usize,
    /// The resolved strategy with concrete block sizes.
    pub strategy: ChosenStrategy,
    /// How the strategy was selected.
    pub origin: PlanOrigin,
    /// Analytic cost-model estimate, seconds (`INFINITY` when the model
    /// could not evaluate the plan).
    pub predicted_s: f64,
    /// Timing-model estimate of the winning candidate, seconds
    /// (`INFINITY` when the planner ran no simulation for this plan).
    pub simulated_s: f64,
    /// Candidates the analytic model ranked to produce this plan.
    pub candidates: u32,
    /// Timing-model simulations the planner ran to produce this plan.
    pub simulations: u32,
    /// Co-execution hint: rows of the M *tail* the tuner planned onto
    /// the CPU lane (`0` = no hint; `m` = all-CPU).  Consumed by
    /// [`sharded::plan_coexec`] when the sharded engine runs under
    /// [`crate::cluster::SpillPolicy::CoExecute`]; purely advisory —
    /// the strategy and blocks above are untouched, so the bitwise
    /// identity contract is independent of this field.
    pub coexec_cpu_rows: usize,
}

impl Plan {
    /// Wrap a pre-resolved strategy the caller pinned (no planning ran).
    pub fn pinned(shape: GemmShape, cores: usize, strategy: ChosenStrategy) -> Plan {
        Plan {
            shape,
            cores,
            strategy,
            origin: PlanOrigin::Pinned,
            predicted_s: f64::INFINITY,
            simulated_s: f64::INFINITY,
            candidates: 0,
            simulations: 0,
            coexec_cpu_rows: 0,
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} for {} on {} cores ({})",
            StrategyKind::of(&self.strategy).label(),
            self.shape,
            self.cores,
            self.origin.tag()
        )
    }
}

/// Document identifier embedded in (and required from) plan JSON.
const PLAN_SCHEMA: &str = "ftimm-plan-v1";

fn blocks_json(s: &mut String, strategy: &ChosenStrategy) {
    match strategy {
        ChosenStrategy::MPar(b) => {
            let _ = write!(
                s,
                "{{\"kind\": \"mpar\", \"n_g\": {}, \"k_g\": {}, \"m_a\": {}, \"n_a\": {}, \
                 \"k_a\": {}, \"m_s\": {}}}",
                b.n_g, b.k_g, b.m_a, b.n_a, b.k_a, b.m_s
            );
        }
        ChosenStrategy::KPar(b) => {
            let _ = write!(
                s,
                "{{\"kind\": \"kpar\", \"m_g\": {}, \"n_g\": {}, \"m_a\": {}, \"n_a\": {}, \
                 \"k_a\": {}, \"m_s\": {}}}",
                b.m_g, b.n_g, b.m_a, b.n_a, b.k_a, b.m_s
            );
        }
        ChosenStrategy::TGemm => s.push_str("{\"kind\": \"tgemm\"}"),
    }
}

/// Serialise a [`Plan`] as a self-contained pretty-printed JSON document
/// (stable field order; exact `f64` round-trip; `INFINITY` encodes as
/// the string `"inf"` since JSON has no infinity literal).
pub fn plan_json(plan: &Plan) -> String {
    let sec = |v: f64| {
        if v.is_finite() {
            format!("{v:?}")
        } else {
            "\"inf\"".to_string()
        }
    };
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": {},", quote(PLAN_SCHEMA));
    let _ = writeln!(
        s,
        "  \"shape\": {{\"m\": {}, \"n\": {}, \"k\": {}}},",
        plan.shape.m, plan.shape.n, plan.shape.k
    );
    let _ = writeln!(s, "  \"cores\": {},", plan.cores);
    s.push_str("  \"strategy\": ");
    blocks_json(&mut s, &plan.strategy);
    s.push_str(",\n");
    let _ = writeln!(s, "  \"origin\": {},", quote(plan.origin.tag()));
    let _ = writeln!(s, "  \"predicted_s\": {},", sec(plan.predicted_s));
    let _ = writeln!(s, "  \"simulated_s\": {},", sec(plan.simulated_s));
    let _ = writeln!(s, "  \"candidates\": {},", plan.candidates);
    // Co-execution hints are rare; omitting the zero default keeps every
    // pre-co-exec plan document byte-stable.
    if plan.coexec_cpu_rows != 0 {
        let _ = writeln!(s, "  \"coexec_cpu_rows\": {},", plan.coexec_cpu_rows);
    }
    let _ = writeln!(s, "  \"simulations\": {}", plan.simulations);
    s.push('}');
    s
}

fn field_usize(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .ok_or_else(|| format!("missing {key:?}"))?
        .as_u64(key)
        .map(|x| x as usize)
}

fn seconds_field(v: &Value, key: &str) -> Result<f64, String> {
    let field = v.get(key).ok_or_else(|| format!("missing {key:?}"))?;
    if let Ok(s) = field.as_str(key) {
        return if s == "inf" {
            Ok(f64::INFINITY)
        } else {
            Err(format!("bad seconds value {s:?} for {key:?}"))
        };
    }
    field.as_f64(key)
}

fn strategy_from_json(v: &Value) -> Result<ChosenStrategy, String> {
    let kind = v
        .get("kind")
        .ok_or("strategy missing \"kind\"")?
        .as_str("kind")?;
    match kind {
        "mpar" => Ok(ChosenStrategy::MPar(MparBlocks {
            n_g: field_usize(v, "n_g")?,
            k_g: field_usize(v, "k_g")?,
            m_a: field_usize(v, "m_a")?,
            n_a: field_usize(v, "n_a")?,
            k_a: field_usize(v, "k_a")?,
            m_s: field_usize(v, "m_s")?,
        })),
        "kpar" => Ok(ChosenStrategy::KPar(KparBlocks {
            m_g: field_usize(v, "m_g")?,
            n_g: field_usize(v, "n_g")?,
            m_a: field_usize(v, "m_a")?,
            n_a: field_usize(v, "n_a")?,
            k_a: field_usize(v, "k_a")?,
            m_s: field_usize(v, "m_s")?,
        })),
        "tgemm" => Ok(ChosenStrategy::TGemm),
        other => Err(format!("unknown strategy kind {other:?}")),
    }
}

/// Parse a plan document produced by [`plan_json`].
pub fn plan_from_json(text: &str) -> Result<Plan, String> {
    let value = Parser::new(text).parse()?;
    plan_from_value(&value)
}

/// Parse an already-parsed plan object (the body of [`plan_from_json`],
/// shared with the [`store`] catalog codec which embeds plan documents
/// verbatim inside catalog entries).
pub(crate) fn plan_from_value(value: &Value) -> Result<Plan, String> {
    let obj = value.as_obj("plan")?;
    let mut schema_ok = false;
    for (key, v) in obj {
        if key.as_str() == "schema" {
            let s = v.as_str("schema")?;
            if s != PLAN_SCHEMA {
                return Err(format!("unsupported plan schema {s:?}"));
            }
            schema_ok = true;
        }
    }
    if !schema_ok {
        return Err("plan missing \"schema\"".into());
    }
    let shape = value.get("shape").ok_or("missing \"shape\"")?;
    let plan = Plan {
        shape: GemmShape::new(
            field_usize(shape, "m")?,
            field_usize(shape, "n")?,
            field_usize(shape, "k")?,
        ),
        cores: field_usize(value, "cores")?,
        strategy: strategy_from_json(value.get("strategy").ok_or("missing \"strategy\"")?)?,
        origin: PlanOrigin::from_tag(
            value
                .get("origin")
                .ok_or("missing \"origin\"")?
                .as_str("origin")?,
        )?,
        predicted_s: seconds_field(value, "predicted_s")?,
        simulated_s: seconds_field(value, "simulated_s")?,
        candidates: field_usize(value, "candidates")? as u32,
        simulations: field_usize(value, "simulations")? as u32,
        // Optional for backward compatibility with pre-co-exec documents.
        coexec_cpu_rows: match value.get("coexec_cpu_rows") {
            Some(v) => v.as_u64("coexec_cpu_rows")? as usize,
            None => 0,
        },
    };
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(strategy: ChosenStrategy) -> Plan {
        Plan {
            shape: GemmShape::new(4096, 32, 512),
            cores: 8,
            strategy,
            origin: PlanOrigin::CostModel,
            predicted_s: 1.25e-3,
            simulated_s: 1.5e-3,
            candidates: 9,
            simulations: 4,
            coexec_cpu_rows: 0,
        }
    }

    #[test]
    fn plan_documents_round_trip_exactly() {
        for strategy in [
            ChosenStrategy::MPar(MparBlocks {
                n_g: 32,
                k_g: 512,
                m_a: 320,
                n_a: 32,
                k_a: 512,
                m_s: 8,
            }),
            ChosenStrategy::KPar(KparBlocks {
                m_g: 1024,
                n_g: 32,
                m_a: 64,
                n_a: 32,
                k_a: 512,
                m_s: 8,
            }),
            ChosenStrategy::TGemm,
        ] {
            let plan = sample(strategy);
            let text = plan_json(&plan);
            let back = plan_from_json(&text).unwrap();
            assert_eq!(back, plan, "{text}");
            assert_eq!(plan_json(&back), text);
        }
    }

    #[test]
    fn coexec_hint_round_trips_and_zero_stays_byte_stable() {
        // A multi-backend plan carries its CPU-tail hint through the codec.
        let mut plan = sample(ChosenStrategy::TGemm);
        plan.coexec_cpu_rows = 1024;
        let text = plan_json(&plan);
        assert!(text.contains("\"coexec_cpu_rows\": 1024"), "{text}");
        let back = plan_from_json(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(plan_json(&back), text);
        // The zero default is omitted, so pre-co-exec documents (which
        // lack the key entirely) parse to the same bytes they came from.
        let plain = sample(ChosenStrategy::TGemm);
        let text = plan_json(&plain);
        assert!(!text.contains("coexec_cpu_rows"), "{text}");
        assert_eq!(plan_from_json(&text).unwrap(), plain);
    }

    #[test]
    fn pinned_plans_encode_infinity() {
        let plan = Plan::pinned(GemmShape::new(8, 8, 8), 4, ChosenStrategy::TGemm);
        let text = plan_json(&plan);
        assert!(text.contains("\"inf\""), "{text}");
        assert_eq!(plan_from_json(&text).unwrap(), plan);
    }

    #[test]
    fn bad_plan_documents_fail_loudly() {
        let good = plan_json(&sample(ChosenStrategy::TGemm));
        for (text, needle) in [
            (good.replace(PLAN_SCHEMA, "ftimm-plan-v9"), "unsupported"),
            (good.replace("tgemm", "ggemm"), "unknown strategy kind"),
            (good.replace("cost-model", "vibes"), "unknown plan origin"),
            ("{}".to_string(), "missing \"schema\""),
        ] {
            let err = plan_from_json(&text).unwrap_err();
            assert!(err.contains(needle), "wanted {needle:?}, got {err:?}");
        }
    }

    #[test]
    fn display_names_the_strategy_and_origin() {
        let s = sample(ChosenStrategy::TGemm).to_string();
        assert!(s.contains("TGEMM") && s.contains("cost-model"), "{s}");
    }
}
