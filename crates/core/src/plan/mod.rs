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
//!   from, and what the planner predicted/measured for it.  Written by
//!   [`plan_json`] (`ftimm-plan-v1`, through [`dspsim::minijson`]) so
//!   plans can be logged, diffed and pinned; the [`store`] catalog
//!   embeds the same object and decodes it strictly.
//! * [`planner::Planner`] — produces plans: a cheap analytic cost model
//!   ([`cost::analytic_seconds`]) ranks a broadened candidate space
//!   (mPar/kPar/TGEMM × a block-size grid), and only the top-K
//!   candidates are evaluated on the timing model.
//! * [`cache::PlanCache`] — a bounded, shared memo of
//!   `(shape, cores, strategy) → Plan` with hit/miss/eviction counters,
//!   so repeated shapes plan in O(1) with **zero** simulations.
//!
//! The [`crate::exec::Executor`] consumes plans; every run — its
//! shorthands on [`crate::FtImm`] and each shard the
//! [`crate::ShardedEngine`] dispatches — routes through it, so this
//! module is the only place planning decisions are made.

pub mod cache;
pub mod cost;
pub mod planner;
pub mod sharded;
pub mod store;
pub mod tune;

pub use cache::{PlanCache, PlanKey, DEFAULT_PLAN_CACHE_CAPACITY};
pub use cost::analytic_seconds;
pub use planner::{choose_strategy, Planner};
pub use sharded::{
    choose_coexec_split, plan_coexec, plan_sharded, CoexecChoice, Shard, ShardOrigin, ShardedPlan,
};
pub use store::{
    catalog_from_json, catalog_json, load_catalog, save_catalog, CatalogLoad, PlanCatalog,
    PLAN_CATALOG_SCHEMA,
};
pub use tune::{bit_signature, BitSignature, StrategyKind, TuneConfig, TuneOutcome, Tuner};

use crate::{ChosenStrategy, GemmShape, KparBlocks, MparBlocks};
use dspsim::minijson::{Fields, Value, Writer};
use std::fmt;

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

/// Write a run of integer fields, in the order given.
pub(crate) fn write_usizes(w: &mut Writer, fields: &[(&str, usize)]) {
    for &(key, v) in fields {
        w.key(key).u64(v as u64);
    }
}

/// The `m`/`n`/`k` fields every shape-bearing object spells the same way.
pub(crate) fn write_shape(w: &mut Writer, shape: &GemmShape) {
    write_usizes(w, &[("m", shape.m), ("n", shape.n), ("k", shape.k)]);
}

/// Claim the fields [`write_shape`] wrote.
pub(crate) fn read_shape(f: &mut Fields) -> Result<GemmShape, String> {
    Ok(GemmShape::new(f.usize("m")?, f.usize("n")?, f.usize("k")?))
}

/// Write `plan` as one `ftimm-plan-v1` object wherever `w` stands: the
/// whole document in [`plan_json`], the `"plan"` of a catalog entry in
/// [`store`].
pub(crate) fn write_plan(w: &mut Writer, plan: &Plan) {
    w.begin_obj();
    w.key("schema").str(PLAN_SCHEMA);
    w.key("shape").begin_obj();
    write_shape(w, &plan.shape);
    w.end_obj();
    w.key("cores").u64(plan.cores as u64);
    w.key("strategy").begin_obj();
    w.key("kind").str(StrategyKind::of(&plan.strategy).tag());
    match &plan.strategy {
        ChosenStrategy::MPar(b) => write_usizes(
            w,
            &[
                ("n_g", b.n_g),
                ("k_g", b.k_g),
                ("m_a", b.m_a),
                ("n_a", b.n_a),
                ("k_a", b.k_a),
                ("m_s", b.m_s),
            ],
        ),
        ChosenStrategy::KPar(b) => write_usizes(
            w,
            &[
                ("m_g", b.m_g),
                ("n_g", b.n_g),
                ("m_a", b.m_a),
                ("n_a", b.n_a),
                ("k_a", b.k_a),
                ("m_s", b.m_s),
            ],
        ),
        ChosenStrategy::TGemm => {}
    }
    w.end_obj();
    w.key("origin").str(plan.origin.tag());
    w.key("predicted_s").f64(plan.predicted_s);
    w.key("simulated_s").f64(plan.simulated_s);
    w.key("candidates").u64(plan.candidates.into());
    w.key("simulations").u64(plan.simulations.into());
    w.end_obj();
}

/// Serialise a [`Plan`] as a self-contained pretty-printed JSON document
/// (stable field order; exact `f64` round-trip; `INFINITY` encodes as
/// the string `"inf"` since JSON has no infinity literal).  The layout
/// is pinned — see [`dspsim::minijson`].
pub fn plan_json(plan: &Plan) -> String {
    let mut w = Writer::new(1);
    write_plan(&mut w, plan);
    w.finish()
}

/// Parse a plan object as [`write_plan`] wrote it: the `"plan"` of a
/// catalog entry in [`store`].  Strict in the
/// [`dspsim::minijson::Fields`] sense at every level: an unknown,
/// duplicated or missing key is an error.
pub(crate) fn plan_from_value(value: &Value) -> Result<Plan, String> {
    let mut f = Fields::new(value, "plan")?;
    f.schema(PLAN_SCHEMA)?;
    let mut shape = Fields::new(f.req("shape")?, "shape")?;
    let mut blocks = Fields::new(f.req("strategy")?, "strategy")?;
    let count = |f: &mut Fields, key: &str| {
        let v = f.u64(key)?;
        u32::try_from(v).map_err(|_| format!("{key}: {v} does not fit a u32"))
    };
    let plan = Plan {
        shape: read_shape(&mut shape)?,
        cores: f.usize("cores")?,
        strategy: match StrategyKind::from_tag(blocks.str("kind")?)? {
            StrategyKind::MPar => ChosenStrategy::MPar(MparBlocks {
                n_g: blocks.usize("n_g")?,
                k_g: blocks.usize("k_g")?,
                m_a: blocks.usize("m_a")?,
                n_a: blocks.usize("n_a")?,
                k_a: blocks.usize("k_a")?,
                m_s: blocks.usize("m_s")?,
            }),
            StrategyKind::KPar => ChosenStrategy::KPar(KparBlocks {
                m_g: blocks.usize("m_g")?,
                n_g: blocks.usize("n_g")?,
                m_a: blocks.usize("m_a")?,
                n_a: blocks.usize("n_a")?,
                k_a: blocks.usize("k_a")?,
                m_s: blocks.usize("m_s")?,
            }),
            StrategyKind::TGemm => ChosenStrategy::TGemm,
        },
        origin: PlanOrigin::from_tag(f.str("origin")?)?,
        predicted_s: f.f64("predicted_s")?,
        simulated_s: f.f64("simulated_s")?,
        candidates: count(&mut f, "candidates")?,
        simulations: count(&mut f, "simulations")?,
    };
    shape.finish()?;
    blocks.finish()?;
    f.finish()?;
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
        }
    }

    fn decode(text: &str) -> Result<Plan, String> {
        plan_from_value(&dspsim::minijson::Parser::new(text).parse()?)
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
            let back = decode(&text).unwrap();
            assert_eq!(back, plan, "{text}");
            assert_eq!(plan_json(&back), text);
        }
    }

    /// The layout is part of the repo's recorded results: these bytes are
    /// folded into the `cold_plan_timing` benchmark's output digest.
    #[test]
    fn plan_json_bytes_are_pinned() {
        let mpar = sample(ChosenStrategy::MPar(MparBlocks {
            n_g: 32,
            k_g: 512,
            m_a: 320,
            n_a: 32,
            k_a: 512,
            m_s: 8,
        }));
        assert_eq!(
            plan_json(&mpar),
            r#"{
  "schema": "ftimm-plan-v1",
  "shape": {"m": 4096, "n": 32, "k": 512},
  "cores": 8,
  "strategy": {"kind": "mpar", "n_g": 32, "k_g": 512, "m_a": 320, "n_a": 32, "k_a": 512, "m_s": 8},
  "origin": "cost-model",
  "predicted_s": 0.00125,
  "simulated_s": 0.0015,
  "candidates": 9,
  "simulations": 4
}"#
        );
        let mut kpar = sample(ChosenStrategy::KPar(KparBlocks {
            m_g: 1024,
            n_g: 32,
            m_a: 64,
            n_a: 32,
            k_a: 672,
            m_s: 6,
        }));
        kpar.origin = PlanOrigin::Tuned;
        kpar.predicted_s = f64::INFINITY;
        kpar.simulated_s = 0.0005785425086071996;
        assert_eq!(
            plan_json(&kpar),
            r#"{
  "schema": "ftimm-plan-v1",
  "shape": {"m": 4096, "n": 32, "k": 512},
  "cores": 8,
  "strategy": {"kind": "kpar", "m_g": 1024, "n_g": 32, "m_a": 64, "n_a": 32, "k_a": 672, "m_s": 6},
  "origin": "tuned",
  "predicted_s": "inf",
  "simulated_s": 0.0005785425086071996,
  "candidates": 9,
  "simulations": 4
}"#
        );
        let pinned = Plan::pinned(GemmShape::new(8, 8, 8), 4, ChosenStrategy::TGemm);
        assert_eq!(
            plan_json(&pinned),
            r#"{
  "schema": "ftimm-plan-v1",
  "shape": {"m": 8, "n": 8, "k": 8},
  "cores": 4,
  "strategy": {"kind": "tgemm"},
  "origin": "pinned",
  "predicted_s": "inf",
  "simulated_s": "inf",
  "candidates": 0,
  "simulations": 0
}"#
        );
    }

    #[test]
    fn pinned_plans_encode_infinity() {
        let plan = Plan::pinned(GemmShape::new(8, 8, 8), 4, ChosenStrategy::TGemm);
        let text = plan_json(&plan);
        assert!(text.contains("\"inf\""), "{text}");
        assert_eq!(decode(&text).unwrap(), plan);
    }

    #[test]
    fn bad_plan_documents_fail_loudly() {
        let good = plan_json(&sample(ChosenStrategy::TGemm));
        for (text, needle) in [
            (good.replace(PLAN_SCHEMA, "ftimm-plan-v9"), "unsupported"),
            (good.replace("tgemm", "ggemm"), "unknown strategy kind"),
            (good.replace("cost-model", "vibes"), "unknown plan origin"),
            ("{}".to_string(), "missing \"schema\""),
            // An unknown key is refused, not skipped.
            (
                good.replace(
                    "\"simulations\"",
                    "\"coexec_cpu_row\": 128,\n  \"simulations\"",
                ),
                "unknown plan key \"coexec_cpu_row\"",
            ),
            (
                good.replace("\"k\": 512", "\"k\": 512, \"kk\": 1"),
                "unknown shape key",
            ),
            (
                good.replace("\"tgemm\"", "\"tgemm\", \"m_s\": 8"),
                "unknown strategy key",
            ),
            (
                good.replace("\"cores\": 8", "\"cores\": 8,\n  \"cores\": 8"),
                "duplicate plan key \"cores\"",
            ),
            (good.replace("\"cores\": 8,", ""), "plan missing \"cores\""),
            (
                good.replace("\"candidates\": 9", "\"candidates\": 4294967296"),
                "does not fit a u32",
            ),
        ] {
            let err = decode(&text).unwrap_err();
            assert!(err.contains(needle), "wanted {needle:?}, got {err:?}");
        }
    }

    #[test]
    fn display_names_the_strategy_and_origin() {
        let s = sample(ChosenStrategy::TGemm).to_string();
        assert!(s.contains("TGEMM") && s.contains("cost-model"), "{s}");
    }
}
