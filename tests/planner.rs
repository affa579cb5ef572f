//! Conformance of the Plan IR layer: plan-then-execute equivalence,
//! planning determinism, zero-simulation cache hits and the analytic
//! cost model's agreement with the timing model on the paper's shapes.

use conformance::{Regime, Rng64};
use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::reference::fill_matrix;
use ftimm::{
    analytic_seconds, FtImm, GemmProblem, GemmShape, PlanOrigin, Planner, Strategy, TuneConfig,
};

/// A cheap tuning budget for integration tests: enough to exercise the
/// variant ladder on every regime without the full default budget.
fn test_tune_config() -> TuneConfig {
    TuneConfig {
        max_simulations: 8,
        random_probes: 2,
        neighborhood: 2,
        explore: false,
        ..TuneConfig::default()
    }
}

fn staged(machine: &mut Machine, shape: &GemmShape) -> GemmProblem {
    let (m, n, k) = (shape.m, shape.n, shape.k);
    let p = GemmProblem::alloc(machine, m, n, k).unwrap();
    p.a.upload(machine, &fill_matrix(m * k, 1)).unwrap();
    p.b.upload(machine, &fill_matrix(k * n, 2)).unwrap();
    p.c.upload(machine, &fill_matrix(m * n, 3)).unwrap();
    p
}

#[test]
fn plan_then_execute_matches_one_shot_in_every_regime() {
    let ft = FtImm::new(HwConfig::default());
    let mut rng = Rng64::new(0xA11CE);
    for regime in Regime::ALL {
        let shape = regime.sample(&mut rng);
        let plan = ft.plan_full(&shape, Strategy::Auto, 8);

        let mut m1 = Machine::with_mode(ExecMode::Compiled);
        let p1 = staged(&mut m1, &shape);
        let r1 = ft.run_plan(&mut m1, &p1, &plan.strategy, 8).unwrap();
        let c1 = p1.c.download(&mut m1).unwrap();

        let mut m2 = Machine::with_mode(ExecMode::Compiled);
        let p2 = staged(&mut m2, &shape);
        let (r2, used) = ft.gemm(&mut m2, &p2, Strategy::Auto, 8).unwrap();
        let c2 = p2.c.download(&mut m2).unwrap();

        assert_eq!(used, plan, "{regime}: one-shot resolved a different plan");
        assert_eq!(
            r1.seconds.to_bits(),
            r2.seconds.to_bits(),
            "{regime} {shape}: simulated time diverged"
        );
        for (i, (a, b)) in c1.iter().zip(&c2).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{regime} {shape}: element {i} diverged"
            );
        }
    }
}

#[test]
fn planning_is_deterministic_for_every_regime_and_strategy() {
    let ft = FtImm::new(HwConfig::default());
    let planner = Planner::new(ft.cache(), ft.cfg());
    let mut rng = Rng64::new(0xBEE);
    for regime in Regime::ALL {
        let shape = regime.sample(&mut rng);
        for strategy in [Strategy::Auto, Strategy::Rules, Strategy::MPar] {
            let a = planner.plan(&shape, strategy, 8, |c| ft.predict_seconds(&shape, c, 8));
            let b = planner.plan(&shape, strategy, 8, |c| ft.predict_seconds(&shape, c, 8));
            assert_eq!(a, b, "{regime} {shape} {strategy:?}");
        }
    }
}

/// Every plan a strategy or the tuner returns runs functionally: over
/// shapes of the four fuzz regimes, and the five shapes `Strategy::Auto`
/// once resolved to a K-par plan whose `A_s` pair overran SM.
#[test]
fn every_plan_any_strategy_or_the_tuner_returns_runs_functionally() {
    let ft = FtImm::new(HwConfig::default());
    let mut rng = Rng64::new(0xF175);
    let mut shapes: Vec<GemmShape> = (0..3)
        .flat_map(|_| Regime::ALL)
        .map(|r| r.sample(&mut rng))
        .collect();
    for (m, n, k) in [
        (64, 64, 4096),
        (48, 48, 4096),
        (32, 64, 4096),
        (50, 64, 4687),
        (82, 31, 7009),
    ] {
        shapes.push(GemmShape::new(m, n, k));
    }
    for shape in &shapes {
        let mut plans: Vec<_> = Strategy::ALL
            .iter()
            .map(|&s| (s.tag(), ft.plan(shape, s, 8)))
            .collect();
        plans.push((
            "tuned",
            ft.tune(shape, 8, &test_tune_config()).plan.strategy,
        ));
        for (what, plan) in plans {
            let mut m = Machine::with_mode(ExecMode::Compiled);
            let p = GemmProblem::alloc(&mut m, shape.m, shape.n, shape.k).unwrap();
            if let Err(e) = ft.run_plan(&mut m, &p, &plan, 8) {
                panic!("{shape} {what}: {plan:?} does not run: {e}");
            }
        }
    }
}

#[test]
fn auto_on_a_cached_shape_runs_zero_timing_simulations() {
    let ft = FtImm::new(HwConfig::default());
    let shape = GemmShape::new(2048, 32, 512);
    let cold = ft.plan_full(&shape, Strategy::Auto, 8);
    assert!(cold.simulations >= 2, "auto simulates rule + alternative");
    let after_cold = ft.timing_simulations();

    // Warm: the memo answers; the timing model is never consulted.
    let warm = ft.plan_full(&shape, Strategy::Auto, 8);
    assert_eq!(warm, cold);
    assert_eq!(ft.timing_simulations(), after_cold);
    let stats = ft.plan_cache_stats();
    assert_eq!(stats.hits, 1);
    assert!(stats.misses >= 1);
}

/// Count-based guard on what planning costs: a timing-mode walk touches
/// no modelled memory at all, and a functional run materialises only the
/// scratchpads of the cores it uses, each only as far as the walk
/// reaches into it ([`ftimm::walk::Walk::footprint`]).
#[test]
fn timing_walks_materialise_nothing_and_functional_runs_only_their_cores() {
    let ft = FtImm::new(HwConfig::default());
    let shape = GemmShape::new(2048, 64, 256); // Table II regime: 32 < N ≤ 64

    let mut m = Machine::with_mode(ExecMode::Timing);
    let p = GemmProblem::alloc(&mut m, shape.m, shape.n, shape.k).unwrap();
    let plan = ft.plan_full(&shape, Strategy::Auto, 8);
    let report = ft.run_plan(&mut m, &p, &plan.strategy, 8).unwrap();
    assert!(report.totals.dma_transfers > 0 && report.totals.kernel_calls > 0);
    assert!(m.ddr.allocated() >= 4 * (shape.m * shape.k) as u64);
    assert_eq!(m.ddr.materialised(), 0);
    assert_eq!(m.cluster.gsm.materialised(), 0);
    for core in &m.cluster.cores {
        assert_eq!((core.sm.materialised(), core.am.materialised()), (0, 0));
    }

    let mut m = Machine::with_mode(ExecMode::Compiled);
    let p = staged(&mut m, &shape);
    let plan = ft.plan_full(&shape, Strategy::Auto, 2);
    ft.run_plan(&mut m, &p, &plan.strategy, 2).unwrap();
    assert!(m.ddr.materialised() > 0);
    let reach = ftimm::walk::Walk::new(&plan.strategy, shape.m, shape.n, shape.k, 2).footprint();
    assert!(reach.sm < m.core(0).sm.capacity() && reach.am < m.core(0).am.capacity());
    let cores = &m.cluster.cores;
    for (id, core) in cores.iter().enumerate() {
        let (sm, am) = (core.sm.materialised(), core.am.materialised());
        if id < 2 {
            assert!(
                sm > 0 && sm <= reach.sm,
                "core {id}: SM {sm} of {}",
                reach.sm
            );
            assert!(
                am > 0 && am <= reach.am,
                "core {id}: AM {am} of {}",
                reach.am
            );
        } else {
            assert_eq!((sm, am), (0, 0), "core {id}");
        }
    }
    let widest = |f: fn(&dspsim::Core) -> u64| cores.iter().map(f).max().unwrap();
    assert_eq!(widest(|c| c.sm.materialised()), reach.sm);
    assert_eq!(widest(|c| c.am.materialised()), reach.am);
}

#[test]
fn analytic_ranking_agrees_with_the_timing_model_on_fig5_extremes() {
    // Acceptance: on the paper's type-1 and type-2 shapes the cheap
    // analytic model must pick the same winning strategy as the full
    // timing-model simulation.
    let ft = FtImm::new(HwConfig::default());
    for (m, n, k) in [(1 << 16, 32, 32), (32, 32, 1 << 16)] {
        let shape = GemmShape::new(m, n, k);
        let mpar = ft.plan(&shape, Strategy::MPar, 8);
        let kpar = ft.plan(&shape, Strategy::KPar, 8);
        let analytic_mpar = analytic_seconds(ft.cache(), ft.cfg(), &shape, &mpar, 8);
        let analytic_kpar = analytic_seconds(ft.cache(), ft.cfg(), &shape, &kpar, 8);
        let timing_mpar = ft.predict_seconds(&shape, &mpar, 8);
        let timing_kpar = ft.predict_seconds(&shape, &kpar, 8);
        assert_eq!(
            analytic_mpar < analytic_kpar,
            timing_mpar < timing_kpar,
            "{shape}: analytic ({analytic_mpar}, {analytic_kpar}) vs \
             timing ({timing_mpar}, {timing_kpar})"
        );
    }
}

#[test]
fn tuning_is_deterministic_under_a_fixed_seed() {
    let mut rng = Rng64::new(0x7E5EED);
    for regime in Regime::ALL {
        let shape = regime.sample(&mut rng);
        let cfg = test_tune_config();
        let a = FtImm::new(HwConfig::default()).tune(&shape, 8, &cfg);
        let b = FtImm::new(HwConfig::default()).tune(&shape, 8, &cfg);
        assert_eq!(a.plan, b.plan, "{regime} {shape}: tuned plan diverged");
        assert_eq!(a.default_plan, b.default_plan, "{regime} {shape}");
        assert_eq!(a.variants, b.variants, "{regime} {shape}");
        assert_eq!(a.simulations, b.simulations, "{regime} {shape}");
        assert_eq!(a.plan.origin, PlanOrigin::Tuned, "{regime} {shape}");
        assert!(
            a.plan.simulated_s <= a.default_plan.simulated_s,
            "{regime} {shape}: tuned plan predicted slower than default"
        );
    }
}

#[test]
fn catalog_warm_start_plans_every_regime_with_zero_simulations() {
    let ft = FtImm::new(HwConfig::default());
    let mut rng = Rng64::new(0xCA7A106);
    let shapes: Vec<GemmShape> = Regime::ALL.iter().map(|r| r.sample(&mut rng)).collect();
    let tuned: Vec<_> = shapes
        .iter()
        .map(|s| ft.tune(s, 8, &test_tune_config()).plan)
        .collect();
    let path = std::env::temp_dir().join(format!(
        "ftimm-planner-warm-start-{}.json",
        std::process::id()
    ));
    ft.save_plan_catalog(&path).unwrap();

    // A fresh process (modelled by a fresh context) loads the catalog
    // and serves every regime's tuned plan without ever touching the
    // timing model.
    let warm = FtImm::with_plan_catalog(HwConfig::default(), &path).unwrap();
    for (shape, plan) in shapes.iter().zip(&tuned) {
        assert_eq!(&warm.plan_full(shape, Strategy::Auto, 8), plan, "{shape}");
    }
    assert_eq!(warm.timing_simulations(), 0, "warm start must not simulate");
    let stats = warm.tuning_stats();
    assert_eq!(stats.catalog_hits, shapes.len() as u64);
    assert!(stats.catalog_attached);
    assert_eq!(stats.quarantined, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tuned_plan_then_execute_matches_one_shot_in_every_regime() {
    let mut rng = Rng64::new(0x7EB17);
    for regime in Regime::ALL {
        let shape = regime.sample(&mut rng);
        let ft = FtImm::new(HwConfig::default());
        let outcome = ft.tune(&shape, 8, &test_tune_config());

        // Staged: execute the tuned plan's resolved strategy directly.
        let mut m1 = Machine::with_mode(ExecMode::Compiled);
        let p1 = staged(&mut m1, &shape);
        let r1 = ft
            .run_plan(&mut m1, &p1, &outcome.plan.strategy, 8)
            .unwrap();
        let c1 = p1.c.download(&mut m1).unwrap();

        // One-shot: `gemm` resolves through the plan cache, which the
        // tune populated under the `Auto` key.
        let mut m2 = Machine::with_mode(ExecMode::Compiled);
        let p2 = staged(&mut m2, &shape);
        let (r2, used) = ft.gemm(&mut m2, &p2, Strategy::Auto, 8).unwrap();
        let c2 = p2.c.download(&mut m2).unwrap();

        assert_eq!(
            used, outcome.plan,
            "{regime}: one-shot did not pick up the tuned plan"
        );
        assert_eq!(
            r1.seconds.to_bits(),
            r2.seconds.to_bits(),
            "{regime} {shape}: simulated time diverged"
        );
        for (i, (a, b)) in c1.iter().zip(&c2).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{regime} {shape}: element {i} diverged"
            );
        }
    }
}

#[test]
fn resolved_plans_round_trip_through_json() {
    let ft = FtImm::new(HwConfig::default());
    let mut rng = Rng64::new(0xD0C);
    for regime in Regime::ALL {
        let shape = regime.sample(&mut rng);
        let plan = ft.plan_full(&shape, Strategy::Auto, 8);
        let text = ftimm::plan_json(&plan);
        let back = ftimm::plan_from_json(&text).unwrap();
        assert_eq!(back, plan, "{regime} {shape}:\n{text}");
    }
}
