//! Workspace invariants of the instrumented executor: profiling must be
//! a pure observer (bit-exact runs), the aggregated [`PhaseProfile`]
//! must be internally consistent, the JSON document must round-trip
//! exactly, and chaos events must attribute faults to the right cores.

use dspsim::{DmaPath, EventKind, ExecMode, FaultPlan, HwConfig, Machine, Phase};
use ftimm::reference::fill_matrix;
use ftimm::{
    profile_from_json, profile_json, Executor, FtImm, GemmProblem, ResilienceConfig, Strategy,
};

const M: usize = 256;
const N: usize = 48;
const K: usize = 192;

fn upload_problem(m: &mut Machine) -> GemmProblem {
    let p = GemmProblem::alloc(m, M, N, K).unwrap();
    if m.mode.is_functional() {
        p.a.upload(m, &fill_matrix(M * K, 1)).unwrap();
        p.b.upload(m, &fill_matrix(K * N, 2)).unwrap();
        p.c.upload(m, &fill_matrix(M * N, 3)).unwrap();
    }
    p
}

fn profiled_run(mode: ExecMode, profile: bool) -> (f64, Vec<f32>, Option<dspsim::PhaseProfile>) {
    let ft = FtImm::new(HwConfig::default());
    let mut m = Machine::with_mode(mode);
    let p = upload_problem(&mut m);
    let mut ex = Executor::new(&ft).strategy(Strategy::Auto).cores(8);
    if profile {
        ex = ex.profiled();
    }
    let rep = ex.run(&mut m, &p).unwrap();
    let c = if mode.is_functional() {
        p.c.download(&mut m).unwrap()
    } else {
        Vec::new()
    };
    (rep.seconds, c, rep.profile)
}

#[test]
fn profiling_is_a_pure_observer() {
    // The profiler reads clocks but never advances them: a profiled run
    // must be bit-exact with an unprofiled one, in time and in C.
    let (t_plain, c_plain, none) = profiled_run(ExecMode::Compiled, false);
    let (t_prof, c_prof, prof) = profiled_run(ExecMode::Compiled, true);
    assert!(none.is_none());
    assert!(prof.is_some());
    assert_eq!(t_plain.to_bits(), t_prof.to_bits());
    assert_eq!(c_plain.len(), c_prof.len());
    for (i, (x, y)) in c_plain.iter().zip(&c_prof).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "element {i}");
    }
}

#[test]
fn phase_profile_is_internally_consistent() {
    let (seconds, _, prof) = profiled_run(ExecMode::Timing, true);
    let prof = prof.unwrap();

    assert!(prof.spans > 0, "no spans recorded");
    assert_eq!(prof.dropped, 0, "ring dropped spans");
    assert!(prof.total_s > 0.0 && prof.total_s <= seconds + 1e-12);
    // Phase attribution is exclusive: the per-device-phase sum is the
    // busy time, which cannot exceed the profiled window.  Host-side
    // time (planning, tuning) sits outside the window entirely.
    let busy: f64 = Phase::ALL
        .iter()
        .filter(|&&p| !p.is_host_side())
        .map(|&p| prof.phase_seconds(p))
        .sum();
    assert!((busy - prof.busy_s()).abs() < 1e-12);
    assert!(
        busy <= prof.total_s * (1.0 + 1e-9),
        "{busy} > {}",
        prof.total_s
    );
    assert!(prof.phase_seconds(Phase::Compute) > 0.0);
    assert!(prof.phase_seconds(Phase::DmaLoad) > 0.0);
    assert!(prof.phase_seconds(Phase::Recovery) == 0.0, "fault-free run");
    let frac = prof.overlap_frac();
    assert!((0.0..=1.0).contains(&frac), "overlap_frac {frac}");
    for c in 0..dspsim::PROFILE_CORES {
        let occ = prof.occupancy(c);
        assert!(
            (0.0..=1.0 + 1e-9).contains(&occ),
            "core {c} occupancy {occ}"
        );
    }
    assert!(prof.roofline_gflops > 0.0);
    assert!(prof.achieved_gflops > 0.0);
    assert!(prof.achieved_gflops <= prof.roofline_gflops * (1.0 + 1e-9));
}

#[test]
fn profile_document_round_trips_exactly() {
    let (_, _, prof) = profiled_run(ExecMode::Timing, true);
    let prof = prof.unwrap();
    let text = profile_json(&prof);
    let back = profile_from_json(&text).unwrap();
    assert_eq!(back, prof);
    // Serialising the parsed document again is byte-identical.
    assert_eq!(profile_json(&back), text);
}

#[test]
fn chaos_events_attribute_faults_to_cores() {
    let ft = FtImm::new(HwConfig::default());
    let mut m = Machine::with_mode(ExecMode::Compiled);
    let p = upload_problem(&mut m);
    m.install_faults(&FaultPlan::new(13).timeout_dma(DmaPath::DdrToSm, 2));

    let run = Executor::new(&ft)
        .strategy(Strategy::MPar)
        .cores(4)
        .resilient(ResilienceConfig::default())
        .profiled()
        .dispatch(&mut m, &p)
        .unwrap();
    let rep = run.result.expect("resilient run recovers");
    assert_eq!(rep.faults.dma_timeouts, 1);

    let profiler = run.profiler.expect("profiled run keeps the recording");
    let timeouts: Vec<_> = profiler
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::DmaTimeout)
        .collect();
    assert_eq!(timeouts.len(), 1, "one injected timeout, one event");
    let retries: Vec<_> = profiler
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Retry)
        .collect();
    assert_eq!(retries.len() as u64, rep.faults.retries);
    // The retry is charged against the core the timeout hit.
    assert_eq!(retries[0].core, timeouts[0].core);
    // The hang itself shows up as a data-movement span ending at the
    // event timestamp on the same core.
    let hang = profiler
        .spans()
        .find(|s| {
            s.phase.is_data_movement()
                && Some(s.core) == timeouts[0].core
                && (s.t1 - timeouts[0].t).abs() < 1e-15
        })
        .expect("hang span recorded");
    assert!(hang.t1 > hang.t0);
    // The profile the report carries attributes recovery time.
    let prof = rep.profile.expect("profile attached");
    assert!(
        prof.phase_seconds(Phase::Recovery) > 0.0,
        "backoff recorded"
    );
}
