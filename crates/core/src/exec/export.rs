//! Profile exporters: a self-contained JSON profile document and a
//! Chrome `trace_event` file loadable in `chrome://tracing` / Perfetto.
//!
//! Both are written through [`dspsim::minijson::Writer`]; finite `f64`
//! fields of the profile document use Rust's shortest round-trip
//! representation.

use dspsim::minijson::Writer;
use dspsim::{EventKind, Phase, PhaseProfile, Profiler, PROFILE_CORES};
use std::collections::BTreeSet;

/// Document identifier embedded in (and required from) profile JSON.
const PROFILE_SCHEMA: &str = "ftimm-profile-v1";

/// Serialise a [`PhaseProfile`] as a self-contained pretty-printed JSON
/// document (stable field order; exact `f64` round-trip).
pub fn profile_json(prof: &PhaseProfile) -> String {
    let mut w = Writer::new(2);
    w.begin_obj();
    w.key("schema").str(PROFILE_SCHEMA);
    w.key("total_s").f64(prof.total_s);
    w.key("phase_s").begin_obj();
    for p in Phase::ALL {
        w.key(p.name()).f64(prof.phase_seconds(p));
    }
    w.end_obj();
    w.key("core_busy_s").begin_arr();
    for &busy in &prof.core_busy_s {
        w.f64(busy);
    }
    w.end_arr();
    w.key("overlap_s").f64(prof.overlap_s);
    w.key("overlap_frac").f64(prof.overlap_frac());
    w.key("roofline_gflops").f64(prof.roofline_gflops);
    w.key("achieved_gflops").f64(prof.achieved_gflops);
    w.key("plan_hits").u64(prof.plan_hits);
    w.key("plan_misses").u64(prof.plan_misses);
    w.key("plan_evictions").u64(prof.plan_evictions);
    w.key("catalog_hits").u64(prof.catalog_hits);
    w.key("catalog_misses").u64(prof.catalog_misses);
    w.key("spans").u64(prof.spans);
    w.key("events").u64(prof.events);
    w.key("dropped").u64(prof.dropped);
    w.end_obj();
    w.finish()
}

/// The trace thread a span or event renders on: each physical core gets
/// a compute track (`2·core`) and a DMA-engine track (`2·core + 1`);
/// host-side planning and autotuning each get one dedicated track above
/// all core tracks.
const PLANNER_TID: usize = 2 * PROFILE_CORES;
const TUNER_TID: usize = 2 * PROFILE_CORES + 1;

fn span_tid(phase: Phase, core: usize) -> usize {
    if phase == Phase::Plan {
        PLANNER_TID
    } else if phase == Phase::Tune {
        TUNER_TID
    } else if phase.is_data_movement() {
        2 * core + 1
    } else {
        2 * core
    }
}

fn event_tid(kind: EventKind, core: Option<usize>) -> usize {
    let Some(c) = core else { return 0 };
    match kind {
        EventKind::DmaCorrupt | EventKind::DmaTimeout => 2 * c + 1,
        _ => 2 * c,
    }
}

/// Serialise a raw span/event recording as a Chrome `trace_event` JSON
/// document (timestamps in microseconds of *simulated* time), loadable
/// in `chrome://tracing` or Perfetto.
pub fn chrome_trace_json(profiler: &Profiler) -> String {
    chrome_trace_json_clusters(&[("ftimm dspsim cluster".to_string(), vec![profiler])])
}

/// Multi-cluster Chrome trace: each `(label, recordings)` pair becomes
/// one trace *process* (`pid` = cluster index) with the usual per-core
/// compute/DMA tracks inside, so a sharded run renders as side-by-side
/// cluster swimlanes.  A cluster may contribute several recordings (one
/// per shard dispatch); they share the cluster's simulated clock, so
/// their spans interleave correctly on the shared time axis.
pub fn chrome_trace_json_clusters(clusters: &[(String, Vec<&Profiler>)]) -> String {
    // One `trace_event` object.  Metadata events (`ph` "M") carry their
    // label in `args`; span and instant events carry a category and the
    // timing fields `extra` writes.
    fn event(
        w: &mut Writer,
        name: &str,
        ph: &str,
        pid: usize,
        tid: usize,
        extra: impl FnOnce(&mut Writer),
    ) {
        w.begin_obj();
        w.key("name").str(name).key("ph").str(ph);
        w.key("pid").u64(pid as u64).key("tid").u64(tid as u64);
        extra(w);
        w.end_obj();
    }
    fn label(text: &str) -> impl FnOnce(&mut Writer) + '_ {
        move |w| {
            w.key("args").begin_obj().key("name").str(text).end_obj();
        }
    }

    let mut w = Writer::new(2);
    w.begin_obj();
    w.key("traceEvents").begin_arr();
    for (pid, (process, profilers)) in clusters.iter().enumerate() {
        let mut tids: BTreeSet<usize> = BTreeSet::new();
        for p in profilers {
            for sp in p.spans() {
                tids.insert(span_tid(sp.phase, sp.core));
            }
            for e in p.events() {
                tids.insert(event_tid(e.kind, e.core));
            }
        }
        event(&mut w, "process_name", "M", pid, 0, label(process));
        for &tid in &tids {
            let name = if tid == PLANNER_TID {
                "planner".to_string()
            } else if tid == TUNER_TID {
                "tuner".to_string()
            } else {
                let side = if tid % 2 == 0 { "compute" } else { "dma" };
                format!("core{} {side}", tid / 2)
            };
            event(&mut w, "thread_name", "M", pid, tid, label(&name));
        }
        for p in profilers {
            for sp in p.spans() {
                let tid = span_tid(sp.phase, sp.core);
                event(&mut w, sp.phase.name(), "X", pid, tid, |w| {
                    w.key("cat").str("phase");
                    w.key("ts").f64(sp.t0 * 1e6);
                    w.key("dur").f64((sp.t1 - sp.t0) * 1e6);
                });
            }
        }
        for p in profilers {
            for e in p.events() {
                let tid = event_tid(e.kind, e.core);
                event(&mut w, e.kind.name(), "i", pid, tid, |w| {
                    w.key("cat").str("fault");
                    w.key("ts").f64(e.t * 1e6);
                    w.key("s").str("p");
                });
            }
        }
    }
    w.end_arr();
    w.key("displayTimeUnit").str("ms");
    w.end_obj();
    w.finish()
}

/// Heterogeneous Chrome trace: one process per cluster (labelled
/// `cluster N`, recordings from the sharded engine's per-cluster
/// profilers) plus one `cpu lane` process for the host backend's track.
/// Under co-execution the CPU process carries compute spans from
/// `t = 0` of its own clock — side by side with the cluster swimlanes,
/// the split is visible as two devices working at once rather than a
/// serial tail.
pub fn chrome_trace_json_hetero(clusters: &[Vec<Profiler>], cpu: &Profiler) -> String {
    let mut groups: Vec<(String, Vec<&Profiler>)> = clusters
        .iter()
        .enumerate()
        .map(|(i, ps)| (format!("ftimm cluster {i}"), ps.iter().collect()))
        .collect();
    groups.push(("ftimm cpu lane".to_string(), vec![cpu]));
    chrome_trace_json_clusters(&groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::minijson::Parser;
    use dspsim::Span;

    fn sample_profile() -> PhaseProfile {
        let mut p = Profiler::enabled(64);
        p.record(Span {
            phase: Phase::DmaLoad,
            core: 0,
            t0: 0.0,
            t1: 2e-6,
        });
        p.record(Span {
            phase: Phase::Compute,
            core: 1,
            t0: 1e-6,
            t1: 3e-6,
        });
        p.event(EventKind::Retry, Some(1), 2.5e-6);
        let mut prof = p.aggregate();
        prof.roofline_gflops = 345.6;
        prof.achieved_gflops = 123.456789;
        prof.phase_s[Phase::Plan.index()] = 4.2e-5;
        prof.plan_hits = 7;
        prof.plan_misses = 2;
        prof.plan_evictions = 1;
        prof.catalog_hits = 3;
        prof.catalog_misses = 1;
        prof
    }

    #[test]
    fn profile_json_writes_every_phase_and_core_exactly() {
        let prof = sample_profile();
        let v = Parser::new(&profile_json(&prof)).parse().unwrap();
        assert_eq!(
            v.get("schema").unwrap().as_str("schema"),
            Ok(PROFILE_SCHEMA)
        );
        let phases = v.get("phase_s").unwrap();
        for p in Phase::ALL {
            let s = phases.get(p.name()).unwrap().as_f64(p.name()).unwrap();
            assert_eq!(s.to_bits(), prof.phase_seconds(p).to_bits(), "{}", p.name());
        }
        let busy = v.get("core_busy_s").unwrap().as_arr("core_busy_s").unwrap();
        assert_eq!(busy.len(), PROFILE_CORES);
        assert_eq!(v.get("plan_hits").unwrap().as_u64("plan_hits"), Ok(7));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_named_tracks() {
        let mut p = Profiler::enabled(64);
        p.record(Span {
            phase: Phase::Compute,
            core: 2,
            t0: 0.0,
            t1: 1e-6,
        });
        p.record(Span {
            phase: Phase::DmaStore,
            core: 2,
            t0: 1e-6,
            t1: 2e-6,
        });
        p.event(EventKind::DmaTimeout, Some(2), 1.5e-6);
        let text = chrome_trace_json(&p);
        let v = Parser::new(&text).parse().unwrap();
        let events = v.get("traceEvents").unwrap().as_arr("traceEvents").unwrap();
        // process_name + two thread_names + two spans + one instant.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").is_some())
            .map(|e| e.get("ph").unwrap().as_str("ph").unwrap())
            .collect();
        assert_eq!(phases, ["M", "M", "M", "X", "X", "i"]);
        // Compute rides the even track, the store its odd DMA sibling.
        assert_eq!(events[3].get("tid").unwrap().as_u64("tid").unwrap(), 4);
        assert_eq!(events[4].get("tid").unwrap().as_u64("tid").unwrap(), 5);
        let dur = events[3].get("dur").unwrap().as_f64("dur").unwrap();
        assert!((dur - 1.0).abs() < 1e-9, "1 µs span, got {dur}");
    }

    #[test]
    fn hetero_trace_names_cluster_and_cpu_lane_processes() {
        let mut cl = Profiler::enabled(8);
        cl.record(Span {
            phase: Phase::Compute,
            core: 0,
            t0: 0.0,
            t1: 2e-6,
        });
        let mut cpu = Profiler::enabled(8);
        // The co-executed CPU lane is busy from t = 0 on its own clock.
        cpu.record(Span {
            phase: Phase::Compute,
            core: 0,
            t0: 0.0,
            t1: 3e-6,
        });
        let text = chrome_trace_json_hetero(&[vec![cl]], &cpu);
        assert!(text.contains("ftimm cluster 0"), "{text}");
        assert!(text.contains("ftimm cpu lane"), "{text}");
        let v = Parser::new(&text).parse().unwrap();
        let events = v.get("traceEvents").unwrap().as_arr("traceEvents").unwrap();
        // The CPU lane's span starts at ts 0 under its own pid (1).
        let cpu_span = events
            .iter()
            .find(|e| {
                e.get("pid").and_then(|p| p.as_u64("pid").ok()) == Some(1)
                    && e.get("ph").and_then(|p| p.as_str("ph").ok()) == Some("X")
            })
            .expect("cpu lane span present");
        let ts = cpu_span.get("ts").unwrap().as_f64("ts").unwrap();
        assert_eq!(ts, 0.0);
    }

    #[test]
    fn plan_spans_render_on_a_dedicated_planner_track() {
        let mut p = Profiler::enabled(64);
        p.record(Span {
            phase: Phase::Plan,
            core: 0,
            t0: 0.0,
            t1: 5e-7,
        });
        let text = chrome_trace_json(&p);
        let v = Parser::new(&text).parse().unwrap();
        let events = v.get("traceEvents").unwrap().as_arr("traceEvents").unwrap();
        // process_name + planner thread_name + the span itself.
        assert_eq!(events.len(), 3);
        let name = events[1]
            .get("args")
            .unwrap()
            .get("name")
            .unwrap()
            .as_str("name")
            .unwrap();
        assert_eq!(name, "planner");
        let tid = events[2].get("tid").unwrap().as_u64("tid").unwrap();
        assert_eq!(tid as usize, PLANNER_TID);
    }

    #[test]
    fn tune_spans_render_on_a_dedicated_tuner_track() {
        let mut p = Profiler::enabled(64);
        p.record(Span {
            phase: Phase::Tune,
            core: 0,
            t0: 0.0,
            t1: 2e-6,
        });
        let text = chrome_trace_json(&p);
        let v = Parser::new(&text).parse().unwrap();
        let events = v.get("traceEvents").unwrap().as_arr("traceEvents").unwrap();
        // process_name + tuner thread_name + the span itself.
        assert_eq!(events.len(), 3);
        let name = events[1]
            .get("args")
            .unwrap()
            .get("name")
            .unwrap()
            .as_str("name")
            .unwrap();
        assert_eq!(name, "tuner");
        let tid = events[2].get("tid").unwrap().as_u64("tid").unwrap();
        assert_eq!(tid as usize, TUNER_TID);
    }

    #[test]
    fn multi_cluster_trace_gets_one_pid_per_cluster() {
        let mut p0 = Profiler::enabled(16);
        p0.record(Span {
            phase: Phase::Compute,
            core: 0,
            t0: 0.0,
            t1: 1e-6,
        });
        let mut p1a = Profiler::enabled(16);
        p1a.record(Span {
            phase: Phase::Compute,
            core: 1,
            t0: 0.0,
            t1: 2e-6,
        });
        let mut p1b = Profiler::enabled(16);
        p1b.event(EventKind::ClusterFailed, None, 3e-6);
        let text = chrome_trace_json_clusters(&[
            ("cluster 0".to_string(), vec![&p0]),
            ("cluster 1".to_string(), vec![&p1a, &p1b]),
        ]);
        let v = Parser::new(&text).parse().unwrap();
        let events = v.get("traceEvents").unwrap().as_arr("traceEvents").unwrap();
        let pids: Vec<u64> = events
            .iter()
            .map(|e| e.get("pid").unwrap().as_u64("pid").unwrap())
            .collect();
        // Cluster 0: process_name + thread_name + span.  Cluster 1:
        // process_name + two thread_names + span + instant.
        assert_eq!(pids, [0, 0, 0, 1, 1, 1, 1, 1]);
        let labels: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str("name") == Ok("process_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str("name")
                    .unwrap()
            })
            .collect();
        assert_eq!(labels, ["cluster 0", "cluster 1"]);
        assert!(text.contains("cluster_failed"));
    }
}
