//! Profile one GEMM through the instrumented executor: print the
//! per-phase breakdown and optionally export the JSON profile document
//! and a Chrome `trace_event` file.
//!
//! Usage:
//! `cargo run --release -p bench --bin profile -- [options] M N K`
//!
//! Options:
//! * `--strategy auto|rules|mpar|kpar|tgemm` (default `auto`)
//! * `--cores N` (default 8)
//! * `--mode interpret|fast|compiled|timing` (default `fast`)
//! * `--out-profile FILE` — write the profile JSON document
//! * `--out-trace FILE` — write a Chrome trace (`chrome://tracing`)
//! * `--assert-roofline FRAC` — exit nonzero unless achieved GFLOPS
//!   reaches `FRAC` of the roofline prediction (CI smoke gate)

use bench::cli::{Arg, Cli, Direction};
use dspsim::{ExecMode, Machine, Phase, PhaseProfile};
use ftimm::{chrome_trace_json, profile_json, Executor, FtImm, GemmProblem, Strategy};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cli = Cli::parse(
        "profile",
        &[
            ("--strategy", Arg::Text("auto|rules|mpar|kpar|tgemm")),
            ("--cores", Arg::Number("N")),
            ("--mode", Arg::Text("interpret|fast|compiled|timing")),
            ("--out-profile", Arg::Text("FILE")),
            ("--out-trace", Arg::Text("FILE")),
            ("--assert-roofline", Arg::Number("FRAC")),
        ],
        "M N K",
    );
    let strategy = cli.get("--strategy").map_or(Strategy::Auto, |tag| {
        Strategy::from_tag(tag).unwrap_or_else(|_| cli.die(&format!("unknown strategy `{tag}`")))
    });
    let mode = cli.get("--mode").map_or(ExecMode::Fast, |tag| {
        ExecMode::from_tag(tag).unwrap_or_else(|| cli.die(&format!("unknown mode `{tag}`")))
    });
    let cores = cli.num("--cores").unwrap_or(8);
    let dims: Vec<usize> = cli
        .positional()
        .iter()
        .map(|a| {
            a.parse()
                .unwrap_or_else(|_| cli.die(&format!("unrecognised argument `{a}`")))
        })
        .collect();
    let &[m, n, k] = dims.as_slice() else {
        cli.die("exactly one M N K triple is required")
    };

    let ft = FtImm::new(dspsim::HwConfig::default());
    let mut machine = Machine::new(ft.cfg().clone(), mode);
    let p = GemmProblem::alloc(&mut machine, m, n, k)
        .unwrap_or_else(|e| cli.die(&format!("allocation failed: {e}")));
    if machine.mode.is_functional() {
        let fill = ftimm::reference::fill_matrix;
        p.a.upload(&mut machine, &fill(m * k, 1)).unwrap();
        p.b.upload(&mut machine, &fill(k * n, 2)).unwrap();
        p.c.upload(&mut machine, &vec![0.0; m * n]).unwrap();
    }

    let run = Executor::new(&ft)
        .strategy(strategy)
        .cores(cores)
        .profiled()
        .dispatch(&mut machine, &p)
        .unwrap_or_else(|e| cli.die(&format!("dispatch rejected: {e}")));
    let report = match &run.result {
        Ok(r) => r,
        Err(e) => cli.die(&format!("run failed: {e}")),
    };
    let prof = report.profile.expect("profiled run carries a profile");

    println!(
        "{m}x{n}x{k}  plan={}  cores={}  mode={mode:?}",
        run.plan, report.cores_used
    );
    print_phase_table(&prof);

    if let Some(path) = cli.get("--out-profile") {
        cli.write(path, &profile_json(&prof), "profile");
    }
    if let Some(path) = cli.get("--out-trace") {
        let profiler = run.profiler.as_ref().expect("profiled run keeps spans");
        cli.write(path, &chrome_trace_json(profiler), "trace");
    }
    // Achieved GFLOPS must reach FRAC of the roofline prediction.
    if let Some(frac) = cli.num::<f64>("--assert-roofline") {
        let bound = frac * prof.roofline_gflops;
        cli.gate("roofline", prof.achieved_gflops, bound, Direction::AtLeast);
    }
    cli.finish(None)
}

fn print_phase_table(prof: &PhaseProfile) {
    println!("{:>12} {:>14} {:>8}", "phase", "seconds", "share");
    for phase in Phase::ALL {
        let s = prof.phase_seconds(phase);
        if s <= 0.0 {
            continue;
        }
        if phase == Phase::Plan {
            // Host-side planning time: outside the device window, so a
            // share of `total_s` would be meaningless.
            println!("{:>12} {:>14.6e} {:>8}", phase.name(), s, "(host)");
            continue;
        }
        println!(
            "{:>12} {:>14.6e} {:>7.1}%",
            phase.name(),
            s,
            100.0 * s / prof.total_s
        );
    }
    println!(
        "{:>12} {:>14.6e} {:>7.1}%",
        "idle",
        prof.total_s - prof.busy_s(),
        100.0 * (prof.total_s - prof.busy_s()) / prof.total_s
    );
    println!("{:>12} {:>14.6e}", "total", prof.total_s);
    println!(
        "dma/compute overlap: {:.1}% of the window ({} spans, {} events, {} dropped)",
        100.0 * prof.overlap_frac(),
        prof.spans,
        prof.events,
        prof.dropped
    );
    let occ: Vec<String> = (0..dspsim::PROFILE_CORES)
        .map(|c| format!("{:.0}%", 100.0 * prof.occupancy(c)))
        .collect();
    println!("core occupancy: [{}]", occ.join(" "));
    println!(
        "plan cache: {} hits, {} misses, {} evictions",
        prof.plan_hits, prof.plan_misses, prof.plan_evictions
    );
    println!(
        "roofline {:.1} GFLOPS, achieved {:.1} GFLOPS ({:.1}% of bound)",
        prof.roofline_gflops,
        prof.achieved_gflops,
        100.0 * prof.achieved_gflops / prof.roofline_gflops
    );
}
