//! The reproduction harness's one binary: a subcommand per table and
//! figure of the paper's evaluation (§V) and per gated report.
//!
//! Usage: `cargo run --release -p bench -- <subcommand> [flags]`.  Each
//! subcommand's flags are its row of [`SUBS`], parsed by `bench::cli`,
//! whose exit codes every subcommand keeps: 0 on success, 1 when a gate
//! (or, for `conform`, a case) failed, 2 on a usage or I/O error.
//! `paper` prints every section of the evaluation in order; its output
//! is the committed `paper_output.txt`.

use bench::cli::{Arg, Cli, Direction};
use bench::Harness;
use conformance::corpus::{default_corpus_dir, replay_dir, write_fixture};
use conformance::fuzzer::run_fuzz;
use dspsim::{ExecMode, HwConfig, Machine, Phase, PhaseProfile};
use ftimm::{
    chrome_trace_json, profile_json, Executor, FtImm, GemmProblem, GemmShape, SpillPolicy, Strategy,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One subcommand: its name, its flag table, the bare arguments its usage
/// line names (empty: none are accepted) and what it runs.
struct Sub(&'static str, Flags, &'static str, Run);

type Flags = &'static [(&'static str, Arg)];

const OUT: (&str, Arg) = ("--out", Arg::Text("FILE"));

/// What a subcommand runs.
enum Run {
    /// Print one section of the paper's evaluation; `paper` prints every
    /// section, in table order.
    Section(fn() -> String),
    /// Run with the parsed command line.
    Main(fn(Cli) -> ExitCode),
}
use Run::{Main, Section};

/// The flagless subcommand printing the section of the paper's
/// evaluation that `bench::$module` computes and renders.
macro_rules! section {
    ($module:ident) => {
        Sub(
            stringify!($module),
            &[],
            "",
            Section(|| bench::$module::render(&bench::$module::compute())),
        )
    };
}

/// Every subcommand, in the order the usage line lists them.
const SUBS: &[Sub] = &[
    Sub("paper", &[], "", Main(paper)),
    section!(tables),
    section!(fig3),
    section!(fig4),
    section!(fig5),
    section!(fig6),
    section!(fig7),
    section!(ablation),
    Sub("workload_suite", &[], "", Main(workload_suite)),
    Sub("sweep", SWEEP, "M N K [M N K ...]", Main(sweep)),
    Sub("profile", PROFILE, "M N K", Main(profile)),
    Sub("planner", PLANNER, "", Main(planner)),
    Sub("kernel_exec", KERNEL_EXEC, "", Main(kernel_exec)),
    Sub("tune", TUNE, "", Main(tune)),
    Sub("cluster", CLUSTER, "", Main(cluster)),
    Sub("hetero", HETERO, "", Main(hetero)),
    Sub("coexec", COEXEC, "", Main(coexec)),
    Sub("conform", CONFORM, "", Main(conform)),
];

/// The subcommand `args` names and its parsed command line; `Err` is
/// `(usage, message)`, the usage line listing every subcommand when the
/// first argument names none.
fn parse(mut args: impl Iterator<Item = String>) -> Result<(&'static Run, Cli), (String, String)> {
    let usage = || {
        let names: Vec<&str> = SUBS.iter().map(|s| s.0).collect();
        format!("usage: bench <{}> [flags]", names.join("|"))
    };
    let Some(name) = args.next() else {
        return Err((usage(), "no subcommand given".into()));
    };
    let Some(Sub(_, flags, positional, run)) = SUBS.iter().find(|s| s.0 == name) else {
        return Err((usage(), format!("unknown subcommand `{name}`")));
    };
    let cli = Cli::parse(&format!("bench {name}"), flags, positional, args)?;
    Ok((run, cli))
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok((Section(render), _)) => {
            print!("{}", render());
            ExitCode::SUCCESS
        }
        Ok((Main(run), cli)) => run(cli),
        Err((usage, msg)) => {
            eprintln!("error: {msg}\n{usage}");
            ExitCode::from(2)
        }
    }
}

/// Every table and figure of the paper's evaluation in one go.
fn paper(_: Cli) -> ExitCode {
    println!("=== ftIMM reproduction: all tables and figures ===\n");
    for Sub(.., run) in SUBS {
        if let Section(render) = run {
            print!("{}", render());
        }
    }
    ExitCode::SUCCESS
}

/// The workload suite (k-means, VGG-16 layers, FEM batches).
fn workload_suite(_: Cli) -> ExitCode {
    print!(
        "{}",
        bench::workload_eval::render(&bench::workload_eval::compute())
    );
    ExitCode::SUCCESS
}

/// The bare arguments as matrix dimensions; anything else is a usage
/// error.
fn dims(cli: &Cli) -> Vec<usize> {
    let dim = |a: &String| {
        a.parse()
            .unwrap_or_else(|_| cli.die(&format!("unrecognised argument `{a}`")))
    };
    cli.positional().iter().map(dim).collect()
}

const SWEEP: Flags = &[("--cores", Arg::Number("C"))];

/// ftIMM (auto), both forced strategies and TGEMM on the given shapes.
fn sweep(cli: Cli) -> ExitCode {
    let cores = cli.num("--cores").unwrap_or(8);
    let mut dims = dims(&cli);
    if dims.is_empty() {
        dims = vec![4096, 32, 4096, 1 << 16, 32, 32, 32, 32, 1 << 16];
        eprintln!("(no shapes given; using defaults — pass M N K triples)");
    }
    if !dims.len().is_multiple_of(3) {
        cli.die("shapes must be M N K triples");
    }

    let h = Harness::new();
    println!(
        "{:>20} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "MxNxK", "type", "auto", "M-par", "K-par", "TGEMM", "best-spd"
    );
    for t in dims.chunks(3) {
        let shape = GemmShape::new(t[0], t[1], t[2]);
        let auto = h.gflops(&shape, Strategy::Auto, cores);
        let mpar = h.gflops(&shape, Strategy::MPar, cores);
        let kpar = h.gflops(&shape, Strategy::KPar, cores);
        let tg = h.tgemm_gflops(&shape, cores);
        // The regime's first word: `type-1` … `type-3`, `small`, `regular`.
        let regime = shape.classify().to_string();
        let tag = regime.split(' ').next().unwrap_or_default();
        let speedup = auto / tg;
        println!(
            "{:>20} {tag:>8} {auto:>9.1}G {mpar:>9.1}G {kpar:>9.1}G {tg:>9.1}G {speedup:>8.2}x",
            shape.to_string()
        );
    }
    ExitCode::SUCCESS
}

const PROFILE: Flags = &[
    ("--strategy", Arg::Text("auto|rules|mpar|kpar|tgemm")),
    ("--cores", Arg::Number("N")),
    ("--mode", Arg::Text("interpret|compiled|timing")),
    ("--out-profile", Arg::Text("FILE")),
    ("--out-trace", Arg::Text("FILE")),
    ("--assert-roofline", Arg::Number("FRAC")),
];

/// Profile one GEMM through the instrumented executor: the per-phase
/// breakdown, optionally the JSON profile document and a Chrome
/// `trace_event` file, and a roofline gate.
fn profile(mut cli: Cli) -> ExitCode {
    let strategy = cli.get("--strategy").map_or(Strategy::Auto, |tag| {
        Strategy::from_tag(tag).unwrap_or_else(|_| cli.die(&format!("unknown strategy `{tag}`")))
    });
    let mode = cli.get("--mode").map_or(ExecMode::Compiled, |tag| {
        ExecMode::from_tag(tag).unwrap_or_else(|| cli.die(&format!("unknown mode `{tag}`")))
    });
    let cores = cli.num("--cores").unwrap_or(8);
    let &[m, n, k] = dims(&cli).as_slice() else {
        cli.die("exactly one M N K triple is required")
    };

    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::new(ft.cfg().clone(), mode);
    let p = GemmProblem::alloc(&mut machine, m, n, k)
        .unwrap_or_else(|e| cli.die(&format!("allocation failed: {e}")));
    if machine.mode.is_functional() {
        let fill = ftimm::reference::fill_matrix;
        for (matrix, data) in [
            (&p.a, fill(m * k, 1)),
            (&p.b, fill(k * n, 2)),
            (&p.c, vec![0.0; m * n]),
        ] {
            matrix
                .upload(&mut machine, &data)
                .unwrap_or_else(|e| cli.die(&format!("upload failed: {e}")));
        }
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
    let (Some(prof), Some(profiler)) = (report.profile, run.profiler.as_ref()) else {
        cli.die("the profiled run returned no profile")
    };

    println!(
        "{m}x{n}x{k}  plan={}  cores={}  mode={mode:?}",
        run.plan, report.cores_used
    );
    print_phase_table(&prof);

    if let Some(path) = cli.get("--out-profile") {
        cli.write(path, &profile_json(&prof), "profile");
    }
    if let Some(path) = cli.get("--out-trace") {
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

const PLANNER: Flags = &[OUT, ("--assert-warm-speedup", Arg::Number("X"))];

fn planner(mut cli: Cli) -> ExitCode {
    let report = bench::planner::compute();
    let doc = bench::planner::document(&report);
    print!("{}", doc.render());

    if let Some(min) = cli.num("--assert-warm-speedup") {
        cli.gate("warm-plan", report.min_speedup(), min, Direction::AtLeast);
    }
    cli.finish(Some(&doc))
}

const KERNEL_EXEC: Flags = &[
    OUT,
    ("--iters", Arg::Number("N")),
    ("--assert-invoke-overhead", Arg::Number("X")),
];

fn kernel_exec(mut cli: Cli) -> ExitCode {
    let report = bench::kernel_exec::compute(cli.num("--iters").unwrap_or(0));
    let doc = bench::kernel_exec::document(&report);
    print!("{}", doc.render());

    if let Some(max) = cli.num("--assert-invoke-overhead") {
        let got = report.max_invoke_overhead();
        cli.gate("invoke-overhead", got, max, Direction::AtMost);
    }
    cli.finish(Some(&doc))
}

const TUNE: Flags = &[
    OUT,
    ("--catalog", Arg::Text("FILE")),
    ("--assert-no-regression", Arg::Switch),
    ("--assert-warm-zero-sims", Arg::Switch),
];

fn tune(mut cli: Cli) -> ExitCode {
    let catalog = cli.get("--catalog").unwrap_or("ftimm-plan-catalog.json");

    let report = bench::tune::compute(Path::new(catalog));
    let doc = bench::tune::document(&report);
    print!("{}", doc.render());
    println!("catalog written to {catalog}");

    // No tuned plan may be predicted slower than its analytic default.
    if cli.get("--assert-no-regression").is_some() {
        let worst = report.max_regression_s();
        cli.gate("no-regression", worst, 0.0, Direction::AtMost);
    }
    // The catalog warm start must re-plan every shape simulation-free.
    if cli.get("--assert-warm-zero-sims").is_some() {
        let sims = report.warm_simulations as f64;
        cli.gate("warm-zero-sims", sims, 0.0, Direction::AtMost);
    }
    cli.finish(Some(&doc))
}

const CLUSTER: Flags = &[
    OUT,
    ("--trace", Arg::Text("FILE")),
    ("--spill", Arg::Text("POLICY")),
    ("--assert-failover-overhead", Arg::Number("X")),
    ("--assert-min-efficiency", Arg::Number("X")),
];

fn cluster(mut cli: Cli) -> ExitCode {
    let spill = cli.get("--spill").map_or(SpillPolicy::Never, |v| {
        bench::cluster::parse_spill(v)
            .unwrap_or_else(|| cli.die("--spill takes never | last-resort | coexec"))
    });

    let report = bench::cluster::compute();
    let doc = bench::cluster::document(&report);
    print!("{}", doc.render());

    if let Some(path) = cli.get("--trace") {
        if spill == SpillPolicy::Never {
            cli.write(path, &bench::cluster::failover_trace(), "per-cluster trace");
        } else {
            cli.write(
                path,
                &bench::cluster::spill_trace(spill),
                "dual-backend trace",
            );
        }
    }
    // Recovery must cost at most X times the lost shard's fault-free work.
    if let Some(max) = cli.num("--assert-failover-overhead") {
        let got = report.failover.overhead_ratio();
        cli.gate("failover-overhead", got, max, Direction::AtMost);
    }
    // Every regime keeps at least X weak-scaling efficiency on the full
    // pool.
    if let Some(min) = cli.num("--assert-min-efficiency") {
        let got = report.min_efficiency();
        cli.gate("min-efficiency", got, min, Direction::AtLeast);
    }
    cli.finish(Some(&doc))
}

const HETERO: Flags = &[OUT, ("--assert-cpu-model", Arg::Number("X"))];

fn hetero(mut cli: Cli) -> ExitCode {
    let report = bench::hetero::compute();
    let doc = bench::hetero::document(&report);
    print!("{}", doc.render());

    // Lane time may drift at most X (fraction) from the cpublas prediction.
    if let Some(max) = cli.num("--assert-cpu-model") {
        let got = report.max_model_error();
        cli.gate("cpu-model", got, max, Direction::AtMost);
    }
    cli.finish(Some(&doc))
}

const COEXEC: Flags = &[OUT, ("--assert-coexec-no-regression", Arg::Switch)];

fn coexec(mut cli: Cli) -> ExitCode {
    let report = bench::coexec::compute();
    let doc = bench::coexec::document(&report);
    print!("{}", doc.render());

    if cli.get("--assert-coexec-no-regression").is_some() {
        // The chosen split is never predicted slower than the best single
        // backend, and the sweep shows dsp-only, co-exec and cpu-only.
        let worst = report.max_regression();
        cli.gate("coexec-no-regression", worst, 0.0, Direction::AtMost);
        let picks = report.picks_exhibited() as f64;
        cli.gate("coexec-all-picks", picks, 3.0, Direction::AtLeast);
    }
    cli.finish(Some(&doc))
}

const CONFORM: Flags = &[
    ("--iters", Arg::Number("N")),
    ("--seed", Arg::Number("S")),
    ("--corpus", Arg::Text("DIR")),
    ("--no-replay", Arg::Switch),
];

/// Seeded differential fuzzing plus corpus replay: print the
/// per-regime/per-oracle coverage table, shrink each new mismatch into a
/// minimal-repro fixture in the corpus directory, replay every persisted
/// fixture, and fail on any mismatch.
fn conform(cli: Cli) -> ExitCode {
    let iters: u64 = cli.num("--iters").unwrap_or(200);
    let seed: u64 = cli.num("--seed").unwrap_or(7);
    let corpus = cli
        .get("--corpus")
        .map_or_else(default_corpus_dir, PathBuf::from);
    let ft = FtImm::new(HwConfig::default());
    let mut failed = false;

    println!("== conformance fuzz: {iters} iterations, seed {seed} ==");
    let summary = run_fuzz(&ft, seed, iters, |i, case, passed| {
        if !passed {
            println!("  case {i} FAILED: {case}");
        } else if (i + 1) % 50 == 0 {
            println!("  ... {} cases done", i + 1);
        }
    });
    println!("\n{}", summary.coverage_table());
    if !summary.mismatches.is_empty() {
        failed = true;
        println!("{} mismatch(es); shrunk repros:", summary.mismatches.len());
        for m in &summary.mismatches {
            println!("  {m}");
            match write_fixture(&corpus, m) {
                Ok(path) => println!("    fixture written: {}", path.display()),
                Err(e) => println!("    (could not persist fixture: {e})"),
            }
        }
    } else {
        println!("fuzz: {iters} cases, zero mismatches");
    }

    if cli.get("--no-replay").is_none() {
        println!("\n== corpus replay: {} ==", corpus.display());
        let outcomes = replay_dir(&ft, &corpus);
        let mut passed = 0usize;
        for o in &outcomes {
            match &o.result {
                Ok(()) => passed += 1,
                Err(why) => {
                    failed = true;
                    println!(
                        "  REPLAY FAILED {}: {why}",
                        o.path.file_name().unwrap_or_default().to_string_lossy()
                    );
                }
            }
        }
        println!("replay: {passed}/{} fixtures pass", outcomes.len());
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(str::to_string)
    }

    /// Every `-p bench -- …` command of the CI workflow (YAML folded
    /// `run: >` blocks joined onto one line), cut at a shell pipe.
    fn ci_commands() -> Vec<String> {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../.github/workflows/ci.yml"
        );
        let yml = std::fs::read_to_string(path).unwrap();
        let mut runs: Vec<String> = Vec::new();
        let mut folded: Option<usize> = None;
        for line in yml.lines() {
            let indent = line.len() - line.trim_start().len();
            match folded {
                Some(at) if indent > at && !line.trim().is_empty() => {
                    let run = runs.last_mut().unwrap();
                    run.push(' ');
                    run.push_str(line.trim());
                    continue;
                }
                _ => folded = None,
            }
            if let Some(rest) = line.trim_start().strip_prefix("run:") {
                if rest.trim() == ">" {
                    folded = Some(indent);
                }
                runs.push(rest.trim().trim_start_matches('>').to_string());
            }
        }
        let commands: Vec<String> = runs
            .iter()
            .filter_map(|run| run.split_once("-p bench -- "))
            .map(|(_, tail)| tail.split('|').next().unwrap().trim().to_string())
            .collect();
        assert_eq!(
            commands.len(),
            yml.matches("-p bench --").count(),
            "{runs:?}"
        );
        commands
    }

    #[test]
    fn every_ci_bench_command_parses_through_the_subcommand_table() {
        let commands = ci_commands();
        for want in [
            "paper",
            "profile",
            "planner",
            "kernel_exec",
            "cluster",
            "hetero",
            "coexec",
            "tune",
            "conform",
        ] {
            assert!(
                commands.iter().any(|c| c.split(' ').next() == Some(want)),
                "CI runs no `{want}`: {commands:?}"
            );
        }
        for c in &commands {
            if let Err((usage, msg)) = parse(args(c)) {
                panic!("CI's `bench {c}`: {msg}\n{usage}");
            }
        }
    }

    #[test]
    fn usage_errors_name_the_subcommands_instead_of_panicking() {
        for line in ["", "frobnicate --out x.json"] {
            let (usage, _) = parse(args(line)).err().unwrap();
            for sub in SUBS {
                assert!(usage.contains(sub.0), "{line:?}: {usage}");
            }
        }
        let (usage, msg) = parse(args("conform --iters x")).err().unwrap();
        assert!(msg.contains("`x` is not a number"), "{msg}");
        assert!(
            usage.starts_with("usage: bench conform [--iters N]"),
            "{usage}"
        );
    }

    #[test]
    fn each_subcommand_takes_its_own_flags_only() {
        let (run, cli) = parse(args("sweep 64 32 32 --cores 4")).unwrap();
        assert!(matches!(run, Main(_)));
        assert_eq!(cli.num("--cores"), Some(4));
        assert_eq!(cli.positional(), ["64", "32", "32"]);
        assert!(parse(args("paper --out x.json")).is_err());
        assert!(parse(args("fig3 extra")).is_err());
        assert!(parse(args("planner --assert-roofline 0.5")).is_err());
    }
}
