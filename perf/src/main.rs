//! `perf` — the repo benchmark: one harness, four workloads, two clocks,
//! a layer table.  See `perf/README.md` for what each workload isolates
//! and how to read the output.
//!
//! ```text
//! perf --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//!      [--trace-out <file>] [--report <file>]
//! perf --check-repeat [--seed <u64>] [--seconds <n>]
//! perf --write-baseline <file> [--seed <u64>] [--seconds <n>]
//! ```
//!
//! One invocation runs one workload in one process and prints, as the
//! last line of stdout, one JSON object with every metric by name and
//! unit (`--trace 0`: the end-to-end metrics, measured untraced;
//! `--trace 1`: the per-layer metrics).  Everything else goes to stderr.
//! The exit code is non-zero when an output check fails.

mod anchors;
mod clock;
mod metrics;
mod probes;
mod repeat;
mod spans;
mod stats;
mod workloads;

use metrics::{declared, result_line, MetricDef, Metrics};
use spans::Recorder;
use stats::{fold_digest, highest_supported_percentile, median, percentile, show, FNV_INIT};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{timed, JobOutcome, Workload};

/// `setup_s` is the median of at least this many complete set-ups…
const MIN_SETUPS: usize = 3;
/// …and of as many more (up to `MAX_SETUPS`) as fit in this much host
/// time: a 50 ms set-up needs more than three samples for a steady
/// median, a 2 s one cannot afford them.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 21;
/// A set-up shorter than this (the cold workloads build a context and
/// little else) is timed in back-to-back batches, so that the clock's own
/// cost — a system call — stays below a percent of a sample.
const MIN_SETUP_SAMPLE_S: f64 = 1e-3;

/// A file under the executable's directory (inside the build directory,
/// hence inside the checkout), unique to this process.
pub fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("perf-{}-{name}", std::process::id()))
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    report: Option<PathBuf>,
    check_repeat: bool,
    write_baseline: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: declared().run_seconds as f64,
        trace: false,
        trace_out: None,
        report: None,
        check_repeat: false,
        write_baseline: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--report" => args.report = Some(PathBuf::from(value()?)),
            "--check-repeat" => args.check_repeat = true,
            "--write-baseline" => args.write_baseline = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One stream's outcomes: the seeded jobs, then the closing jobs.
struct Stream {
    seeded: Vec<JobOutcome>,
    tail: Vec<JobOutcome>,
}

impl Stream {
    fn all(&self) -> impl Iterator<Item = &JobOutcome> {
        self.seeded.iter().chain(&self.tail)
    }
}

/// Run whole units from index 0 until `seconds` have passed and at least
/// `min_jobs` jobs ran, then the workload's closing jobs.
fn run_stream(
    w: &mut dyn Workload,
    seconds: f64,
    min_jobs: usize,
    anchors: bool,
    rec: &mut Recorder,
) -> Stream {
    w.begin_stream();
    let t0 = Instant::now();
    let mut seeded = Vec::new();
    while seeded.len() < min_jobs || t0.elapsed().as_secs_f64() < seconds {
        for _ in 0..w.unit_len() {
            seeded.push(w.run_job(seeded.len(), rec));
        }
    }
    let tail = w.tail_jobs(seeded.len(), anchors, rec);
    Stream { seeded, tail }
}

/// Host-clock summary of a stream.
struct HostStats {
    jobs_per_s: f64,
    p50_s: f64,
    p90_s: f64,
}

/// Every unit of a stream holds each job kind once, so a stream is many
/// repeats of every kind, spread evenly over the window.  Repeats of one
/// kind cost the same; what differs is what the sandbox adds — a
/// neighbour on the memory bus, a descheduled vCPU warming its caches
/// again.  That only ever *adds* time, in bursts that cover anything from
/// none to most of a run, and pooled it drags a mean and pushes a
/// percentile across the gaps between kinds.  So each kind is first
/// reduced to its **quiet latency** — the lower quartile of its repeats,
/// what the job costs when left alone, which a quarter of undisturbed
/// repeats is enough to find — and the three host figures are read off
/// that one mix of quiet jobs: throughput is jobs ÷ the busy time of a
/// unit of them, and the percentiles run over the kinds (every kind is an
/// equal share of the jobs), interpolated, so they move smoothly when a
/// kind does.  The closing jobs (anchor, catalog round trip) are checked
/// and counted as attempted but stay out of these figures: they are a
/// handful of samples of a different sort.
fn host_stats(seeded: &[JobOutcome], kinds: &[usize], unit_len: usize) -> HostStats {
    let mut repeats = vec![Vec::new(); unit_len];
    for (job, &kind) in seeded.iter().zip(kinds) {
        repeats[kind].push(job.latency_s);
    }
    let quiet: Vec<f64> = repeats.iter().map(|r| percentile(r, 0.25)).collect();
    eprintln!(
        "perf: quiet ms per job kind ({} repeats each): {}",
        seeded.len() / unit_len,
        quiet
            .iter()
            .map(|t| format!("{:.2}", t * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    HostStats {
        jobs_per_s: unit_len as f64 / quiet.iter().sum::<f64>(),
        p50_s: median(&quiet),
        p90_s: percentile(&quiet, 0.9),
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What one run produced, ready to print.
struct RunOutput {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Fold of the fixed jobs' output digests.
    digest: u64,
    /// Latency samples behind the percentiles.
    samples: usize,
    /// Spans of the traced stream (traced runs only).
    spans: Vec<spans::Span>,
}

fn workload_digest(fixed: &[JobOutcome]) -> u64 {
    fixed.iter().fold(FNV_INIT, |h, j| fold_digest(h, j.digest))
}

/// `setup_s`: the median of the run's own set-up (`first_s`, if it was
/// long enough to time) and of further complete set-ups.
fn median_setup_s(name: &str, seed: u64, first_s: f64) -> f64 {
    let (mut setup_s, mut spent_s, mut batch) = (Vec::new(), first_s, 1usize);
    if first_s >= MIN_SETUP_SAMPLE_S {
        setup_s.push(first_s);
    }
    let mut built: Option<Box<dyn Workload>> = None;
    while setup_s.len() < MIN_SETUPS || (setup_s.len() < MAX_SETUPS && spent_s < SETUP_BUDGET_S) {
        // One set of inputs alive at a time; only a batch's own
        // intermediate set-ups are torn down on the clock.
        drop(built.take());
        let ((), s) = timed(|| {
            for _ in 0..batch {
                drop(built.take());
                built = workloads::build(name, seed);
            }
        });
        spent_s += s;
        if s < MIN_SETUP_SAMPLE_S {
            batch *= 4; // too short to time: discard and batch more
        } else {
            setup_s.push(s / batch as f64);
        }
    }
    median(&setup_s)
}

/// The end-to-end run: set up, measure untraced, check, and set up again
/// (several times) for `setup_s`.  The repeats come last so that the
/// measured phase and `peak_rss_mib` see the process a user would have —
/// one set-up, then the jobs — and not the heap three set-ups leave behind
/// (which put the peak of `sharded_faults` at 200 or 230 MiB by chance).
fn run_end_to_end(name: &str, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    let (built, first_setup_s) = timed(|| workloads::build(name, seed));
    let mut w = built.ok_or_else(|| format!("unknown workload {name:?}"))?;
    let fixed_len = w.fixed_len();
    let stream = run_stream(
        w.as_mut(),
        seconds,
        fixed_len,
        true,
        &mut Recorder::new(false),
    );
    // The measured phase is over: what follows (extra timing walks, the
    // reference re-runs, the Fig. 3 panels) is the harness's own work and
    // stays out of the process's peak.
    let peak_rss = peak_rss_mib()?;
    let fixed = &stream.seeded[..fixed_len];
    let sim = w.sim_summary(fixed);
    let reference = w.reference_check();
    let mut paper = anchors::fig3_errors();
    paper.extend(w.anchor_errors());

    let kinds: Vec<usize> = (0..stream.seeded.len()).map(|i| w.kind(i)).collect();
    let host = host_stats(&stream.seeded, &kinds, w.unit_len());
    drop(w);
    let setup_s = median_setup_s(name, seed, first_setup_s);
    let jobs = stream.all().count();
    let completed = stream.all().filter(|j| j.ok).count();
    let attempted = jobs as u64 + reference.checked;
    let failed = (jobs - completed) as u64 + reference.failed;

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("jobs_per_s", host.jobs_per_s);
    m.set("job_p50_ms", host.p50_s * 1e3);
    m.set("job_p90_ms", host.p90_s * 1e3);
    m.set("peak_rss_mib", peak_rss);
    m.set("sim_gflops", sim.gflops);
    m.set("sim_speedup_vs_tgemm", sim.speedup_vs_tgemm);
    m.set("sim_paper_err_p50", median(&paper));
    m.check_against(&declared().end_to_end)?;
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        digest: workload_digest(fixed),
        samples: stream.seeded.len(),
        spans: Vec::new(),
    })
}

/// Share of the window each job stream of a traced run gets; the layer
/// probes take the rest.
const TRACED_STREAM_SHARE: f64 = 0.3;

/// The traced run: the same seeded stream untraced and then decomposed
/// into spans, and the per-layer probes.
fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    trace_out: Option<&PathBuf>,
) -> Result<RunOutput, String> {
    let mut w = workloads::build(name, seed).ok_or_else(|| format!("unknown workload {name:?}"))?;
    // Both streams cover at least the fixed jobs, so the digest is the
    // one the untraced run reports, whatever the host's speed.
    let window = seconds * TRACED_STREAM_SHARE;
    let fixed_len = w.fixed_len();
    let plain = run_stream(
        w.as_mut(),
        window,
        fixed_len,
        false,
        &mut Recorder::new(false),
    );
    let mut rec = Recorder::new(true);
    let traced = run_stream(w.as_mut(), window, fixed_len, false, &mut rec);
    let context = w.context_stats();

    // Same seed, same stream: the decomposed jobs must reproduce the
    // one-shot jobs' outputs bit for bit.
    let common = plain.seeded.len().min(traced.seeded.len());
    let mismatched = plain.seeded[..common]
        .iter()
        .zip(&traced.seeded[..common])
        .filter(|(a, b)| a.digest != b.digest)
        .count() as u64;
    let wall = |jobs: &[JobOutcome]| jobs.iter().map(|j| j.latency_s).sum::<f64>();
    let trace_overhead = wall(&traced.seeded[..common]) / wall(&plain.seeded[..common]);

    if let Some(path) = trace_out {
        std::fs::write(path, spans::chrome_trace(rec.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let reference = w.reference_check();
    let probe = probes::run(&w.probe_shapes(), seed, w.stream_sections())
        .map_err(|e| format!("layer probes: {e}"))?;
    let mut layers = probe.layers;
    w.stream_layers(&mut layers);
    // Counters of the workload's own stream; where the stream never
    // consulted a cache (timing-only jobs and the compiled-kernel memo)
    // the ratio is taken over the probes' functional runs instead.
    let ratio = |hits: u64, misses: u64, fallback: (u64, u64)| {
        let (h, m) = if hits + misses > 0 {
            (hits, misses)
        } else {
            fallback
        };
        h as f64 / (h + m).max(1) as f64
    };
    let pc = probe.context;
    layers.set(
        "ftimm.plan.cache_hit_ratio",
        ratio(
            context.plan_hits,
            context.plan_misses,
            (pc.plan_hits, pc.plan_misses),
        ),
    );
    layers.set("ftimm.plan.timing_sims", context.timing_sims as f64);
    layers.set("kernelgen.kernels_generated", context.kernels as f64);
    layers.set(
        "kernelgen.memo_hit_ratio",
        ratio(
            context.memo_hits,
            context.memo_misses,
            (pc.memo_hits, pc.memo_misses),
        ),
    );
    layers.set("trace_overhead", trace_overhead);
    layers.set("max_rel_err", probe.max_rel_err.max(reference.max_rel_err));
    layers.check_against(&declared().per_layer)?;

    let jobs: Vec<&JobOutcome> = plain.all().chain(traced.all()).collect();
    let attempted = jobs.len() as u64 + probe.checks + reference.checked;
    let failed =
        jobs.iter().filter(|j| !j.ok).count() as u64 + mismatched + probe.failed + reference.failed;
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics: layers,
        digest: workload_digest(&traced.seeded[..fixed_len]),
        samples: traced.seeded.len(),
        spans: rec.spans().to_vec(),
    })
}

/// Host description recorded beside every committed number.
fn run_metadata() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"simd_level\": {}}}",
        dspsim::minijson::quote(&cpu),
        dspsim::minijson::quote(kernelgen::simd_level())
    )
}

/// The full report of one run as a JSON document (what `--report`
/// writes and `perf/baseline.json` collects).
fn report_json(args: &Args, name: &str, out: &RunOutput) -> String {
    let defs = defs_for(args);
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"workload\": {}, \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, ",
        dspsim::minijson::quote(name),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = write!(
        s,
        "\"attempted\": {}, \"failed\": {}, \"digest\": \"{:016x}\", \"latency_samples\": {}, ",
        out.attempted, out.failed, out.digest, out.samples
    );
    let _ = write!(
        s,
        "\"highest_supported_percentile\": {:?}, \"meta\": {}, \"metrics\": {}",
        highest_supported_percentile(out.samples).unwrap_or(0.0),
        run_metadata(),
        out.metrics.to_json(defs)
    );
    if !out.spans.is_empty() {
        // The span layer table: count, busy = Σ self time, p50 self time.
        s.push_str(", \"layer_table\": {");
        for (i, (layer, row)) in spans::layer_table(&out.spans).iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {{\"count\": {}, \"busy_s\": {:?}, \"p50_ms\": {:?}}}",
                if i == 0 { "" } else { ", " },
                dspsim::minijson::quote(layer),
                row.count,
                row.busy_s,
                row.p50_s * 1e3
            );
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// The digest `perf/baseline.json` recorded for this run, if it has one.
fn baseline_digest(args: &Args, name: &str) -> Option<String> {
    let text = std::fs::read_to_string("perf/baseline.json").ok()?;
    let doc = dspsim::minijson::Parser::new(&text).parse().ok()?;
    let is_this_run = |run: &dspsim::minijson::Value| -> Option<bool> {
        Some(
            run.get("workload")?.as_str("workload").ok()? == name
                && run.get("seed")?.as_u64("seed").ok()? == args.seed
                && run.get("trace")?.as_u64("trace").ok()? == u64::from(args.trace)
                && run.get("seconds")?.as_f64("seconds").ok()? == args.seconds,
        )
    };
    let runs = doc.get("runs")?.as_arr("runs").ok()?;
    let run = runs.iter().find(|r| is_this_run(r) == Some(true))?;
    Some(run.get("digest")?.as_str("digest").ok()?.to_string())
}

/// The metric table a run with these arguments reports.
fn defs_for(args: &Args) -> &'static [MetricDef] {
    if args.trace {
        &declared().per_layer
    } else {
        &declared().end_to_end
    }
}

fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let out = if args.trace {
        run_traced(name, args.seed, args.seconds, args.trace_out.as_ref())?
    } else {
        run_end_to_end(name, args.seed, args.seconds)?
    };
    let defs = defs_for(args);
    eprintln!(
        "perf: {name} seed {} — {} jobs and checks, {} failed, digest {:016x}, {} latency samples (highest supported percentile {})",
        args.seed,
        out.attempted,
        out.failed,
        out.digest,
        out.samples,
        highest_supported_percentile(out.samples)
            .map_or("none".to_string(), |p| format!("p{:.1}", p * 100.0)),
    );
    if let Some(recorded) = baseline_digest(args, name) {
        // Informational: a planner change legitimately moves output bits.
        let same = recorded == format!("{:016x}", out.digest);
        eprintln!(
            "perf: output digest {} perf/baseline.json",
            if same { "matches" } else { "DIFFERS from" }
        );
    }
    if !out.spans.is_empty() {
        eprint!("{}", spans::render_layer_table(&out.spans));
    }
    for d in defs {
        eprintln!(
            "  {:<46} {:>18} {}",
            d.name,
            show(out.metrics.get(&d.name).unwrap_or(f64::NAN)),
            d.unit
        );
    }
    if let Some(path) = &args.report {
        std::fs::write(path, report_json(args, name, &out))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics, defs)
    );
    Ok(out.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.check_repeat {
        repeat::check_repeat(args.seed, args.seconds)
    } else if let Some(path) = &args.write_baseline {
        repeat::write_baseline(path, args.seed, args.seconds)
    } else {
        match &args.workload {
            Some(name) if declared().workloads.contains(name) => run_one(&args, name),
            Some(name) => Err(format!("unknown workload {name:?}")),
            None => Err("--workload <name> is required (or --check-repeat)".into()),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload steady_functional --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("steady_functional"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert_eq!(
            parse_args(&[]).unwrap().seconds,
            declared().run_seconds as f64
        );
    }

    #[test]
    fn host_figures_are_read_off_the_quiet_job_of_each_kind() {
        let job = |latency_s| JobOutcome {
            latency_s,
            ok: true,
            digest: 0,
            flops: 0,
            sim_s: 0.0,
            tgemm_sim_s: 0.0,
        };
        // Five units of the same four kinds in rotating order; three of
        // the units disturbed.
        let (mut seeded, mut kinds) = (Vec::new(), Vec::new());
        for (u, slowdown) in [1.0, 10.0, 1.0, 1.5, 3.0].iter().enumerate() {
            for pos in 0..4 {
                let kind = (pos + u) % 4;
                kinds.push(kind);
                seeded.push(job((kind + 1) as f64 * slowdown));
            }
        }
        let h = host_stats(&seeded, &kinds, 4);
        // Quiet jobs cost 1, 2, 3 and 4 s: 4 jobs in 10 s, the median
        // between the middle kinds, p90 nine tenths of the way up.
        assert_eq!(h.jobs_per_s, 0.4);
        assert_eq!(h.p50_s, 2.5);
        assert!((h.p90_s - 3.7).abs() < 1e-12);
    }

    #[test]
    fn every_declared_workload_builds_and_reports_its_name() {
        assert!(workloads::build("no_such_workload", 1).is_none());
        // The two cheap set-ups (no warm-up runs) build in a test.
        for name in ["cold_plan_timing", "conformance_sweep"] {
            let w = workloads::build(name, 3).expect(name);
            assert!(w.fixed_len() >= 52 && w.fixed_len().is_multiple_of(w.unit_len()));
            // Every unit holds every kind exactly once.
            for unit in 0..3 {
                let mut kinds: Vec<usize> = (0..w.unit_len())
                    .map(|pos| w.kind(unit * w.unit_len() + pos))
                    .collect();
                kinds.sort_unstable();
                assert_eq!(kinds, (0..w.unit_len()).collect::<Vec<_>>(), "{name}");
            }
        }
    }

    #[test]
    fn a_short_conformance_stream_is_deterministic_and_traced_equals_untraced() {
        let mut w = workloads::build("conformance_sweep", 5).unwrap();
        let pass = w.unit_len();
        let plain = run_stream(w.as_mut(), 0.0, pass, false, &mut Recorder::new(false));
        let mut rec = Recorder::new(true);
        let traced = run_stream(w.as_mut(), 0.0, pass, false, &mut rec);
        assert_eq!(plain.seeded.len(), pass);
        assert!(plain.all().all(|j| j.ok));
        assert_eq!(
            workload_digest(&plain.seeded),
            workload_digest(&traced.seeded)
        );
        // One root span per job, and self times add up to the traced wall.
        let roots = rec.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, pass);
        let own: u64 = spans::self_times_ns(rec.spans()).iter().sum();
        let wall = spans::root_wall_s(rec.spans());
        assert!((own as f64 * 1e-9 - wall).abs() <= 0.05 * wall);
    }
}
