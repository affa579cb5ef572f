//! `--check-repeat` and `--write-baseline`: every workload, each run in a
//! process of its own (so `peak_rss_mib` stays per-workload).

use crate::metrics::{declared, is_simulated, Better, MetricDef};
use crate::stats::show;
use dspsim::minijson::{Parser, Value};
use std::path::Path;
use std::process::Command;

/// Run this executable once for one workload; returns its stdout.
fn run_child(workload: &str, seed: u64, seconds: f64, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(extra)
        .output() // waits for the child to end
        .map_err(|e| format!("spawn perf: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("{workload}: stdout not UTF-8: {e}"))
}

/// Parse the result line (last line of a run's stdout) into
/// `(name, value)` pairs.
pub fn parse_result_line(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    // minijson has no booleans; `correct` is the only one in the line.
    let line = line
        .replace("\"correct\": true", "\"correct\": 1")
        .replace("\"correct\": false", "\"correct\": 0");
    let doc: Value = Parser::new(&line).parse()?;
    doc.get("metrics")
        .ok_or("no metrics in result line")?
        .as_obj("metrics")?
        .iter()
        .map(|(name, v)| {
            let value = v.get("value").ok_or("metric without value")?;
            Ok((name.clone(), value.as_f64(name)?))
        })
        .collect()
}

/// Whether `second` is acceptable after `first`: exact metrics equal,
/// the rest not worse by more than the metric's bound.
pub fn agrees(def: &MetricDef, first: f64, second: f64) -> bool {
    if is_simulated(&def.name) {
        return first == second;
    }
    let worse = match def.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    };
    worse <= def.bound
}

/// Run every workload twice back to back on one seed and compare the
/// second set of end-to-end metrics with the first.
pub fn check_repeat(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut all_agree = true;
    println!(
        "{:<20} {:<22} {:>16} {:>16}  verdict",
        "workload", "metric", "first", "second"
    );
    for workload in &declared().workloads {
        let first = parse_result_line(&run_child(workload, seed, seconds, &["--trace", "0"])?)?;
        let second = parse_result_line(&run_child(workload, seed, seconds, &["--trace", "0"])?)?;
        for def in &declared().end_to_end {
            let get = |set: &[(String, f64)]| {
                set.iter()
                    .find(|(n, _)| *n == def.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("{workload}: no {} in result line", def.name))
            };
            let (a, b) = (get(&first)?, get(&second)?);
            let ok = agrees(def, a, b);
            all_agree &= ok;
            println!(
                "{workload:<20} {:<22} {:>16} {:>16}  {}",
                def.name,
                show(a),
                show(b),
                match (ok, is_simulated(&def.name)) {
                    (true, true) => "equal".to_string(),
                    (true, false) => format!("within {:.0} %", def.bound * 100.0),
                    (false, true) => "DIFFERS (must be equal)".to_string(),
                    (false, false) => format!("WORSE by more than {:.0} %", def.bound * 100.0),
                }
            );
        }
    }
    Ok(all_agree)
}

/// Write `perf/baseline.json`: the untraced and traced report of every
/// workload at one seed, with the host they were measured on.
pub fn write_baseline(path: &Path, seed: u64, seconds: f64) -> Result<bool, String> {
    let scratch = crate::scratch_path("report.json");
    let scratch_arg = scratch.to_string_lossy().into_owned();
    let mut runs = Vec::new();
    for workload in &declared().workloads {
        for trace in ["0", "1"] {
            run_child(
                workload,
                seed,
                seconds,
                &["--trace", trace, "--report", &scratch_arg],
            )?;
            let report = std::fs::read_to_string(&scratch)
                .map_err(|e| format!("{}: {e}", scratch.display()))?;
            Parser::new(&report).parse()?; // refuse to commit a malformed report
            runs.push(report);
        }
    }
    let _ = std::fs::remove_file(&scratch);
    let doc = format!(
        "{{\"schema\": \"ftimm-perf-baseline-v1\", \"runs\": [\n{}\n]}}\n",
        runs.join(",\n")
    );
    std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        declared()
            .end_to_end
            .iter()
            .find(|d| d.name == name)
            .unwrap()
    }

    #[test]
    fn result_lines_round_trip_through_the_parser() {
        let line = "noise\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"jobs_per_s\": {\"value\": 1e2, \"unit\": \"1/s\"}}}\n";
        assert_eq!(
            parse_result_line(line).unwrap(),
            vec![
                ("setup_s".to_string(), 0.25),
                ("jobs_per_s".to_string(), 100.0)
            ]
        );
        assert!(parse_result_line("").is_err());
        assert!(parse_result_line("{\"correct\": true}").is_err());
    }

    #[test]
    fn agreement_respects_direction_bound_and_exactness() {
        let p50 = def("job_p50_ms");
        assert!(agrees(p50, 10.0, 10.0 * (1.0 + 0.9 * p50.bound)));
        assert!(!agrees(p50, 10.0, 10.0 * (1.0 + 1.1 * p50.bound)));
        assert!(agrees(p50, 10.0, 5.0), "an improvement always agrees");
        let rate = def("jobs_per_s");
        assert!(agrees(rate, 100.0, 100.0 * (1.0 - 0.9 * rate.bound)));
        assert!(!agrees(rate, 100.0, 100.0 * (1.0 - 1.1 * rate.bound)));
        let sim = def("sim_gflops");
        assert!(agrees(sim, 1.5, 1.5));
        assert!(
            !agrees(sim, 1.5, 1.5000001),
            "simulated metrics compare exactly"
        );
    }
}
