use bench::cli::{Arg, Cli, Direction};
use ftimm::SpillPolicy;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cli = Cli::parse(
        "cluster",
        &[
            ("--out", Arg::Text("FILE")),
            ("--trace", Arg::Text("FILE")),
            ("--spill", Arg::Text("POLICY")),
            ("--assert-failover-overhead", Arg::Number("X")),
            ("--assert-min-efficiency", Arg::Number("X")),
        ],
        "",
    );
    let spill = cli.get("--spill").map_or(SpillPolicy::Never, |v| {
        bench::cluster::parse_spill(v).unwrap_or_else(|| {
            cli.die("--spill takes never | last-resort | deadline-aware | coexec")
        })
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
