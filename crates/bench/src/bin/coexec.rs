use bench::cli::{Arg, Cli, Direction};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cli = Cli::parse(
        "coexec",
        &[
            ("--out", Arg::Text("FILE")),
            ("--assert-coexec-no-regression", Arg::Switch),
        ],
        "",
    );

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
