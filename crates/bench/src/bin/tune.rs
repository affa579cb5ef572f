use bench::cli::{Arg, Cli, Direction};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cli = Cli::parse(
        "tune",
        &[
            ("--out", Arg::Text("FILE")),
            ("--catalog", Arg::Text("FILE")),
            ("--assert-no-regression", Arg::Switch),
            ("--assert-warm-zero-sims", Arg::Switch),
        ],
        "",
    );
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
