use bench::cli::{Arg, Cli, Direction};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cli = Cli::parse(
        "planner",
        &[
            ("--out", Arg::Text("FILE")),
            ("--assert-warm-speedup", Arg::Number("X")),
        ],
        "",
    );

    let report = bench::planner::compute();
    let doc = bench::planner::document(&report);
    print!("{}", doc.render());

    if let Some(min) = cli.num("--assert-warm-speedup") {
        cli.gate("warm-plan", report.min_speedup(), min, Direction::AtLeast);
    }
    cli.finish(Some(&doc))
}
