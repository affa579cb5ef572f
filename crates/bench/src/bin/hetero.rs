use bench::cli::{Arg, Cli, Direction};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cli = Cli::parse(
        "hetero",
        &[
            ("--out", Arg::Text("FILE")),
            ("--assert-cpu-model", Arg::Number("X")),
        ],
        "",
    );

    let report = bench::hetero::compute();
    let doc = bench::hetero::document(&report);
    print!("{}", doc.render());

    // Lane time may drift at most X (fraction) from the cpublas prediction.
    if let Some(max) = cli.num("--assert-cpu-model") {
        cli.gate(
            "cpu-model",
            report.max_model_error(),
            max,
            Direction::AtMost,
        );
    }
    cli.finish(Some(&doc))
}
