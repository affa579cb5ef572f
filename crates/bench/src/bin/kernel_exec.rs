use bench::cli::{Arg, Cli, Direction};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cli = Cli::parse(
        "kernel_exec",
        &[
            ("--out", Arg::Text("FILE")),
            ("--iters", Arg::Number("N")),
            ("--assert-invoke-overhead", Arg::Number("X")),
        ],
        "",
    );

    let report = bench::kernel_exec::compute(cli.num("--iters").unwrap_or(0));
    let doc = bench::kernel_exec::document(&report);
    print!("{}", doc.render());

    if let Some(max) = cli.num("--assert-invoke-overhead") {
        let got = report.max_invoke_overhead();
        cli.gate("invoke-overhead", got, max, Direction::AtMost);
    }
    cli.finish(Some(&doc))
}
