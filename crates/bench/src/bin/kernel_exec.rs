use bench::cli::{Arg, Cli, Direction};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cli = Cli::parse(
        "kernel_exec",
        &[
            ("--out", Arg::Text("FILE")),
            ("--iters", Arg::Number("N")),
            ("--assert-speedup", Arg::Number("X")),
            ("--assert-invoke-overhead", Arg::Number("X")),
        ],
        "",
    );

    let report = bench::kernel_exec::compute(cli.num("--iters").unwrap_or(0));
    let doc = bench::kernel_exec::document(&report);
    print!("{}", doc.render());

    if let Some(min) = cli.num("--assert-speedup") {
        let got = report.min_speedup();
        if kernelgen::simd_active() {
            cli.gate("speedup", got, min, Direction::AtLeast);
        } else {
            // Both tiers run the same scalar code here: nothing to gate.
            println!(
                "speedup check SKIPPED: compiled tier fell back to `{}` on this host \
                 (measured {got:.1}x)",
                report.simd_level
            );
        }
    }
    if let Some(max) = cli.num("--assert-invoke-overhead") {
        let got = report.max_invoke_overhead();
        cli.gate("invoke-overhead", got, max, Direction::AtMost);
    }
    cli.finish(Some(&doc))
}
