//! Kernel-execution tier report: compiled SIMD lowering vs scalar
//! mirror on the paper's Table I–III micro-kernel regimes.
//!
//! Usage:
//! `cargo run --release -p bench --bin kernel_exec -- [options]`
//!
//! Options:
//! * `--out FILE` — write the `BENCH_kernel_exec.json` document
//! * `--iters N` — fixed batch size per measurement (default: adaptive)
//! * `--assert-speedup X` — exit nonzero unless the smallest
//!   compiled/fast speedup reaches `X` (CI gate).  Enforced only when
//!   the compiled tier actually lowered to SIMD; on scalar-fallback
//!   hosts the gate prints a warning and passes, because both tiers run
//!   the same code there.
//! * `--assert-invoke-overhead X` — exit nonzero unless every regime's
//!   `invoke_kernel` on a staged compiled-mode machine costs at most `X`
//!   times its bare compiled execution (CI gate).

fn main() {
    let mut out: Option<String> = None;
    let mut iters = 0usize;
    let mut assert_speedup: Option<f64> = None;
    let mut assert_invoke_overhead: Option<f64> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--out needs a path")),
                )
            }
            "--iters" => {
                iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--iters needs a number"))
            }
            "--assert-speedup" => {
                assert_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--assert-speedup needs a number")),
                )
            }
            "--assert-invoke-overhead" => {
                assert_invoke_overhead = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--assert-invoke-overhead needs a number")),
                )
            }
            other => die(&format!("unrecognised argument `{other}`")),
        }
    }

    let report = bench::kernel_exec::compute(iters);
    print!("{}", bench::kernel_exec::render(&report));

    if let Some(path) = &out {
        std::fs::write(path, bench::kernel_exec::render_json(&report))
            .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!("report written to {path}");
    }

    if let Some(min) = assert_speedup {
        let got = report.min_speedup();
        if report.simd_level != "avx2+fma" {
            println!(
                "speedup check SKIPPED: compiled tier fell back to `{}` on this host \
                 (measured {got:.1}x)",
                report.simd_level
            );
        } else if got < min {
            eprintln!("speedup check FAILED: min speedup {got:.1}x < required {min}x");
            std::process::exit(1);
        } else {
            println!("speedup check OK: min speedup {got:.1}x >= {min}x");
        }
    }

    if let Some(max) = assert_invoke_overhead {
        let got = report.max_invoke_overhead();
        if got > max {
            eprintln!("invoke overhead check FAILED: invoke/compiled {got:.2}x > allowed {max}x");
            std::process::exit(1);
        }
        println!("invoke overhead check OK: invoke/compiled {got:.2}x <= {max}x");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: kernel_exec [--out FILE] [--iters N] [--assert-speedup X] \
         [--assert-invoke-overhead X]"
    );
    std::process::exit(2);
}
