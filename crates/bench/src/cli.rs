//! The command line the gated report binaries share: one flag table per
//! binary, one usage/`die` path, one gate verdict format and one exit
//! code decision.
//!
//! Exit codes: 0 on success, 1 when a gate failed, 2 on a usage or I/O
//! error.

use crate::report::{Document, Gate};
use std::process::ExitCode;

/// What follows a flag on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// Nothing: the flag is a switch.
    Switch,
    /// Free text, named for the usage line (`FILE`, `POLICY`, …).
    Text(&'static str),
    /// A number, checked when the command line is parsed.
    Number(&'static str),
}

/// Which side of its threshold a gated quantity must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Pass while `measured <= threshold`.
    AtMost,
    /// Pass while `measured >= threshold`.
    AtLeast,
}

/// A parsed command line plus the gate verdicts recorded so far.
#[derive(Debug)]
pub struct Cli {
    usage: String,
    values: Vec<(&'static str, String)>,
    positional: Vec<String>,
    gates: Vec<Gate>,
}

/// Print a gate quantity compactly whatever its magnitude.
fn human(v: f64) -> String {
    if v == 0.0 || (1e-2..1e4).contains(&v.abs()) {
        format!("{v:.2}")
    } else {
        format!("{v:.2e}")
    }
}

impl Cli {
    /// Parse the process arguments against `flags`; `positional` names
    /// the bare arguments for the usage line (empty: none are accepted).
    /// A usage error prints the usage line and exits 2.
    pub fn parse(bin: &str, flags: &[(&'static str, Arg)], positional: &str) -> Cli {
        Cli::try_parse(bin, flags, positional, std::env::args().skip(1)).unwrap_or_else(
            |(usage, msg)| {
                eprintln!("error: {msg}\n{usage}");
                std::process::exit(2)
            },
        )
    }

    /// [`Cli::parse`] over explicit arguments; `Err` is `(usage, message)`.
    pub fn try_parse(
        bin: &str,
        flags: &[(&'static str, Arg)],
        positional: &str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, (String, String)> {
        let mut usage = format!("usage: {bin}");
        for (name, arg) in flags {
            usage.push_str(&match arg {
                Arg::Switch => format!(" [{name}]"),
                Arg::Text(what) | Arg::Number(what) => format!(" [{name} {what}]"),
            });
        }
        if !positional.is_empty() {
            usage.push_str(&format!(" {positional}"));
        }
        let mut cli = Cli {
            usage,
            values: Vec::new(),
            positional: Vec::new(),
            gates: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let Some(&(name, arg)) = flags.iter().find(|(name, _)| *name == a) else {
                if positional.is_empty() || a.starts_with("--") {
                    return Err((cli.usage, format!("unrecognised argument `{a}`")));
                }
                cli.positional.push(a);
                continue;
            };
            let value = match arg {
                Arg::Switch => String::new(),
                Arg::Text(what) | Arg::Number(what) => match args.next() {
                    Some(v) => v,
                    None => return Err((cli.usage, format!("{name} needs a value ({what})"))),
                },
            };
            if matches!(arg, Arg::Number(_)) && value.parse::<f64>().is_err() {
                return Err((cli.usage, format!("{name}: `{value}` is not a number")));
            }
            cli.values.push((name, value));
        }
        Ok(cli)
    }

    /// Print `msg` and the usage line, exit 2.
    pub fn die(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\n{}", self.usage);
        std::process::exit(2)
    }

    /// The value of `flag` (empty for a switch), if it was given; the
    /// last occurrence wins.
    pub fn get(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.values.iter().rev().find(|(name, _)| *name == flag)?;
        Some(value)
    }

    /// The value of an [`Arg::Number`] flag as a `T`, if it was given; one
    /// that is a number but no `T` (`--iters 2.5`) is a usage error.
    pub fn num<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let value = self.get(flag)?;
        let parsed = value.parse();
        Some(parsed.unwrap_or_else(|_| self.die(&format!("{flag}: `{value}` is out of range"))))
    }

    /// The bare (non-flag) arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Write an artifact and say so; an I/O error exits 2.
    pub fn write(&self, path: &str, contents: &str, what: &str) {
        std::fs::write(path, contents)
            .unwrap_or_else(|e| self.die(&format!("writing {path}: {e}")));
        println!("{what} written to {path}");
    }

    /// Hold `measured` to `threshold`: print the verdict and record it for
    /// the report's `gates` and the exit code.
    pub fn gate(&mut self, name: &'static str, measured: f64, threshold: f64, dir: Direction) {
        let (pass, ok, broken) = match dir {
            Direction::AtMost => (measured <= threshold, "<=", "> allowed"),
            Direction::AtLeast => (measured >= threshold, ">=", "< required"),
        };
        let (m, t) = (human(measured), human(threshold));
        if pass {
            println!("{name} check OK: {m} {ok} {t}");
        } else {
            eprintln!("{name} check FAILED: {m} {broken} {t}");
        }
        self.gates.push(Gate {
            name,
            measured,
            threshold,
            pass,
        });
    }

    /// Write `doc` (verdicts included) where `--out` says, then turn the
    /// verdicts into the exit code: 1 if any gate failed.
    pub fn finish(self, doc: Option<&Document>) -> ExitCode {
        if let (Some(doc), Some(path)) = (doc, self.get("--out")) {
            self.write(path, &doc.json(&self.gates), "report");
        }
        if self.gates.iter().all(|g| g.pass) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: [(&str, Arg); 3] = [
        ("--out", Arg::Text("FILE")),
        ("--assert-warm-speedup", Arg::Number("X")),
        ("--assert-clean", Arg::Switch),
    ];

    fn parse(positional: &str, args: &[&str]) -> Result<Cli, (String, String)> {
        Cli::try_parse(
            "demo",
            &FLAGS,
            positional,
            args.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn flag_table_yields_values_switches_and_positionals() {
        let cli = parse(
            "M N K",
            &[
                "8",
                "--out",
                "r.json",
                "--assert-clean",
                "16",
                "--assert-warm-speedup",
                "2.5",
                "32",
            ],
        )
        .unwrap();
        assert_eq!(cli.get("--out"), Some("r.json"));
        assert_eq!(cli.num("--assert-warm-speedup"), Some(2.5));
        assert_eq!(cli.get("--assert-clean"), Some(""));
        assert_eq!(cli.positional(), ["8", "16", "32"]);
        let cli = parse("", &[]).unwrap();
        assert!(cli.get("--assert-clean").is_none());
        assert!(cli.num::<f64>("--assert-warm-speedup").is_none());
        assert_eq!(
            cli.usage,
            "usage: demo [--out FILE] [--assert-warm-speedup X] [--assert-clean]"
        );
    }

    #[test]
    fn usage_errors_are_caught_at_parse_time() {
        for (positional, args, needle) in [
            (
                "",
                &["--frobnicate"][..],
                "unrecognised argument `--frobnicate`",
            ),
            ("", &["8"][..], "unrecognised argument `8`"),
            ("M N K", &["--frobnicate"][..], "unrecognised argument"),
            ("", &["--out"][..], "--out needs a value (FILE)"),
            (
                "",
                &["--assert-warm-speedup", "fast"][..],
                "`fast` is not a number",
            ),
        ] {
            let (usage, msg) = parse(positional, args).unwrap_err();
            assert!(msg.contains(needle), "{args:?}: got {msg:?}");
            assert!(usage.starts_with("usage: demo [--out FILE]"), "{usage}");
        }
    }

    #[test]
    fn gates_record_verdicts_and_decide_the_exit_code() {
        let mut cli = parse("", &[]).unwrap();
        cli.gate("speedup", 41.5, 30.0, Direction::AtLeast);
        cli.gate("overhead", 2.0, 2.0, Direction::AtMost);
        assert!(cli.gates.iter().all(|g| g.pass));
        assert_eq!(cli.gates[0].name, "speedup");
        assert_eq!(cli.finish(None), ExitCode::SUCCESS);

        let mut cli = parse("", &[]).unwrap();
        cli.gate("speedup", 29.9, 30.0, Direction::AtLeast);
        cli.gate("overhead", 1.0, 2.0, Direction::AtMost);
        // A NaN measurement is on neither side of any threshold.
        cli.gate("ratio", f64::NAN, 2.0, Direction::AtMost);
        let verdicts: Vec<bool> = cli.gates.iter().map(|g| g.pass).collect();
        assert_eq!(verdicts, [false, true, false]);
        assert_eq!(cli.finish(None), ExitCode::FAILURE);
    }

    #[test]
    fn gate_quantities_print_compactly_at_any_magnitude() {
        assert_eq!(human(0.0), "0.00");
        assert_eq!(human(1.234), "1.23");
        assert_eq!(human(-41.5), "-41.50");
        assert_eq!(human(-3.2e-6), "-3.20e-6");
        assert_eq!(human(123456.0), "1.23e5");
    }
}
