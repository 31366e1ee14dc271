//! The one argument parser of the sweep binaries, `fig_live` and the
//! calibration helpers (`rtlock-inspect`, which takes subcommands, keeps
//! its own).
//!
//! A binary names the flags it takes in a [`Command`];
//! [`Command::args`] parses the process arguments once, before anything
//! runs. Three kinds of bad input — an unknown flag, a flag this binary
//! does not take, and a missing or malformed value — print one `error:`
//! line plus the usage to stderr and exit with status 2, without running
//! or writing anything; the sweep binaries end a malformed
//! `RTLOCK_BENCH_WORKERS` the same way ([`Command::exit`]). (Exit 1
//! stays the oracle's: a `--check` run that finds a violation.)
//! [`crate::experiment`] says what each flag does.

use std::path::PathBuf;

/// The flags one binary takes, besides `--check`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Command {
    /// The binary's name: the usage line's and the default artifact
    /// paths' stem.
    pub name: &'static str,
    /// Takes `--smoke`.
    pub smoke: bool,
    /// Takes `--compare`.
    pub compare: bool,
    /// Takes `--trace`, `--profile`, `--timeseries`, `--record` and
    /// `--window`.
    pub artifacts: bool,
    /// Takes up to `.1` numeric positionals, shown as `.0` in the usage.
    pub numbers: Option<(&'static str, usize)>,
}

/// One parsed invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// `--check`.
    pub check: bool,
    /// `--smoke`.
    pub smoke: bool,
    /// `--compare`.
    pub compare: bool,
    /// `--trace` destination.
    pub trace: Option<PathBuf>,
    /// `--profile` destination.
    pub profile: Option<PathBuf>,
    /// `--timeseries` destination.
    pub timeseries: Option<PathBuf>,
    /// `--record` destination.
    pub record: Option<PathBuf>,
    /// `--window` width in ticks (positive).
    pub window: Option<u64>,
    /// Numeric positionals, in order.
    pub numbers: Vec<f64>,
}

impl Command {
    /// The usage text printed under every diagnostic.
    fn usage(&self) -> String {
        let mut usage = format!("usage: {} [--check]", self.name);
        if self.smoke {
            usage.push_str(" [--smoke]");
        }
        if self.compare {
            usage.push_str(" [--compare]");
        }
        if self.artifacts {
            usage.push_str(
                " [--trace <path>] [--profile[=<path>]]\n       \
                 [--timeseries[=<path>]] [--record[=<path>]] [--window=<ticks>]",
            );
        }
        if let Some((numbers, _)) = self.numbers {
            usage.push(' ');
            usage.push_str(numbers);
        }
        usage
    }

    /// Parses the process arguments; on bad input prints the diagnostic
    /// and the usage to stderr and exits with status 2.
    pub fn args(&self) -> Args {
        self.parse(std::env::args().skip(1))
            .unwrap_or_else(|e| self.exit(&e))
    }

    /// Prints `error` and the usage to stderr and exits with status 2:
    /// the end of every bad invocation, environment included.
    pub fn exit(&self, error: &str) -> ! {
        eprintln!("error: {error}\n\n{}", self.usage());
        std::process::exit(2)
    }

    /// Parses `args` (the arguments after the program name).
    ///
    /// # Errors
    ///
    /// Returns the diagnostic for an unknown flag, a flag this binary
    /// does not take, or a missing or malformed value.
    fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                let Some((_, max)) = self.numbers else {
                    return Err(format!("unexpected argument {arg:?}"));
                };
                let n = arg
                    .parse()
                    .map_err(|_| format!("expected a number, got {arg:?}"))?;
                if parsed.numbers.len() == max {
                    return Err(format!("at most {max} numbers, got {arg:?} too"));
                }
                parsed.numbers.push(n);
                continue;
            }
            let (flag, value) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value)),
                None => (arg.as_str(), None),
            };
            let takes = match flag {
                "--check" => true,
                "--smoke" => self.smoke,
                "--compare" => self.compare,
                "--trace" | "--profile" | "--timeseries" | "--record" | "--window" => {
                    self.artifacts
                }
                _ => return Err(format!("unknown flag {arg:?}")),
            };
            if !takes {
                return Err(format!("{} does not take {flag}", self.name));
            }
            let path = |value: Option<&str>, default: &str| match value {
                Some("") => Err(format!("{flag}= needs a path")),
                Some(path) => Ok(Some(PathBuf::from(path))),
                None => Ok(Some(format!("results/{}.{default}", self.name).into())),
            };
            match flag {
                "--check" | "--smoke" | "--compare" if value.is_some() => {
                    return Err(format!("{flag} takes no value, got {arg:?}"));
                }
                "--check" => parsed.check = true,
                "--smoke" => parsed.smoke = true,
                "--compare" => parsed.compare = true,
                "--trace" => {
                    let path = match value {
                        Some(path) => path.to_string(),
                        None => args
                            .next_if(|next| !next.starts_with("--"))
                            .unwrap_or_default(),
                    };
                    if path.is_empty() {
                        return Err("--trace needs a path".into());
                    }
                    parsed.trace = Some(path.into());
                }
                "--profile" => parsed.profile = path(value, "profile.json")?,
                "--timeseries" => parsed.timeseries = path(value, "timeseries.jsonl")?,
                "--record" => parsed.record = path(value, "trace.jsonl")?,
                _ => {
                    let ticks = value.and_then(|v| v.parse().ok()).filter(|&t| t > 0);
                    let Some(ticks) = ticks else {
                        return Err(format!("--window needs a positive tick count, got {arg:?}"));
                    };
                    parsed.window = Some(ticks);
                }
            }
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE: Command = Command {
        name: "fig2",
        smoke: false,
        compare: false,
        artifacts: true,
        numbers: None,
    };

    fn parse(command: &Command, args: &[&str]) -> Result<Args, String> {
        command.parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn every_spelling_parses() {
        let args = parse(
            &FIGURE,
            &[
                "--check",
                "--trace",
                "t.json",
                "--profile",
                "--timeseries=w.csv",
                "--record",
                "--window=500",
            ],
        )
        .unwrap();
        assert!(args.check);
        assert_eq!(args.trace, Some("t.json".into()));
        assert_eq!(args.profile, Some("results/fig2.profile.json".into()));
        assert_eq!(args.timeseries, Some("w.csv".into()));
        assert_eq!(args.record, Some("results/fig2.trace.jsonl".into()));
        assert_eq!(args.window, Some(500));
        let eq = parse(&FIGURE, &["--trace=t.json", "--record=r.jsonl"]).unwrap();
        assert_eq!(eq.trace, Some("t.json".into()));
        assert_eq!(eq.record, Some("r.jsonl".into()));
        assert_eq!(parse(&FIGURE, &[]).unwrap(), Args::default());
    }

    #[test]
    fn bad_input_is_an_error() {
        for bad in [
            &["--chek"][..],
            &["--smoke"],
            &["--compare"],
            &["--trace"],
            &["--trace", "--check"],
            &["--trace="],
            &["--profile="],
            &["--window=0"],
            &["--window=abc"],
            &["--window"],
            &["--check=yes"],
            &["stray"],
        ] {
            assert!(parse(&FIGURE, bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn numbers_parse_up_to_their_limit() {
        let calibrate = Command {
            name: "calibrate",
            numbers: Some(("[<a> <b>]", 2)),
            ..Command::default()
        };
        let args = parse(&calibrate, &["--check", "1000", "0.5"]).unwrap();
        assert_eq!(args.numbers, vec![1000.0, 0.5]);
        assert!(args.check);
        assert!(parse(&calibrate, &["abc"]).is_err());
        assert!(parse(&calibrate, &["1", "2", "3"]).is_err());
        assert!(parse(&calibrate, &["--trace", "x"]).is_err());
    }
}
