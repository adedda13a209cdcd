//! The command-line reader the experiment binaries share.
//!
//! Every refusal is a usage error: one `<bin>: usage error: …` line on
//! stderr and exit status 2. The binaries read their whole command line
//! before doing any work, so a refused invocation prints nothing to
//! stdout.

use std::fmt::Display;
use std::str::FromStr;

use kset_sim::MetricsConfig;

use crate::engine;

/// Reports a bad command line of `bin` and exits 2.
pub fn usage_error(bin: &str, message: impl Display) -> ! {
    eprintln!("{bin}: usage error: {message}");
    std::process::exit(2);
}

/// One binary's arguments, read front to back (the program name
/// skipped).
#[derive(Debug)]
pub struct Args {
    bin: &'static str,
    rest: std::env::Args,
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}

impl Args {
    /// The arguments of the running binary, named `bin` in errors.
    pub fn new(bin: &'static str) -> Self {
        let mut rest = std::env::args();
        rest.next();
        Args { bin, rest }
    }

    /// Reports a usage error and exits 2.
    pub fn error(&self, message: impl Display) -> ! {
        usage_error(self.bin, message)
    }

    /// Refuses `arg` as an unknown argument.
    pub fn unknown(&self, arg: &str) -> ! {
        self.error(format_args!("unknown argument {arg:?}"))
    }

    /// Refuses any argument left: for a binary that takes none, or none
    /// past the ones already read.
    pub fn finish(mut self) {
        if let Some(extra) = self.next() {
            self.error(format_args!("unexpected argument {extra:?}"));
        }
    }

    /// The value after `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        self.next()
            .unwrap_or_else(|| self.error(format_args!("{flag} needs a value")))
    }

    /// The value after `flag`, parsed as a number.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> T {
        let raw = self.value(flag);
        raw.parse()
            .unwrap_or_else(|_| self.error(format_args!("{flag} wants a number, got {raw:?}")))
    }

    /// The value after `--threads`: a worker count, or `0`/`auto` for the
    /// available parallelism.
    pub fn threads(&mut self) -> usize {
        let raw = self.value("--threads");
        engine::parse_threads(&raw).unwrap_or_else(|| {
            self.error(format_args!(
                "--threads wants a count, 0 or 'auto', got {raw:?}"
            ))
        })
    }
}

/// The command line of the two sampled sweeps, `empirical_atlas` and
/// `boundary_scan`: `[n] [seeds] [--json PATH] [--threads N]`.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// System size, at least 3.
    pub n: usize,
    /// Seeds (runs) per cell.
    pub seeds: u64,
    /// Where to write one `RunRecord` JSON line per run.
    pub json: Option<String>,
    /// Worker threads.
    pub threads: usize,
}

impl SweepArgs {
    /// Reads the command line of `bin`, with defaults `n` and `seeds`.
    pub fn parse(bin: &'static str, n: usize, seeds: u64) -> Self {
        let mut args = Args::new(bin);
        let (mut n_arg, mut seeds_arg) = (None, None);
        let mut json = None;
        let mut threads = engine::available_threads();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => json = Some(args.value("--json")),
                "--threads" => threads = args.threads(),
                other => match other.parse() {
                    Ok(v) if n_arg.is_none() => n_arg = Some(v),
                    Ok(v) if seeds_arg.is_none() => seeds_arg = Some(v as u64),
                    _ => args.unknown(other),
                },
            }
        }
        let n = n_arg.unwrap_or(n);
        if n < 3 {
            args.error(format_args!("n must be at least 3, got {n}"));
        }
        SweepArgs {
            n,
            seeds: seeds_arg.unwrap_or(seeds),
            json,
            threads,
        }
    }

    /// Kernel metrics are collected when the runs are recorded.
    pub fn metrics(&self) -> MetricsConfig {
        if self.json.is_some() {
            MetricsConfig::enabled()
        } else {
            MetricsConfig::disabled()
        }
    }
}
