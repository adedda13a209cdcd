//! The command-line reader the workspace's binaries share.
//!
//! Every refusal is a usage error: one `<bin>: usage error: …` line on
//! stderr and exit status 2. The binaries read their whole command line
//! before doing any work, so a refused invocation prints nothing to
//! stdout.

use std::fmt::Display;
use std::str::FromStr;

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

    /// The value after `flag`, read by `parse`, which returns `None` for
    /// a value that is not `wants`.
    pub fn parsed<T>(
        &mut self,
        flag: &str,
        wants: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> T {
        let raw = self.value(flag);
        parse(&raw).unwrap_or_else(|| self.error(format_args!("{flag} wants {wants}, got {raw:?}")))
    }

    /// The value after `flag`, parsed as a number.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> T {
        self.parsed(flag, "a number", |raw| raw.parse().ok())
    }

    /// The value after `flag`, parsed as a number of at least 1.
    pub fn positive<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> T {
        let value = self.number(flag);
        if value == T::default() {
            self.error(format_args!("{flag} must be positive"));
        }
        value
    }

    /// The value after `--threads`: a worker count, or `0`/`auto` for the
    /// available parallelism.
    pub fn threads(&mut self) -> usize {
        self.parsed("--threads", "a count, 0 or 'auto'", parse_threads)
    }
}

/// The number of worker threads to use when the user does not say:
/// the machine's available parallelism (1 if it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `--threads` argument: a positive worker count, or `0`/`auto`
/// for [`available_threads`].
pub fn parse_threads(arg: &str) -> Option<usize> {
    if arg.trim().eq_ignore_ascii_case("auto") {
        return Some(available_threads());
    }
    match arg.trim().parse::<usize>() {
        Ok(0) => Some(available_threads()),
        Ok(v) => Some(v),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_auto_and_positive_counts() {
        assert_eq!(parse_threads("3"), Some(3));
        assert_eq!(parse_threads("auto"), Some(available_threads()));
        assert_eq!(parse_threads("0"), Some(available_threads()));
        assert_eq!(parse_threads("x"), None);
        assert!(available_threads() >= 1);
    }
}
