//! Shared driver for the four atlas figure binaries.

use std::io::Write as _;

use kset_regions::{render, Atlas, Model};

/// Options of a figure binary, parsed from the command line.
#[derive(Clone, Debug)]
pub struct FigureOptions {
    /// System size (the paper's figures use 64).
    pub n: usize,
    /// Optional path for a CSV dump of the atlas.
    pub csv: Option<String>,
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions { n: 64, csv: None }
    }
}

impl FigureOptions {
    /// Parses `[n] [--csv FILE]` from an argument iterator (without the
    /// program name).
    ///
    /// # Errors
    ///
    /// Returns a usage string on malformed arguments.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = FigureOptions::default();
        let mut args = args.peekable();
        if let Some(first) = args.peek() {
            if !first.starts_with("--") {
                let n: usize = first
                    .parse()
                    .map_err(|_| format!("expected a number for n, got {first:?}"))?;
                if n < 3 {
                    return Err("n must be at least 3".into());
                }
                opts.n = n;
                args.next();
            }
        }
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--csv" => {
                    opts.csv = Some(args.next().ok_or("--csv requires a file path")?);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }
}

/// Why a figure binary failed.
#[derive(Debug)]
pub enum FigureError {
    /// Malformed arguments, refused before any work or output.
    Usage(String),
    /// Creating or writing the CSV failed, after the atlas was printed.
    Io(String),
}

impl FigureError {
    /// The process exit code: 2 for a usage error, 1 for an I/O failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            FigureError::Usage(_) => 2,
            FigureError::Io(_) => 1,
        }
    }
}

impl std::fmt::Display for FigureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FigureError::Usage(msg) | FigureError::Io(msg) => f.write_str(msg),
        }
    }
}

/// Computes and prints the atlas of `model`; writes the CSV if requested.
///
/// # Errors
///
/// [`FigureError::Usage`] for bad arguments (nothing printed),
/// [`FigureError::Io`] when the CSV cannot be created or written.
pub fn run_figure(model: Model, args: impl Iterator<Item = String>) -> Result<(), FigureError> {
    let opts = FigureOptions::parse(args).map_err(FigureError::Usage)?;
    let atlas = Atlas::compute(model, opts.n);
    print!("{}", render::atlas_ascii(&atlas));
    if let Some(path) = opts.csv {
        let csv = render::atlas_csv(&atlas);
        let io = |what: &str, e: std::io::Error| FigureError::Io(format!("{what} {path}: {e}"));
        let mut f = std::fs::File::create(&path).map_err(|e| io("create", e))?;
        f.write_all(csv.as_bytes()).map_err(|e| io("write", e))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// The whole body of the `fig2_mp_cr` / `fig4_mp_byz` / `fig5_sm_cr` /
/// `fig6_sm_byz` binaries: [`run_figure`] on the process arguments,
/// exiting with [`FigureError::exit_code`] on failure.
pub fn figure_main(model: Model) {
    if let Err(err) = run_figure(model, std::env::args().skip(1)) {
        eprintln!("error: {err}");
        std::process::exit(err.exit_code());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigureOptions, String> {
        FigureOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_is_paper_n() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.n, 64);
        assert!(opts.csv.is_none());
    }

    #[test]
    fn parses_n_and_csv() {
        let opts = parse(&["16", "--csv", "/tmp/out.csv"]).unwrap();
        assert_eq!(opts.n, 16);
        assert_eq!(opts.csv.as_deref(), Some("/tmp/out.csv"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&["abc"]).is_err());
        assert!(parse(&["2"]).is_err());
        assert!(parse(&["--csv"]).is_err());
        assert!(parse(&["--what"]).is_err());
    }
}
