//! Bad configuration in the serve binaries is a usage error (exit 2)
//! caught while parsing, not a panic in `Server::start` (exit 101) or in
//! a worker thread.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args`, killing it if it has not exited within 20 s
/// (a `kset-serve` that accepted its flags would listen forever).
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run binary");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll binary").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill binary");
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

/// Runs `bin` with `args` and asserts a usage error: exit 2, a
/// `<name>: usage error` line on stderr naming the flag, and no work
/// done before failing.
fn assert_usage_error(bin: &str, name: &str, args: &[&str]) {
    let out = run(bin, args);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(&format!("{name}: usage error: ")),
        "{name} {args:?}: {stderr}"
    );
    assert!(
        stderr.contains(args[0]),
        "{name} {args:?} must name the flag: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{name} {args:?} did work before failing"
    );
}

/// The bad values both binaries share.
const BAD: &[&[&str]] = &[
    &["--threads", "0"],
    &["--batch", "0"],
    &["--max-live", "0"],
    &["--n", "0"],
    &["--t", "3"],
    &["--t", "5", "--n", "4"],
    &["--n", "1"],
    &["--threads", "x"],
    &["--seed"],
    &["--bogus"],
];

#[test]
fn serve_bench_rejects_bad_config_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_serve_bench");
    let out = std::env::temp_dir().join(format!("serve-bench-cli-{}.json", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let extra: &[&[&str]] = &[
        &["--queue-depth", "0"],
        &["--rate", "0"],
        &["--rate", "fast"],
        &["--threads", "1,0"],
        &["--threads", ""],
    ];
    for args in BAD.iter().chain(extra) {
        let mut args = args.to_vec();
        // Valid trailing flags: the run would be short and would write
        // `out` if the bad value were accepted.
        args.extend(["--instances", "10", "--out", out]);
        assert_usage_error(bin, "serve_bench", &args);
        assert!(
            !std::path::Path::new(out).exists(),
            "{args:?} wrote a report"
        );
    }
}

#[test]
fn kset_serve_rejects_bad_config_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_kset-serve");
    for args in BAD {
        // Port 0 binds any free port, so a server that accepted the flags
        // would start listening (and be killed by `run`).
        let mut args = args.to_vec();
        args.extend(["--addr", "127.0.0.1:0"]);
        assert_usage_error(bin, "kset-serve", &args);
    }
}
