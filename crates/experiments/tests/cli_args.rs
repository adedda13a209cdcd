//! Argument errors in the sweep, inventory and figure binaries are usage
//! errors (exit 2, nothing on stdout), not panics (exit 101), and a binary
//! that takes no arguments refuses one. `model_check` stops printing
//! quietly when its reader goes.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn exhaustive_check_rejects_bad_positionals_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_exhaustive_check");
    for args in [&["six"][..], &["--thread"], &["-1"], &["4", "5"]] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("run exhaustive_check");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("exhaustive_check: usage error: unknown argument"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} did work before failing");
    }
}

/// Runs `bin` with `args` and asserts a usage error: exit 2, a
/// `<name>: usage error` line on stderr naming the flag, and no work
/// done before failing.
fn assert_usage_error(bin: &str, name: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("run binary");
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

#[test]
fn model_check_rejects_bad_flag_values_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_model_check");
    let numeric = [
        "--n",
        "--k",
        "--t",
        "--loss-budget",
        "--max-runs",
        "--max-states",
        "--progress",
        "--checkpoint-every",
        "--pause-after-checkpoints",
    ];
    for flag in numeric {
        assert_usage_error(bin, "model_check", &[flag, "x"]);
        assert_usage_error(bin, "model_check", &[flag, "-1"]);
        assert_usage_error(bin, "model_check", &[flag]);
    }
    for args in [
        &["--threads", "x"][..],
        &["--byz-menu", "0,x"],
        &["--inputs", "1,,y"],
        &["--protocol", "paxos"],
        &["--validity", "SV9"],
        &["--model", "mp_magic"],
        &["--fork-mode", "sometimes"],
        // A progress line every 0 runs would never print.
        &["--progress", "0"],
        // Retired: the digest mode follows from the inputs, and `auto`
        // is the forking executor.
        &["--symmetry"],
        &["--no-symmetry"],
        &["--fork-mode", "fork"],
        &["--json"],
        &["--bench-json"],
        &["--counterexample"],
        &["--replay"],
        &["--campaign-dir"],
    ] {
        assert_usage_error(bin, "model_check", args);
    }
    // Retired: a campaign's store has the checker's fixed shard count
    // (the append-log store's `--campaign-shards`), and `--max-runs` is
    // the checker's one bound (`--depth`, `--preemptions`).
    for flag in ["--campaign-shards", "--depth", "--preemptions"] {
        for args in [&[flag, "4"][..], &[flag]] {
            assert_usage_error(bin, "model_check", args);
            let out = Command::new(bin)
                .args(args)
                .output()
                .expect("run model_check");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.starts_with(&format!(
                    "model_check: usage error: unknown argument \"{flag}\""
                )),
                "{stderr}"
            );
        }
    }
}

#[test]
fn model_check_stops_quietly_when_stdout_closes() {
    // `model_check --smoke | head -1`: the reader goes after one line,
    // while the certification still has lines to print.
    let mut child = Command::new(env!("CARGO_BIN_EXE_model_check"))
        .args(["--smoke", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run model_check");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read one line");
    assert!(first.starts_with("=== model_check"), "{first}");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for model_check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn reproduce_all_rejects_bad_flag_values_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_reproduce_all");
    for args in [
        &["--empirical-n", "x"][..],
        &["--empirical-n", "-3"],
        &["--empirical-n"],
        &["--seeds", "many"],
        &["--seeds"],
        &["--threads", "x"],
        &["--threads"],
        &["--json"],
        &["--seeds", "0"],
        &["--empirical-n", "2"],
    ] {
        assert_usage_error(bin, "reproduce_all", args);
    }
}

#[test]
fn sweep_binaries_reject_bad_arguments_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_boundary_scan");
    for args in [
        &["--threads", "abc"][..],
        &["--json"],
        &["2"],
        &["--seed"],
        &["6", "0"],
    ] {
        assert_usage_error(bin, "boundary_scan", args);
    }
    let bin = env!("CARGO_BIN_EXE_empirical_atlas");
    for args in [
        &["--threads", "abc"][..],
        &["--json"],
        &["2"],
        &["six"],
        &["8", "0"],
    ] {
        assert_usage_error(bin, "empirical_atlas", args);
    }
    let bin = env!("CARGO_BIN_EXE_exhaustive_check");
    for args in [&["--threads", "abc"][..], &["--threads"], &["2"], &["12"]] {
        assert_usage_error(bin, "exhaustive_check", args);
    }
    let bin = env!("CARGO_BIN_EXE_complexity");
    for args in [&["--json"][..], &["2"], &["--csv"]] {
        assert_usage_error(bin, "complexity", args);
    }
}

#[test]
fn binaries_without_arguments_refuse_one_with_exit_2() {
    for (name, bin) in [
        ("fig1_lattice", env!("CARGO_BIN_EXE_fig1_lattice")),
        ("fig3_construction", env!("CARGO_BIN_EXE_fig3_construction")),
        ("counterexamples", env!("CARGO_BIN_EXE_counterexamples")),
    ] {
        assert_usage_error(bin, name, &["extra"]);
        assert_usage_error(bin, name, &["--x"]);
    }
}

#[test]
fn open_problems_rejects_bad_n_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_open_problems");
    for args in [&["x"][..], &["2"], &["-1"]] {
        assert_usage_error(bin, "open_problems", args);
    }
    // A second positional is refused too, named in the message.
    let out = Command::new(bin)
        .args(["8", "9"])
        .output()
        .expect("run open_problems");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("open_problems: usage error: unexpected argument \"9\""),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "did work before failing");
}

/// The atlas binaries that share `figures::run_figure`.
const FIGURE_BINARIES: [(&str, &str); 4] = [
    ("fig2_mp_cr", env!("CARGO_BIN_EXE_fig2_mp_cr")),
    ("fig4_mp_byz", env!("CARGO_BIN_EXE_fig4_mp_byz")),
    ("fig5_sm_cr", env!("CARGO_BIN_EXE_fig5_sm_cr")),
    ("fig6_sm_byz", env!("CARGO_BIN_EXE_fig6_sm_byz")),
];

#[test]
fn figure_binaries_reject_bad_n_with_exit_2() {
    for (name, bin) in FIGURE_BINARIES {
        for args in [&["abc"][..], &["2"], &["--csv"]] {
            let out = Command::new(bin).args(args).output().expect("run figure");
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.starts_with("error: "), "{name} {args:?}: {stderr}");
            if args[0] != "2" {
                assert!(
                    stderr.contains(args[0]),
                    "{name} {args:?} must be named: {stderr}"
                );
            }
            assert!(
                out.stdout.is_empty(),
                "{name} {args:?} did work before failing"
            );
        }
    }
}

#[test]
fn figure_binaries_exit_1_when_the_csv_cannot_be_written() {
    // The atlas is computed and printed before the CSV is created, so a
    // missing directory is an I/O failure (exit 1), not a usage error.
    let missing = std::env::temp_dir()
        .join(format!("kset-no-such-dir-{}", std::process::id()))
        .join("x.csv");
    let missing = missing.to_str().expect("utf-8 temp path");
    for (name, bin) in FIGURE_BINARIES {
        let out = Command::new(bin)
            .args(["8", "--csv", missing])
            .output()
            .expect("run figure");
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: create {missing}: ")),
            "{name}: {stderr}"
        );
        assert!(!out.stdout.is_empty(), "{name} printed no atlas");
    }
}

/// Runs `bin` with `args` and asserts it refuses them with exit 2 and
/// prints nothing to stdout: no work done, no panic.
fn assert_refused(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} did work before failing: {out:?}"
    );
}

#[test]
fn model_check_refuses_invalid_cells_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_model_check");
    let cell = |n: &'static str, k: &'static str, t: &'static str| {
        [
            "--protocol",
            "floodmin",
            "--n",
            n,
            "--k",
            k,
            "--t",
            t,
            "--validity",
            "RV1",
        ]
    };
    let dir = std::env::temp_dir().join(format!("kset_cli_invalid_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let campaign = dir.join("campaign");
    for args in [
        cell("3", "0", "1"),
        cell("0", "1", "0"),
        cell("3", "3", "3"),
    ] {
        assert_refused(bin, &args);
        let mut with_campaign = args.to_vec();
        with_campaign.extend(["--campaign-dir", campaign.to_str().unwrap()]);
        assert_refused(bin, &with_campaign);
        assert!(!campaign.exists(), "{args:?} created a campaign");
    }
    // Scripts whose header names a cell `ProblemSpec` rejects, or a
    // crashed process outside `0..n`.
    let script = |n: &str, k: &str, crashed: &str| {
        format!(
            "# kset model_check counterexample v1\n# protocol: FloodMin\n# n: {n}\n# k: {k}\n\
             # t: 1\n# validity: RV1\n# crashed: {crashed}\n# choices: 0\n\
             # violation: agreement violated\n0\n"
        )
    };
    for (name, text) in [
        ("k0", script("3", "0", "1")),
        ("n0", script("0", "1", "")),
        ("crashed7", script("3", "1", "7")),
    ] {
        let path = dir.join(format!("{name}.schedule"));
        std::fs::write(&path, text).unwrap();
        assert_refused(bin, &["--replay", path.to_str().unwrap()]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn model_check_reports_a_bounded_cell_as_bounded_with_exit_3() {
    // A bound that cuts a holding cell short is not a certification: the
    // verdict line leads with BOUNDED, names the bound and the runs done,
    // and the exit status is neither success (0), failure (1) nor usage
    // (2). `--max-runs` is read at wave barriers, so each pattern runs
    // past it (4 seed runs under a budget of 0; 28,223 runs under 1,000).
    let bin = env!("CARGO_BIN_EXE_model_check");
    let cell = [
        "--protocol",
        "floodmin",
        "--k",
        "2",
        "--t",
        "1",
        "--validity",
        "RV1",
    ];
    for (n, max_runs, line) in [
        (
            "3",
            "0",
            "SC(k=2, t=1, RV1) for FloodMin at n=3: BOUNDED by --max-runs 0 (each pattern \
             stops at the first wave barrier past it) over 4 crash pattern(s): 4 runs, \
             worst agreement 1",
        ),
        (
            "4",
            "1000",
            "SC(k=2, t=1, RV1) for FloodMin at n=4: BOUNDED by --max-runs 1000 (each pattern \
             stops at the first wave barrier past it) over 5 crash pattern(s): 28223 runs, \
             worst agreement 2",
        ),
    ] {
        let out = Command::new(bin)
            .args(cell)
            .args(["--n", n, "--max-runs", max_runs, "--threads", "2"])
            .output()
            .expect("run model_check");
        assert_eq!(
            out.status.code(),
            Some(3),
            "n={n} --max-runs {max_runs}: {out:?}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.lines().next(), Some(line), "{stdout}");
        assert!(!stdout.contains("HOLDS"), "{stdout}");
    }
    // The same cell unbounded holds, and exits 0.
    let out = Command::new(bin)
        .args(cell)
        .args(["--n", "3", "--threads", "2"])
        .output()
        .expect("run model_check");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(": HOLDS over 4 crash pattern(s)"),
        "{stdout}"
    );
}
