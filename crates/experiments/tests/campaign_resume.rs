//! Kill/resume bit-identity of certification campaigns.
//!
//! The campaign contract (`CAMPAIGNS.md`): a campaign killed at *any*
//! checkpoint and resumed produces byte-identical verdicts, counters, and
//! counterexample scripts to an uninterrupted run — for every thread
//! count and checkpoint cadence. This suite pins that contract at n = 3
//! and n = 4 through the library API (deterministic aborts via the
//! `pause_after_checkpoints` hook) and through the `model_check` binary's
//! `--campaign-dir`/`--resume` flags; CI's `campaign-smoke` job adds a
//! genuine SIGKILL on top.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use kset_core::{json, ValidityCondition};
use kset_experiments::campaign::{
    manifest::{read_manifest, CampaignStatus},
    resume_campaign, run_campaign, CampaignOptions, CampaignOutcome,
};
use kset_experiments::checker::{
    check_cell, write_counterexample, BenchCell, CellVerdict, CheckerConfig,
};
use kset_experiments::exhaustive::QuorumProtocol;

mod common;
use common::tree_bytes;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kset_campaign_resume_{name}_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Drives a campaign to completion through repeated pause/resume cycles —
/// each cycle is a clean kill at a durable checkpoint — and returns the
/// final verdict plus the number of interruptions survived.
fn run_interrupted(cfg: &CheckerConfig, dir: &Path, opts: &CampaignOptions) -> (CellVerdict, u64) {
    let mut outcome = run_campaign(cfg, dir, opts).expect("campaign create");
    let mut interruptions = 0;
    loop {
        match outcome {
            CampaignOutcome::Finished(verdict) => return (*verdict, interruptions),
            CampaignOutcome::Paused { .. } => {
                interruptions += 1;
                assert!(interruptions < 20_000, "campaign does not converge");
                outcome = resume_campaign(cfg, dir, opts).expect("campaign resume");
            }
        }
    }
}

#[test]
fn n3_holds_cell_survives_interruption_at_every_checkpoint_cadence() {
    let mut reference_cfg =
        CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    reference_cfg.threads = 1;
    let reference = check_cell(&reference_cfg);
    assert!(reference.holds());

    // Interrupt at several cadences (0 = every wave boundary) and under
    // both serial and 2-thread drains: all runs must converge to the
    // reference verdict, counters included.
    for threads in [1, 2] {
        for checkpoint_every in [0, 400, 2_000] {
            let dir = tmp_dir(&format!("n3_holds_{threads}_{checkpoint_every}"));
            let mut cfg = reference_cfg.clone();
            cfg.threads = threads;
            let opts = CampaignOptions {
                checkpoint_every,
                pause_after_checkpoints: Some(1),
            };
            let (verdict, interruptions) = run_interrupted(&cfg, &dir, &opts);
            assert!(
                interruptions > 0,
                "threads={threads} every={checkpoint_every}: pause hook never fired"
            );
            assert_eq!(verdict, reference);
            let manifest = read_manifest(&dir).unwrap();
            assert_eq!(manifest.status, CampaignStatus::Holds);
            assert_eq!(manifest.runs, reference.runs);
            assert_eq!(manifest.resumes, interruptions);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn n3_violated_cell_reproduces_counterexample_bytes() {
    // k = 1 with t = 1 is unsolvable: the campaign must find, shrink, and
    // persist the same counterexample the in-memory checker finds. (The
    // violation lands inside the first wave here, so the campaign may
    // legitimately finish without ever reaching a pauseable boundary —
    // the assertion is bit-identity, not that pauses occur.)
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
    cfg.threads = 2;
    let reference = check_cell(&cfg);
    assert!(!reference.holds());

    let dir = tmp_dir("n3_violated");
    let opts = CampaignOptions {
        checkpoint_every: 0,
        pause_after_checkpoints: Some(1),
    };
    let (verdict, _) = run_interrupted(&cfg, &dir, &opts);
    assert_eq!(verdict, reference);

    // Byte-level: the emitted replay scripts are identical.
    let ref_path = dir.join("reference.schedule");
    let camp_path = dir.join("campaign.schedule");
    write_counterexample(&ref_path, &cfg, reference.counterexample.as_ref().unwrap()).unwrap();
    write_counterexample(&camp_path, &cfg, verdict.counterexample.as_ref().unwrap()).unwrap();
    assert_eq!(fs::read(&ref_path).unwrap(), fs::read(&camp_path).unwrap());

    let manifest = read_manifest(&dir).unwrap();
    assert_eq!(manifest.status, CampaignStatus::Violated);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn n4_cells_match_check_cell_after_interruptions() {
    // n = 4: the holds side bounded to a deterministic budget (bounded
    // verdicts are part of the contract too — max_runs is enforced at
    // wave boundaries), and the violated side to completion.
    let mut holds_cfg =
        CheckerConfig::new(QuorumProtocol::FloodMin, 4, 2, 1, ValidityCondition::RV1);
    holds_cfg.threads = 2;
    holds_cfg.max_runs = 6_000;
    let mut violated_cfg =
        CheckerConfig::new(QuorumProtocol::FloodMin, 4, 2, 2, ValidityCondition::RV1);
    violated_cfg.threads = 2;

    for (name, cfg, expect_pauses) in [
        ("n4_holds", &holds_cfg, true),
        // The violated cell finds its counterexample inside the first
        // wave of the first crash pattern, before any pauseable boundary
        // exists — zero interruptions is the correct outcome there.
        ("n4_violated", &violated_cfg, false),
    ] {
        let reference = check_cell(cfg);
        let dir = tmp_dir(name);
        let opts = CampaignOptions {
            checkpoint_every: 1_500,
            pause_after_checkpoints: Some(1),
        };
        let (verdict, interruptions) = run_interrupted(cfg, &dir, &opts);
        if expect_pauses {
            assert!(interruptions > 0, "{name}: pause hook never fired");
        }
        assert_eq!(verdict, reference, "{name}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn snapshots_at_one_checkpoint_are_byte_identical_at_one_and_two_threads() {
    // A checkpoint writes the wave-boundary state, store included, which
    // is a function of the task queue alone: the same bytes for every
    // worker count.
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 4, 2, 1, ValidityCondition::RV1);
    cfg.max_runs = 6_000;
    let mut with_store = 0;
    for pause in [1, 2, 3, 7] {
        let opts = CampaignOptions {
            checkpoint_every: 0,
            pause_after_checkpoints: Some(pause),
        };
        let snapshots: Vec<Vec<u8>> = [1, 2]
            .into_iter()
            .map(|threads| {
                cfg.threads = threads;
                let dir = tmp_dir(&format!("snapshot_bytes_{pause}_{threads}"));
                let outcome = run_campaign(&cfg, &dir, &opts).expect("campaign create");
                assert!(
                    matches!(outcome, CampaignOutcome::Paused { .. }),
                    "pause {pause}"
                );
                if read_manifest(&dir).unwrap().store_entries > 0 {
                    with_store += 1;
                }
                let bytes = fs::read(dir.join("snapshot.bin")).unwrap();
                let _ = fs::remove_dir_all(&dir);
                bytes
            })
            .collect();
        assert!(
            snapshots[0] == snapshots[1],
            "pause {pause}: snapshots differ"
        );
    }
    assert!(with_store >= 3, "{with_store} snapshot(s) held a store");
}

#[test]
fn model_check_binary_campaign_matches_direct_run() {
    // The CLI surface end to end: a campaign via --campaign-dir /
    // --pause-after-checkpoints / --resume must print the same verdict
    // line and emit byte-identical counterexample scripts as a direct
    // (campaign-less) invocation.
    let bin = env!("CARGO_BIN_EXE_model_check");
    let dir = tmp_dir("cli");
    fs::create_dir_all(&dir).unwrap();

    /// Runs the cell without a campaign and returns its verdict line.
    fn direct_verdict_line(bin: &str, cell: &[&str], ce: Option<&Path>) -> String {
        let mut cmd = Command::new(bin);
        cmd.args(cell).args(["--threads", "2"]);
        if let Some(ce) = ce {
            cmd.arg("--counterexample").arg(ce);
        }
        let out = cmd.output().expect("run model_check");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .find(|l| l.starts_with("SC("))
            .expect("verdict line")
            .to_string()
    }

    /// Creates a campaign pausing at the first checkpoint, then resumes
    /// (without restating the cell) until it finishes; returns the final
    /// stdout and the number of pause/resume rounds.
    fn drive_campaign(
        bin: &str,
        cell: &[&str],
        campaign: &Path,
        ce: Option<&Path>,
    ) -> (String, u64) {
        let mut cmd = Command::new(bin);
        cmd.args(cell)
            .arg("--campaign-dir")
            .arg(campaign)
            .args(["--checkpoint-every", "0", "--pause-after-checkpoints", "1", "--threads", "1"]);
        if let Some(ce) = ce {
            cmd.arg("--counterexample").arg(ce);
        }
        let create = cmd.output().expect("create campaign");
        assert!(create.status.success(), "{create:?}");
        let mut finished = String::from_utf8(create.stdout).unwrap();
        let mut rounds = 0;
        while finished.contains("campaign paused") {
            rounds += 1;
            assert!(rounds < 10_000, "campaign does not converge");
            let mut cmd = Command::new(bin);
            cmd.arg("--campaign-dir")
                .arg(campaign)
                .args(["--resume", "--threads", "2"]);
            if let Some(ce) = ce {
                cmd.arg("--counterexample").arg(ce);
            }
            let resume = cmd.output().expect("resume campaign");
            assert!(resume.status.success(), "{resume:?}");
            finished = String::from_utf8(resume.stdout).unwrap();
        }
        let line = finished
            .lines()
            .find(|l| l.starts_with("SC("))
            .expect("campaign verdict line")
            .to_string();
        (line, rounds)
    }

    // Holds cell: the campaign genuinely pauses and resumes (mixed thread
    // counts across the kill points) yet prints the same verdict line.
    let holds_cell = [
        "--protocol", "floodmin", "--n", "3", "--k", "2", "--t", "1", "--validity", "RV1",
    ];
    let holds_campaign = dir.join("holds-campaign");
    let holds_reference = direct_verdict_line(bin, &holds_cell, None);
    let (holds_line, rounds) = drive_campaign(bin, &holds_cell, &holds_campaign, None);
    assert!(rounds > 0, "the pause hook never fired on the holds cell");
    assert_eq!(holds_line, holds_reference);

    // Violated cell: same verdict line and byte-identical counterexample
    // script. (This cell violates inside the first wave, so the campaign
    // may finish without pausing — byte identity is the contract.)
    let violated_cell = [
        "--protocol", "floodmin", "--n", "3", "--k", "1", "--t", "1", "--validity", "RV1",
    ];
    let violated_campaign = dir.join("violated-campaign");
    let direct_ce = dir.join("direct.schedule");
    let campaign_ce = dir.join("campaign.schedule");
    let violated_reference = direct_verdict_line(bin, &violated_cell, Some(&direct_ce));
    let (violated_line, _) =
        drive_campaign(bin, &violated_cell, &violated_campaign, Some(&campaign_ce));
    assert_eq!(violated_line, violated_reference);
    assert_eq!(
        fs::read(&direct_ce).unwrap(),
        fs::read(&campaign_ce).unwrap(),
        "counterexample scripts differ"
    );

    // A finished campaign refuses --resume with a clear error.
    let again = Command::new(bin)
        .arg("--campaign-dir")
        .arg(&holds_campaign)
        .arg("--resume")
        .output()
        .expect("resume finished campaign");
    assert!(!again.status.success());
    let stderr = String::from_utf8(again.stderr).unwrap();
    assert!(stderr.contains("finished"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn model_check_binary_campaign_rows_carry_the_in_memory_gauges() {
    // An uninterrupted campaign drains the same waves against the same
    // visited store as the in-memory check, so its `--bench-json` row
    // reports the same execution and memory gauges.
    let bin = env!("CARGO_BIN_EXE_model_check");
    let dir = tmp_dir("cli_gauges");
    fs::create_dir_all(&dir).unwrap();
    let cell = [
        "--protocol", "floodmin", "--n", "3", "--k", "2", "--t", "1", "--validity", "RV1",
        "--threads", "2",
    ];
    let row = |extra: &[&str], name: &str| -> BenchCell {
        let json = dir.join(name);
        let out = Command::new(bin)
            .args(cell)
            .args(extra)
            .arg("--bench-json")
            .arg(&json)
            .output()
            .expect("run model_check");
        assert!(out.status.success(), "{out:?}");
        let report = json::parse(&fs::read_to_string(&json).unwrap()).unwrap();
        let cells: Vec<BenchCell> = report.fields().unwrap().get("cells").unwrap();
        let [cell] = <[BenchCell; 1]>::try_from(cells).expect("one row");
        cell
    };
    let campaign = dir.join("campaign");
    let campaign_row = row(
        &["--campaign-dir", campaign.to_str().unwrap(), "--checkpoint-every", "700"],
        "campaign.json",
    );
    let direct_row = row(&[], "direct.json");
    let gauges = |row: &BenchCell| {
        let (g, v) = (&row.gauge, &row.visited);
        [
            row.runs,
            g.events_fired,
            g.truncated_runs,
            g.store_probes,
            g.store_hits,
            g.waves,
            v.entries,
            v.bytes,
            v.fingerprints,
            v.slots,
        ]
    };
    assert_eq!(gauges(&campaign_row), gauges(&direct_row));
    assert!(direct_row.gauge.events_fired > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn model_check_bounded_campaign_records_bounded_and_refuses_resume() {
    // A campaign cut short by a bound exits 3 like the direct run, and its
    // MANIFEST must say so: `holds` would claim a certification.
    let bin = env!("CARGO_BIN_EXE_model_check");
    let dir = tmp_dir("bounded");
    let cell = [
        "--protocol", "floodmin", "--n", "3", "--k", "2", "--t", "1", "--validity", "RV1",
        "--max-runs", "0", "--threads", "1",
    ];
    let run = Command::new(bin)
        .args(cell)
        .arg("--campaign-dir")
        .arg(&dir)
        .output()
        .expect("run bounded campaign");
    assert_eq!(run.status.code(), Some(3), "{run:?}");
    assert!(
        String::from_utf8_lossy(&run.stdout).contains("BOUNDED by --max-runs 0"),
        "{run:?}"
    );
    assert_eq!(read_manifest(&dir).unwrap().status, CampaignStatus::Bounded);
    let text = fs::read_to_string(dir.join("MANIFEST")).unwrap();
    assert!(text.lines().any(|l| l == "status: bounded"), "{text}");
    // The MANIFEST names the bound the verdict line names.
    assert!(text.lines().any(|l| l == "bound: --max-runs 0"), "{text}");

    let again = Command::new(bin)
        .arg("--campaign-dir")
        .arg(&dir)
        .arg("--resume")
        .output()
        .expect("resume bounded campaign");
    assert!(!again.status.success());
    let stderr = String::from_utf8(again.stderr).unwrap();
    assert!(stderr.contains("finished (bounded)"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn model_check_resume_refuses_unknown_and_repeated_manifest_keys() {
    // A MANIFEST with a key the reader does not know, or with a key given
    // twice, is refused as a usage error before the campaign is touched.
    let bin = env!("CARGO_BIN_EXE_model_check");
    let dir = tmp_dir("manifest_keys");
    let cell = [
        "--protocol", "floodmin", "--n", "3", "--k", "2", "--t", "1", "--validity", "RV1",
    ];
    for key in ["bogus_key", "runs"] {
        let campaign = dir.join(key);
        let create = Command::new(bin)
            .args(cell)
            .arg("--campaign-dir")
            .arg(&campaign)
            .args(["--checkpoint-every", "0", "--pause-after-checkpoints", "1", "--threads", "1"])
            .output()
            .expect("create campaign");
        assert!(create.status.success(), "{create:?}");
        assert!(String::from_utf8_lossy(&create.stdout).contains("campaign paused"));
        let manifest = campaign.join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        // An unknown key, or a second copy of the `runs:` line.
        let extra = match key {
            "runs" => text
                .lines()
                .find(|l| l.starts_with("runs:"))
                .expect("runs line"),
            _ => "bogus_key: 1",
        };
        fs::write(&manifest, format!("{text}{extra}\n")).unwrap();
        let before = tree_bytes(&campaign);

        let resume = Command::new(bin)
            .arg("--campaign-dir")
            .arg(&campaign)
            .args(["--resume", "--threads", "1"])
            .output()
            .expect("resume campaign");
        assert_eq!(resume.status.code(), Some(2), "{key}: {resume:?}");
        assert!(resume.stdout.is_empty(), "{key}: {resume:?}");
        let stderr = String::from_utf8_lossy(&resume.stderr);
        assert!(stderr.contains(&format!("key \"{key}\"")), "{stderr}");
        assert_eq!(
            tree_bytes(&campaign),
            before,
            "{key}: the refused resume changed the campaign"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
