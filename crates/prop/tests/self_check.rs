//! Self-tests for the harness's failure contract: a failing property
//! shrinks to a stable minimal case, the report carries a replay seed,
//! and `KSET_PROP_SEED` reproduces the identical shrunk case.

use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

use kset_prop::{in_range, prop_assert, vec_exact, Runner, SEED_ENV};

/// Serializes the tests that mutate the process environment.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Run `f`, which must panic, and return its panic message.
fn failure_report(f: impl FnOnce()) -> String {
    let payload =
        std::panic::catch_unwind(AssertUnwindSafe(f)).expect_err("property was expected to fail");
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        panic!("non-string panic payload");
    }
}

/// The `minimal case:` and `error:` lines of a report — the part that
/// must be identical between a fresh run and a seed replay.
fn minimal_case_of(report: &str) -> String {
    report
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            l.starts_with("minimal case:") || l.starts_with("error:")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The seed printed after the first `KSET_PROP_SEED=` in a report.
fn replay_seed_of(report: &str) -> u64 {
    let tail = report
        .split(&format!("{SEED_ENV}="))
        .nth(1)
        .expect("report must print a replay seed");
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("replay seed must be a decimal u64")
}

/// A deliberately failing property: fails whenever `n >= 10`, so the
/// shrunk minimal case is exactly `n = 10` with an all-zero vector.
fn run_failing_property() {
    Runner::new("self_check_failing_property").cases(64).run(
        (in_range(2usize..30), vec_exact(in_range(0u64..100), 4)),
        |(n, extras)| {
            prop_assert!(n < 10, "n = {n}, extras = {extras:?}");
            Ok(())
        },
    );
}

#[test]
fn failing_property_shrinks_to_a_stable_minimal_case() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var(SEED_ENV);
    let first = failure_report(run_failing_property);
    let second = failure_report(run_failing_property);
    assert_eq!(first, second, "shrinking must be deterministic");
    assert!(
        first.contains("minimal case: (10, [0, 0, 0, 0])"),
        "greedy shrinking should reach the boundary case; report was:\n{first}"
    );
    assert!(
        first.contains(&format!("{SEED_ENV}=")),
        "report must print a replay seed"
    );
}

#[test]
fn seed_env_replays_the_identical_shrunk_case() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var(SEED_ENV);
    let fresh = failure_report(run_failing_property);
    let seed = replay_seed_of(&fresh);

    std::env::set_var(SEED_ENV, seed.to_string());
    let replayed = failure_report(run_failing_property);
    std::env::remove_var(SEED_ENV);

    assert!(replayed.contains(&format!("under {SEED_ENV}={seed} replay")));
    assert_eq!(
        minimal_case_of(&fresh),
        minimal_case_of(&replayed),
        "the replayed run must shrink to the identical minimal case"
    );
}

#[test]
fn passing_property_does_not_panic_under_replay_seed() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(SEED_ENV, "12345");
    Runner::new("self_check_passing_property")
        .cases(16)
        .run(in_range(0u64..100), |v| {
            prop_assert!(v < 100);
            Ok(())
        });
    std::env::remove_var(SEED_ENV);
}

#[test]
fn rejected_cases_are_discarded_not_failed() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var(SEED_ENV);
    // Rejecting every case must not fail the property.
    Runner::new("self_check_all_rejected")
        .cases(8)
        .run(in_range(0u64..100), |v| {
            kset_prop::prop_assume!(v >= 100);
            Ok(())
        });
}

#[test]
fn prop_assert_eq_reports_both_sides() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var(SEED_ENV);
    let report = failure_report(|| {
        Runner::new("self_check_assert_eq")
            .cases(8)
            .run(in_range(0u64..100), |v| {
                kset_prop::prop_assert_eq!(v % 2, 0, "v = {v}");
                Ok(())
            });
    });
    assert!(report.contains("left:"), "report was:\n{report}");
    assert!(report.contains("right:"), "report was:\n{report}");
}

#[test]
fn panicking_property_is_shrunk_like_a_failing_one() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var(SEED_ENV);
    let report = failure_report(|| {
        Runner::new("self_check_panicking_property")
            .cases(64)
            .run(in_range(0u64..1000), |v| {
                assert!(v < 10, "plain assert, not prop_assert");
                Ok(())
            });
    });
    assert!(report.contains("minimal case: 10"), "report was:\n{report}");
    assert!(report.contains("panicked"), "report was:\n{report}");
}
