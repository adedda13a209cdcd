//! Property-based tests: protocol guarantees hold across randomly drawn
//! system sizes, fault budgets, inputs, fault placements, and schedules —
//! everywhere inside each protocol's proven region.
//!
//! Runs on the in-tree `kset-prop` harness; a failure prints a
//! `KSET_PROP_SEED` replay line (see `ARCHITECTURE.md`).

use kset_prop::{bools, in_range, prop_assert, prop_assert_eq, prop_assume, unit_f64, vec_exact};
use kset_prop::{CaseResult, Runner};

use kset::core::{ProblemSpec, RunRecord, ValidityCondition};
use kset::net::MpSystem;
use kset::protocols::{FloodMin, ProtocolA, ProtocolB, ProtocolD};
use kset::protocols::{ProtocolE, ProtocolF};
use kset::shmem::SmSystem;
use kset::sim::{FaultPlan, FaultSpec};

const DEFAULT: u64 = u64::MAX;

/// A crash plan with at most `t` failures and staggered budgets, derived
/// deterministically from `plan_seed`.
///
/// Victims are distinct by construction: the walk visits each residue
/// mod `n` once (the historical stride-7 walk could revisit a process
/// and silently inject fewer crashes than the drawn failure count).
fn crash_plan_from_seed(n: usize, t: usize, plan_seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::all_correct(n);
    let failures = (plan_seed as usize) % (t + 1);
    debug_assert!(failures < n);
    for i in 0..failures {
        let victim = (plan_seed as usize + i) % n;
        plan.set(
            victim,
            FaultSpec::Crash {
                after_actions: (plan_seed / 3 + i as u64) % 12,
            },
        );
    }
    plan
}

#[allow(clippy::too_many_arguments)]
fn check(
    n: usize,
    k: usize,
    t: usize,
    v: ValidityCondition,
    inputs: &[u64],
    decisions: std::collections::BTreeMap<usize, u64>,
    faulty: Vec<usize>,
    terminated: bool,
) -> CaseResult {
    let spec = ProblemSpec::new(n, k, t, v).unwrap();
    let record = RunRecord::new(inputs.to_vec())
        .with_faulty(faulty)
        .with_decisions(decisions)
        .with_terminated(terminated);
    let report = spec.check(&record);
    prop_assert!(report.is_ok(), "{spec}: {report}");
    Ok(())
}

/// FloodMin solves SC(t+1, t, RV1) for every n, t < n, inputs, crash
/// plan and seed (Lemma 3.1 with k = t + 1, the tight case).
#[test]
fn floodmin_everywhere_in_its_region() {
    Runner::new("floodmin_everywhere_in_its_region")
        .cases(64)
        .run(
            (
                in_range(2usize..10),
                unit_f64(),
                in_range(0u64..1000),
                vec_exact(in_range(0u64..8), 10),
                in_range(0u64..1000),
            ),
            |(n, t_frac, seed, inputs, plan_seed)| {
                let t = ((n - 1) as f64 * t_frac) as usize; // 0 <= t <= n-1
                let k = t + 1;
                let plan = crash_plan_from_seed(n, t, plan_seed);
                let outcome = MpSystem::new(n)
                    .seed(seed)
                    .fault_plan(plan)
                    .run_with(|p| FloodMin::boxed(n, t, inputs[p]))
                    .unwrap();
                check(
                    n,
                    k,
                    t,
                    ValidityCondition::RV1,
                    &inputs[..n],
                    outcome.decisions,
                    outcome.faulty,
                    outcome.terminated,
                )
            },
        );
}

/// Protocol A solves SC(k, t, RV2) whenever k t < (k-1) n.
#[test]
fn protocol_a_rv2_in_region() {
    Runner::new("protocol_a_rv2_in_region").cases(48).run(
        (
            in_range(4usize..10),
            in_range(1usize..4),
            in_range(0u64..500),
            bools(),
            in_range(0u64..5),
        ),
        |(n, t, seed, unanimous, val)| {
            prop_assume!(t < n);
            // Smallest k with k t < (k-1) n, if any k <= n - 1 works.
            let Some(k) = (2..n).find(|&k| k * t < (k - 1) * n) else {
                return Ok(());
            };
            let inputs: Vec<u64> = if unanimous {
                vec![val; n]
            } else {
                (0..n).map(|p| (p as u64 + val) % 3).collect()
            };
            let outcome = MpSystem::new(n)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(n, &(0..t).collect::<Vec<_>>()))
                .run_with(|p| ProtocolA::boxed(n, t, inputs[p], DEFAULT))
                .unwrap();
            check(
                n,
                k,
                t,
                ValidityCondition::RV2,
                &inputs,
                outcome.decisions,
                outcome.faulty,
                outcome.terminated,
            )
        },
    );
}

/// Protocol B solves SC(k, t, SV2) whenever 2 k t < (k-1) n.
#[test]
fn protocol_b_sv2_in_region() {
    Runner::new("protocol_b_sv2_in_region").cases(48).run(
        (
            in_range(5usize..11),
            in_range(1usize..3),
            in_range(0u64..500),
            in_range(0u64..5),
        ),
        |(n, t, seed, val)| {
            prop_assume!(t < n);
            let Some(k) = (2..n).find(|&k| 2 * k * t < (k - 1) * n) else {
                return Ok(());
            };
            // All correct processes share `val`; the crashed ones deviate.
            let inputs: Vec<u64> = (0..n).map(|p| if p < t { val + 1 } else { val }).collect();
            let outcome = MpSystem::new(n)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(n, &(0..t).collect::<Vec<_>>()))
                .run_with(|p| ProtocolB::boxed(n, t, inputs[p], DEFAULT))
                .unwrap();
            prop_assert!(outcome.terminated);
            prop_assert_eq!(outcome.correct_decision_set(), vec![val]);
            check(
                n,
                k,
                t,
                ValidityCondition::SV2,
                &inputs,
                outcome.decisions,
                outcome.faulty,
                outcome.terminated,
            )
        },
    );
}

/// Protocol D's agreement never exceeds Z(n, t), under any seed and
/// any silent-crash pattern.
#[test]
fn protocol_d_agreement_bounded_by_z() {
    Runner::new("protocol_d_agreement_bounded_by_z")
        .cases(48)
        .run(
            (
                in_range(4usize..9),
                in_range(1usize..3),
                in_range(0u64..500),
                in_range(0usize..16),
            ),
            |(n, t, seed, crash_mask)| {
                prop_assume!(t < n);
                let crashed: Vec<usize> = (0..n)
                    .filter(|p| crash_mask >> p & 1 == 1)
                    .take(t)
                    .collect();
                let z = kset::regions::math::z_function(n, t);
                let inputs: Vec<u64> = (0..n as u64).collect();
                let outcome = MpSystem::new(n)
                    .seed(seed)
                    .fault_plan(FaultPlan::silent_crashes(n, &crashed))
                    .run_with(|p| ProtocolD::boxed(n, t, inputs[p]))
                    .unwrap();
                prop_assert!(outcome.terminated);
                prop_assert!(outcome.correct_decision_set().len() <= z);
                check(
                    n,
                    z,
                    t,
                    ValidityCondition::WV1,
                    &inputs,
                    outcome.decisions,
                    outcome.faulty,
                    outcome.terminated,
                )
            },
        );
}

/// Protocol E never lets more than two values through, for any t up to
/// n, and satisfies RV2 under crashes.
#[test]
fn protocol_e_rv2_for_any_t() {
    Runner::new("protocol_e_rv2_for_any_t").cases(48).run(
        (
            in_range(3usize..9),
            in_range(0u64..500),
            in_range(0usize..256),
            bools(),
        ),
        |(n, seed, crash_mask, spread)| {
            let crashed: Vec<usize> = (0..n).filter(|p| crash_mask >> p & 1 == 1).collect();
            prop_assume!(crashed.len() < n); // at least one live process
            let t = n; // maximal fault budget: every pattern is within budget
            let inputs: Vec<u64> = if spread {
                (0..n as u64).collect()
            } else {
                vec![9; n]
            };
            let outcome = SmSystem::new(n)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(n, &crashed))
                .run_with(|p| ProtocolE::boxed(n, t, inputs[p], DEFAULT))
                .unwrap()
                .into_run();
            prop_assert!(outcome.terminated);
            prop_assert!(outcome.correct_decision_set().len() <= 2);
            check(
                n,
                2,
                t,
                ValidityCondition::RV2,
                &inputs,
                outcome.decisions,
                outcome.faulty,
                outcome.terminated,
            )
        },
    );
}

/// Protocol F solves SC(t+2, t, SV2) for every t < n - 1.
#[test]
fn protocol_f_sv2_in_region() {
    Runner::new("protocol_f_sv2_in_region").cases(48).run(
        (
            in_range(4usize..9),
            unit_f64(),
            in_range(0u64..500),
            in_range(0u64..4),
        ),
        |(n, t_frac, seed, val)| {
            let t = 1 + ((n - 3) as f64 * t_frac) as usize; // 1 <= t <= n-2
            let k = t + 2;
            prop_assume!(k <= n);
            let inputs: Vec<u64> = vec![val; n];
            let outcome = SmSystem::new(n)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(n, &(0..t).collect::<Vec<_>>()))
                .run_with(|p| ProtocolF::boxed(n, t, inputs[p], DEFAULT))
                .unwrap()
                .into_run();
            prop_assert!(outcome.terminated);
            prop_assert_eq!(outcome.correct_decision_set(), vec![val]);
            check(
                n,
                k,
                t,
                ValidityCondition::SV2,
                &inputs,
                outcome.decisions,
                outcome.faulty,
                outcome.terminated,
            )
        },
    );
}
