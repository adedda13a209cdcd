//! Property tests on the problem core: the lattice/checker coherence and
//! the l-echo broadcast invariants of Lemma 3.14.
//!
//! Runs on the in-tree `kset-prop` harness; a failure prints a
//! `KSET_PROP_SEED` replay line (see `ARCHITECTURE.md`).

use kset_prop::{bools, in_range, option_of, prop_assert, prop_assert_eq, vec_exact, vec_in};
use kset_prop::{Gen, GenExt, Runner};

use kset::core::lattice::Lattice;
use kset::core::{RunRecord, ValidityCondition};
use kset::protocols::echo::{EchoAction, LEcho};

/// A random abstract run over small domains.
fn arb_record() -> impl Gen<Value = RunRecord<u8>> {
    (
        vec_in(in_range(0u8..4), 1..6),
        vec_exact(bools(), 6),
        vec_exact(option_of(in_range(0u8..4)), 6),
    )
        .map(|(inputs, fault_bits, decision_opts)| {
            let n = inputs.len();
            let faulty: Vec<usize> = (0..n).filter(|&p| fault_bits[p]).collect();
            let decisions: Vec<(usize, u8)> = (0..n)
                .filter_map(|p| decision_opts[p].map(|d| (p, d)))
                .collect();
            RunRecord::new(inputs)
                .with_faulty(faulty)
                .with_decisions(decisions)
        })
}

/// The derived lattice and the executable predicates agree: whenever
/// the lattice says C implies D, every record satisfying C satisfies D.
#[test]
fn lattice_implications_hold_on_random_records() {
    Runner::new("lattice_implications_hold_on_random_records")
        .cases(512)
        .run(arb_record(), |record| {
            let lattice = Lattice::paper();
            for c in ValidityCondition::ALL {
                for d in ValidityCondition::ALL {
                    if lattice.implies(c, d) && c.satisfied_by(&record) {
                        prop_assert!(
                            d.satisfied_by(&record),
                            "{c} held but implied {d} failed on {record:?}"
                        );
                    }
                }
            }
            Ok(())
        });
}

/// Non-implications are witnessed: for each pair the lattice declares
/// independent, *some* record separates them (aggregate check is done
/// in kset-core; here we simply confirm the checker never panics and
/// is deterministic on arbitrary records).
#[test]
fn validity_checks_are_deterministic() {
    Runner::new("validity_checks_are_deterministic")
        .cases(512)
        .run(arb_record(), |record| {
            for c in ValidityCondition::ALL {
                prop_assert_eq!(c.satisfied_by(&record), c.satisfied_by(&record.clone()));
            }
            Ok(())
        });
}

/// Lemma 3.14 part 1, adversarially: when at most `t` senders are
/// faulty (echoing every candidate value) and correct senders echo
/// exactly one value each, at most `l` values are accepted per origin.
/// Notably this safety half holds for *any* `t`, sound or not — only
/// the liveness half needs `t < ln/(2l+1)`.
#[test]
fn l_echo_accepts_at_most_l_per_origin() {
    Runner::new("l_echo_accepts_at_most_l_per_origin")
        .cases(256)
        .run(
            (
                in_range(1usize..4),
                in_range(0usize..6),
                vec_exact(in_range(0u8..5), 10),
                in_range(0u64..1000),
            ),
            |(l, t, camps, order_seed)| {
                let n = 10;
                let mut echo: LEcho<u8> = LEcho::new(n, t, l);
                let mut accepts: Vec<u8> = Vec::new();
                // Build the echo traffic: faulty senders 0..t echo every camp
                // value; correct senders echo their own camp's value once.
                let mut traffic: Vec<(usize, u8)> = Vec::new();
                for from in 0..t {
                    for v in 0u8..5 {
                        traffic.push((from, v));
                    }
                }
                for (from, &camp) in camps.iter().enumerate().take(n).skip(t) {
                    traffic.push((from, camp));
                }
                // Deterministic shuffle by seed (delivery order is adversarial).
                let len = traffic.len();
                for i in 0..len {
                    let j = (order_seed as usize + i * 7) % len;
                    traffic.swap(i, j);
                }
                for (from, value) in traffic {
                    if let Some(EchoAction::Accept { value, .. }) = echo.on_echo(from, 0, value) {
                        accepts.push(value);
                    }
                }
                prop_assert!(
                    accepts.len() <= l,
                    "accepted {accepts:?} with l = {l}, t = {t}"
                );
                Ok(())
            },
        );
}

/// Lemma 3.14 liveness: with sound parameters and a correct sender,
/// once all correct processes echo, every correct process accepts.
#[test]
fn l_echo_correct_sender_is_accepted() {
    Runner::new("l_echo_correct_sender_is_accepted")
        .cases(256)
        .run(
            (in_range(1usize..4), in_range(4usize..12), in_range(0u8..8)),
            |(l, n, value)| {
                // Choose the largest sound t for this (n, l).
                let t = (0..n).rev().find(|&t| (2 * l + 1) * t < l * n).unwrap_or(0);
                let mut echo: LEcho<u8> = LEcho::new(n, t, l);
                prop_assert!(echo.parameters_sound() || t == 0);
                // All n - t correct processes echo the same init.
                let mut accepted = false;
                for from in 0..(n - t) {
                    if let Some(EchoAction::Accept { .. }) = echo.on_echo(from, 0, value) {
                        accepted = true;
                    }
                }
                prop_assert!(accepted, "n={n} t={t} l={l}: correct echoes must suffice");
                prop_assert_eq!(echo.first_accepted(0), Some(&value));
                Ok(())
            },
        );
}
