//! Property-based tests for the incremental digest engine.
//!
//! The model checker's hot loop relies on two digest contracts:
//!
//! * **Incremental == from-scratch.** [`kset::sim::System::run_digested_in`]
//!   re-hashes only the dispatched process per event and maintains the
//!   pending-pool hash as a running sum; its output must be byte-identical
//!   to [`kset::sim::System::run_digested_reference`], which recomputes
//!   everything from scratch after every event. Pinned here over random
//!   sizes, seeds, inputs, and crash plans on **both** substrates.
//! * **Canonical digests are permutation-invariant.** Under
//!   [`kset::sim::DigestMode::Canonical`], two runs that differ only by a
//!   renaming of process ids must digest equal. Pinned by enumerating
//!   *every* schedule of a two-process system with mirrored inputs and
//!   comparing the reachable digest sets.
//! * **Pool sums need avalanched addends.** The pending-pool hash is an
//!   order-insensitive wrapping sum of per-event hashes; summing raw
//!   byte-wise FNV values (as the engine did before the [`kset::sim::Mix64`]
//!   combiner) cancels *systematically* — see
//!   [`fnv_sum_pools_collide_where_avalanched_sums_do_not`], which
//!   reconstructs the cancellation and pins that avalanching breaks it.
//!
//! Runs on the in-tree `kset-prop` harness; a failure prints a
//! `KSET_PROP_SEED` replay line (see `ARCHITECTURE.md`).

use std::collections::BTreeSet;

use kset_prop::{in_range, prop_assert_eq, unit_f64, vec_exact, Runner};

use kset::net::MpSubstrate;
use kset::protocols::{FloodMin, ProtocolE};
use kset::shmem::SmSubstrate;
use kset::sim::{ChoiceScheduler, DigestMode, FaultPlan, FaultSpec, RunArena, System};

const DEFAULT: u64 = u64::MAX;

/// A crash plan with at most `t` failures and staggered budgets, derived
/// deterministically from `plan_seed` (same shape as
/// `property_protocols.rs`).
fn crash_plan_from_seed(n: usize, t: usize, plan_seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::all_correct(n);
    let failures = (plan_seed as usize) % (t + 1);
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

/// Incremental digests equal the from-scratch oracle on the
/// message-passing substrate, for every size, seed, input vector, and
/// crash plan drawn.
#[test]
fn incremental_digests_match_reference_on_mp() {
    Runner::new("incremental_digests_match_reference_on_mp")
        .cases(48)
        .run(
            (
                in_range(2usize..6),
                unit_f64(),
                in_range(0u64..1000),
                vec_exact(in_range(0u64..8), 6),
                in_range(0u64..1000),
            ),
            |(n, t_frac, seed, inputs, plan_seed)| {
                let t = ((n - 1) as f64 * t_frac) as usize;
                let plan = crash_plan_from_seed(n, t, plan_seed);
                let procs = || (0..n).map(|p| FloodMin::boxed(n, t, inputs[p])).collect();
                let (inc_out, inc_digests, ()) = System::new(n)
                    .seed(seed)
                    .fault_plan(plan.clone())
                    .run_digested_in::<MpSubstrate<u64, u64>>(procs(), &mut RunArena::new())
                    .unwrap();
                let (ref_out, ref_digests) = System::new(n)
                    .seed(seed)
                    .fault_plan(plan)
                    .run_digested_reference::<MpSubstrate<u64, u64>>(procs())
                    .unwrap();
                prop_assert_eq!(inc_out, ref_out);
                prop_assert_eq!(inc_digests, ref_digests);
                Ok(())
            },
        );
}

/// Incremental digests equal the from-scratch oracle on the shared-memory
/// substrate (register store in the shared component, read/write-ack
/// payloads in the pool).
#[test]
fn incremental_digests_match_reference_on_sm() {
    Runner::new("incremental_digests_match_reference_on_sm")
        .cases(48)
        .run(
            (
                in_range(2usize..6),
                unit_f64(),
                in_range(0u64..1000),
                vec_exact(in_range(0u64..8), 6),
                in_range(0u64..1000),
            ),
            |(n, t_frac, seed, inputs, plan_seed)| {
                let t = ((n - 1) as f64 * t_frac) as usize;
                let plan = crash_plan_from_seed(n, t, plan_seed);
                let procs = || {
                    (0..n)
                        .map(|p| ProtocolE::boxed(n, t, inputs[p], DEFAULT))
                        .collect()
                };
                let (inc_out, inc_digests, _memory) = System::new(n)
                    .seed(seed)
                    .fault_plan(plan.clone())
                    .run_digested_in::<SmSubstrate<u64, u64>>(procs(), &mut RunArena::new())
                    .unwrap();
                let (ref_out, ref_digests) = System::new(n)
                    .seed(seed)
                    .fault_plan(plan)
                    .run_digested_reference::<SmSubstrate<u64, u64>>(procs())
                    .unwrap();
                prop_assert_eq!(inc_out, ref_out);
                prop_assert_eq!(inc_digests, ref_digests);
                Ok(())
            },
        );
}

/// Enumerates every schedule of a two-process FloodMin system with the
/// given inputs and returns the set of digests reached anywhere in any
/// run, under `mode`.
fn all_reachable_digests(inputs: [u64; 2], mode: DigestMode) -> BTreeSet<u64> {
    let n = 2;
    let mut reached = BTreeSet::new();
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    let mut runs = 0u64;
    while let Some(prefix) = frontier.pop() {
        runs += 1;
        assert!(runs < 100_000, "enumeration exploded");
        let sched = ChoiceScheduler::new(prefix.clone());
        let log_handle = sched.log_handle();
        let (outcome, digests, ()) = System::new(n)
            .scheduler(sched)
            .digest_mode(mode)
            .run_digested_in::<MpSubstrate<u64, u64>>(
                (0..n).map(|p| FloodMin::boxed(n, 0, inputs[p])).collect(),
                &mut RunArena::new(),
            )
            .unwrap();
        assert!(outcome.terminated);
        reached.extend(digests);
        let log = log_handle.borrow();
        let taken = log.taken_indices();
        for depth in prefix.len()..log.len() {
            let point = log.point(depth);
            if point.forced {
                continue;
            }
            for option in 0..point.options.len() {
                if option != point.taken {
                    let mut branch = taken[..depth].to_vec();
                    branch.push(option);
                    frontier.push(branch);
                }
            }
        }
    }
    reached
}

/// Mirrored inputs reach the same canonical digest set: exchanging the two
/// processes' inputs is a renaming of process ids, so every state reachable
/// with inputs `[3, 5]` has a twin reachable with `[5, 3]` that the
/// canonical mode must fingerprint identically. The plain (id-sensitive)
/// mode distinguishes the mirrored states — asserted too, so this test
/// would catch the canonical mode silently degenerating into the plain one.
#[test]
fn canonical_digests_are_invariant_under_input_mirroring() {
    let canon_a = all_reachable_digests([3, 5], DigestMode::Canonical);
    let canon_b = all_reachable_digests([5, 3], DigestMode::Canonical);
    assert_eq!(canon_a, canon_b);

    let plain_a = all_reachable_digests([3, 5], DigestMode::Plain);
    let plain_b = all_reachable_digests([5, 3], DigestMode::Plain);
    assert_ne!(
        plain_a, plain_b,
        "plain digests should be id-sensitive; if this starts failing the \
         canonical-invariance assertion above has lost its teeth"
    );
}

/// Reconstructs the systematic pool-sum cancellation that deflated the
/// checker's state counts before the [`Mix64`] combiner, and pins that
/// avalanched per-event hashes break it.
///
/// The pending-pool digest must be order-insensitive, so it is a wrapping
/// *sum* of per-event hashes. Summing raw byte-wise FNV-1a values is
/// unsound: the last absorbed byte `b` only reaches the hash as
/// `(s ^ b) * PRIME`, where `s` is the state after the preceding bytes, so
/// two events share the high 56 bits of `s ^ b` across any `b < 256` and
/// `fnv(p₁‖b₁) − fnv(p₁‖b₂) = fnv(p₂‖b₁) − fnv(p₂‖b₂)` holds *exactly*
/// whenever the states after prefixes `p₁, p₂` agree in their low byte — a
/// 1/256 chance per prefix pair, i.e. millions of cancelling pairs in a
/// multi-million-state search. Swapping final bytes across such a pair
/// (`{p₁‖b₁, p₂‖b₂}` vs `{p₁‖b₂, p₂‖b₁}` — genuinely different pools)
/// leaves the sum unchanged, so the old dedup merged distinct states.
/// Post-avalanche sums still collide only at the ~2⁻⁶⁴ birthday rate.
#[test]
fn fnv_sum_pools_collide_where_avalanched_sums_do_not() {
    use kset::sim::{Fnv64, Mix64};
    let fnv = |bytes: &[u8]| {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    };
    // Find two two-byte prefixes whose FNV states share a low byte.
    // One-byte prefixes can never collide there — xor-then-multiply by
    // an odd constant permutes the low byte — but across two leading
    // bytes the 512 candidate prefixes pigeonhole into 256 low bytes;
    // assert the search succeeds rather than assume it.
    let mut pair = None;
    'search: for i in 0u8..=255 {
        for j in 0u8..=255 {
            if fnv(&[0, i]) & 0xff == fnv(&[1, j]) & 0xff {
                pair = Some((i, j));
                break 'search;
            }
        }
    }
    let (i, j) = pair.expect("no two-byte FNV prefixes share a low byte");
    let (p1, p2) = ([0, i], [1, j]);

    // Two distinct two-event pools: same events, final bytes swapped.
    let sum_a = fnv(&[p1[0], p1[1], 0]).wrapping_add(fnv(&[p2[0], p2[1], 1]));
    let sum_b = fnv(&[p1[0], p1[1], 1]).wrapping_add(fnv(&[p2[0], p2[1], 0]));
    assert_eq!(
        sum_a, sum_b,
        "the constructed pools should collide under raw FNV summation"
    );

    // The engine now avalanches every per-event hash before summing; the
    // same pair of pools must digest apart.
    let ava = |h: u64| {
        let mut m = Mix64::new();
        m.mix(h);
        m.finish()
    };
    let ava_a = ava(fnv(&[p1[0], p1[1], 0])).wrapping_add(ava(fnv(&[p2[0], p2[1], 1])));
    let ava_b = ava(fnv(&[p1[0], p1[1], 1])).wrapping_add(ava(fnv(&[p2[0], p2[1], 0])));
    assert_ne!(
        ava_a, ava_b,
        "avalanched pool sums must distinguish the swapped-byte pools"
    );
}

/// Symmetric (unanimous) inputs: mirroring is the identity, so even the
/// plain digest sets coincide, and the canonical set can only be coarser
/// (never larger) than the plain one.
#[test]
fn canonical_digest_count_never_exceeds_plain_on_symmetric_inputs() {
    let canon = all_reachable_digests([7, 7], DigestMode::Canonical);
    let plain = all_reachable_digests([7, 7], DigestMode::Plain);
    assert!(
        canon.len() <= plain.len(),
        "canonicalization must merge states, not split them: {} > {}",
        canon.len(),
        plain.len()
    );
}
