//! Exhaustive small-model verification of the one-shot quorum protocols.
//!
//! Random and adversarial sampling (see [`crate::cells`]) can miss corner
//! schedules; for FloodMin and Protocols A and B we can do better. These
//! protocols are *one-shot*: every process broadcasts once at start, and a
//! correct process's decision is a pure function of the set of messages it
//! has processed when its quorum condition first holds. Deliveries to
//! different processes are independent in the asynchronous model, so
//! **every combination of per-process quorum sets is realizable by some
//! schedule** — and conversely, every schedule realizes some combination.
//!
//! Enumerating those combinations therefore covers the *entire* space of
//! asynchronous behaviours (for silent-crash fault patterns), turning the
//! agreement and validity claims of Lemmas 3.1, 3.7 and 3.8 into finite,
//! machine-checkable statements at small `n` — including exact tightness:
//! the worst-case number of distinct decisions jumps past `k` precisely
//! where the atlas stops being solvable.
//!
//! | protocol | processed set of process `p` |
//! |---|---|
//! | FloodMin | any `(n-t)`-subset of the live processes |
//! | Protocol A | any `(n-t)`-subset of the live processes |
//! | Protocol B | any subset containing `p` of size `>= n-t` |
//! | Protocol E | any subset of live writers containing `p` and the first writer `w` |
//! | Protocol F | as E, with size `>= n-t` |
//!
//! The shared-memory protocols carry one *global* constraint the
//! message-passing ones do not: every scan happens after the scanner's own
//! write, hence after the globally first write `w`, so `w`'s value is
//! visible in **every** scan (this is the linchpin of Lemmas 4.5/4.7).
//! The enumeration therefore quantifies over the choice of `w` in an outer
//! loop; within a fixed `w`, per-process visibility is independent again.

use kset_core::{RunRecord, ValidityCondition};

use crate::cells::DEFAULT_VALUE;

/// The quorum protocols amenable to exhaustive verification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuorumProtocol {
    /// Chaudhuri's protocol: decide the minimum of the quorum (Lemma 3.1).
    FloodMin,
    /// Protocol A: unanimity-or-default (Lemma 3.7).
    ProtocolA,
    /// Protocol B: own-value confirmation (Lemma 3.8).
    ProtocolB,
    /// Protocol E: write, scan once, unanimity-or-default (Lemma 4.5).
    ProtocolE,
    /// Protocol F: repeated scans with support counting (Lemma 4.7).
    ProtocolF,
}

impl QuorumProtocol {
    /// The protocol's display name, as used in reports and run records.
    pub fn name(self) -> &'static str {
        match self {
            QuorumProtocol::FloodMin => "FloodMin",
            QuorumProtocol::ProtocolA => "Protocol A",
            QuorumProtocol::ProtocolB => "Protocol B",
            QuorumProtocol::ProtocolE => "Protocol E",
            QuorumProtocol::ProtocolF => "Protocol F",
        }
    }

    /// Whether the protocol runs on shared memory (first-writer constraint
    /// applies).
    pub fn shared_memory(self) -> bool {
        matches!(self, QuorumProtocol::ProtocolE | QuorumProtocol::ProtocolF)
    }

    /// The decision of process `p` given the processed quorum `subset`.
    fn decide(self, inputs: &[u64], p: usize, subset: &[usize], t: usize) -> u64 {
        let n = inputs.len();
        match self {
            QuorumProtocol::FloodMin => subset
                .iter()
                .map(|&q| inputs[q])
                .min()
                .expect("quorums are non-empty"),
            QuorumProtocol::ProtocolA => {
                let first = inputs[subset[0]];
                if subset.iter().all(|&q| inputs[q] == first) {
                    first
                } else {
                    DEFAULT_VALUE
                }
            }
            QuorumProtocol::ProtocolB => {
                let own = inputs[p];
                let matching = subset.iter().filter(|&&q| inputs[q] == own).count();
                if matching >= n.saturating_sub(2 * t) {
                    own
                } else {
                    DEFAULT_VALUE
                }
            }
            QuorumProtocol::ProtocolE => {
                let first = inputs[subset[0]];
                if subset.iter().all(|&q| inputs[q] == first) {
                    first
                } else {
                    DEFAULT_VALUE
                }
            }
            QuorumProtocol::ProtocolF => {
                let r = subset.len();
                let own = inputs[p];
                if r <= t {
                    own
                } else {
                    let i = r - t;
                    let support = subset.iter().filter(|&&q| inputs[q] == own).count();
                    if support >= i {
                        own
                    } else {
                        DEFAULT_VALUE
                    }
                }
            }
        }
    }
}

/// Result of exhaustively checking one configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExhaustiveReport {
    /// Which protocol.
    pub protocol: &'static str,
    /// System size.
    pub n: usize,
    /// Fault budget (quorum parameter).
    pub t: usize,
    /// Inputs used.
    pub inputs: Vec<u64>,
    /// Silent-crashed processes.
    pub crashed: Vec<usize>,
    /// Number of distinct outcome profiles enumerated (the product of the
    /// per-process achievable-decision sets; every one is realizable by
    /// some schedule, and every schedule lands in one).
    pub profiles: u64,
    /// Worst-case number of distinct correct decisions over all schedules.
    pub worst_agreement: usize,
    /// Validity conditions violated in at least one schedule.
    pub violated_validities: Vec<ValidityCondition>,
}

impl ExhaustiveReport {
    /// Whether the configuration meets `SC(k, t, validity)` over *all*
    /// asynchronous schedules.
    pub fn satisfies(&self, k: usize, validity: ValidityCondition) -> bool {
        self.worst_agreement <= k && !self.violated_validities.contains(&validity)
    }
}

/// All `size`-subsets of `items`, in lexicographic order.
fn combinations(items: &[usize], size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if size > items.len() {
        return out;
    }
    let mut idx: Vec<usize> = (0..size).collect();
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        // Advance the combination odometer.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + items.len() - size {
                break;
            }
        }
        idx[i] += 1;
        for j in i + 1..size {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// The realizable processed sets of process `p`. For the shared-memory
/// protocols, `first_writer` is the process whose write completed first
/// (visible in every scan).
fn quorum_sets(
    protocol: QuorumProtocol,
    live: &[usize],
    p: usize,
    n: usize,
    t: usize,
    first_writer: Option<usize>,
) -> Vec<Vec<usize>> {
    match protocol {
        QuorumProtocol::FloodMin | QuorumProtocol::ProtocolA => combinations(live, n - t),
        QuorumProtocol::ProtocolB => {
            // Any processed set containing p of size n-t ..= live.len().
            let others: Vec<usize> = live.iter().copied().filter(|&q| q != p).collect();
            let mut sets = Vec::new();
            for extra in (n - t - 1)..=others.len() {
                for mut s in combinations(&others, extra) {
                    s.push(p);
                    s.sort_unstable();
                    sets.push(s);
                }
            }
            sets
        }
        QuorumProtocol::ProtocolE | QuorumProtocol::ProtocolF => {
            let w = first_writer.expect("SM protocols need the first writer");
            // Mandatory members: own register and the first writer's.
            let mut base: Vec<usize> = vec![p];
            if w != p {
                base.push(w);
            }
            let others: Vec<usize> = live.iter().copied().filter(|q| !base.contains(q)).collect();
            let min_size = if protocol == QuorumProtocol::ProtocolF {
                n - t
            } else {
                base.len()
            };
            let mut sets = Vec::new();
            for extra in 0..=others.len() {
                if base.len() + extra < min_size {
                    continue;
                }
                for mut s in combinations(&others, extra) {
                    s.extend_from_slice(&base);
                    s.sort_unstable();
                    sets.push(s);
                }
            }
            sets
        }
    }
}

/// The achievable decision set of every correct process — the atoms the
/// exhaustive verification enumerates over. Exposed so that simulator runs
/// can be cross-checked against the model: every decision observed in any
/// simulated schedule must lie in its process's achievable set.
///
/// Returns one sorted, deduplicated vector per live process, in live-id
/// order.
///
/// # Panics
///
/// Panics under the same conditions as [`verify`].
pub fn achievable_decisions(
    protocol: QuorumProtocol,
    inputs: &[u64],
    t: usize,
    crashed: &[usize],
) -> Vec<(usize, Vec<u64>)> {
    let n = inputs.len();
    assert!(t < n, "t must be smaller than n");
    assert!(crashed.len() <= t, "more crashes than the budget");
    let live: Vec<usize> = (0..n).filter(|p| !crashed.contains(p)).collect();
    let writers = first_writers(protocol, &live);
    live.iter()
        .map(|&p| {
            let mut decisions: Vec<u64> = writers
                .iter()
                .flat_map(|&w| {
                    quorum_sets(protocol, &live, p, n, t, w)
                        .iter()
                        .map(|subset| protocol.decide(inputs, p, subset, t))
                        .collect::<Vec<u64>>()
                })
                .collect();
            decisions.sort_unstable();
            decisions.dedup();
            (p, decisions)
        })
        .collect()
}

/// The first-writer choices to quantify over: one `None` for the
/// message-passing protocols (no global constraint), each live process for
/// the shared-memory ones.
fn first_writers(protocol: QuorumProtocol, live: &[usize]) -> Vec<Option<usize>> {
    if protocol.shared_memory() {
        live.iter().map(|&w| Some(w)).collect()
    } else {
        vec![None]
    }
}

/// Exhaustively enumerates every asynchronous schedule's outcome.
///
/// # Errors
///
/// Returns the (too large) profile count if the enumeration would exceed
/// `limit` combinations.
///
/// # Panics
///
/// Panics if `t >= n`, more than `t` processes are crashed, or a crashed
/// index is out of range.
pub fn verify(
    protocol: QuorumProtocol,
    inputs: &[u64],
    t: usize,
    crashed: &[usize],
    limit: u64,
) -> Result<ExhaustiveReport, u64> {
    let n = inputs.len();
    assert!(t < n, "t must be smaller than n");
    assert!(crashed.len() <= t, "more crashes than the budget");
    assert!(crashed.iter().all(|&c| c < n), "crashed index out of range");

    let live: Vec<usize> = (0..n).filter(|p| !crashed.contains(p)).collect();
    let correct = live.clone();

    let mut total_profiles: u64 = 0;
    let mut worst_agreement = 0;
    let mut violated: Vec<ValidityCondition> = Vec::new();

    // Outer quantifier: the first-completed writer for the shared-memory
    // protocols (None for message passing).
    for w in first_writers(protocol, &live) {
        // Achievable decisions per correct process under this choice. Two
        // schedules giving a process the same decision are equivalent for
        // agreement and validity, and decisions of different processes are
        // independently realizable — so the product of achievable-decision
        // sets covers exactly the space of observable outcomes, at a
        // fraction of the raw subset product.
        let candidates: Vec<Vec<u64>> = correct
            .iter()
            .map(|&p| {
                let mut decisions: Vec<u64> = quorum_sets(protocol, &live, p, n, t, w)
                    .iter()
                    .map(|subset| protocol.decide(inputs, p, subset, t))
                    .collect();
                decisions.sort_unstable();
                decisions.dedup();
                decisions
            })
            .collect();
        let profiles: u64 = candidates
            .iter()
            .map(|c| c.len() as u64)
            .try_fold(1u64, |acc, len| acc.checked_mul(len))
            .unwrap_or(u64::MAX);
        total_profiles = total_profiles.saturating_add(profiles);
        if total_profiles > limit {
            return Err(total_profiles);
        }

        // Odometer over the cartesian product of candidate sets.
        let mut choice = vec![0usize; correct.len()];
        'profiles: loop {
            let mut decisions: Vec<(usize, u64)> = Vec::with_capacity(correct.len());
            for (i, &p) in correct.iter().enumerate() {
                decisions.push((p, candidates[i][choice[i]]));
            }
            let mut distinct: Vec<u64> = decisions.iter().map(|&(_, d)| d).collect();
            distinct.sort_unstable();
            distinct.dedup();
            worst_agreement = worst_agreement.max(distinct.len());

            let record = RunRecord::new(inputs.to_vec())
                .with_faulty(crashed.iter().copied())
                .with_decisions(decisions);
            for v in ValidityCondition::ALL {
                if !violated.contains(&v) && !v.satisfied_by(&record) {
                    violated.push(v);
                }
            }

            // Advance.
            let mut i = 0;
            loop {
                if i == choice.len() {
                    break 'profiles;
                }
                choice[i] += 1;
                if choice[i] < candidates[i].len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
    }
    violated.sort();
    Ok(ExhaustiveReport {
        protocol: protocol.name(),
        n,
        t,
        inputs: inputs.to_vec(),
        crashed: crashed.to_vec(),
        profiles: total_profiles,
        violated_validities: violated,
        worst_agreement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: u64 = 3_000_000;

    #[test]
    fn combinations_enumerate_binomially() {
        assert_eq!(combinations(&[0, 1, 2, 3], 2).len(), 6);
        assert_eq!(combinations(&[0, 1, 2], 3), vec![vec![0, 1, 2]]);
        assert!(combinations(&[0, 1], 3).is_empty());
    }

    #[test]
    fn floodmin_worst_case_is_exactly_t_plus_one() {
        // Lemma 3.1's bound is tight: with all-distinct inputs the maximum
        // number of distinct decisions over ALL schedules is exactly t+1.
        let inputs: Vec<u64> = (0..5).collect();
        for t in 1..=2usize {
            let report = verify(QuorumProtocol::FloodMin, &inputs, t, &[], LIMIT).unwrap();
            assert_eq!(report.worst_agreement, t + 1, "t = {t}");
            // RV1 always holds (decisions are inputs).
            assert!(!report.violated_validities.contains(&ValidityCondition::RV1));
            assert!(report.satisfies(t + 1, ValidityCondition::RV1));
            assert!(!report.satisfies(t, ValidityCondition::RV1));
        }
    }

    #[test]
    fn floodmin_with_crashes_still_meets_the_bound() {
        let inputs: Vec<u64> = (0..6).collect();
        let report = verify(QuorumProtocol::FloodMin, &inputs, 2, &[1, 4], LIMIT).unwrap();
        assert!(report.worst_agreement <= 3);
        assert!(report.satisfies(3, ValidityCondition::RV1));
    }

    #[test]
    fn protocol_a_exhaustive_inside_and_at_the_boundary() {
        // n = 6, k = 2: solvable needs 2t < 6, i.e. t <= 2; t = 3 is the
        // open boundary point (k t = (k-1) n).
        let inputs = [1u64, 1, 1, 2, 2, 2];
        let inside = verify(QuorumProtocol::ProtocolA, &inputs, 2, &[], LIMIT).unwrap();
        assert!(inside.worst_agreement <= 2, "{inside:?}");
        assert!(inside.satisfies(2, ValidityCondition::RV2));

        let boundary = verify(QuorumProtocol::ProtocolA, &inputs, 3, &[], LIMIT).unwrap();
        // At the open point Protocol A itself fails SC(2): two disjoint
        // unanimous quorums plus the default give 3 distinct decisions.
        assert_eq!(boundary.worst_agreement, 3, "{boundary:?}");
    }

    #[test]
    fn protocol_a_rv2_never_violated_within_its_region() {
        // Unanimous inputs: RV2 binds; exhaustively no schedule breaks it.
        let inputs = [7u64; 6];
        let report = verify(QuorumProtocol::ProtocolA, &inputs, 2, &[0, 1], LIMIT).unwrap();
        assert_eq!(report.worst_agreement, 1);
        assert!(report.violated_validities.is_empty());
    }

    #[test]
    fn protocol_b_exhaustive_sv2_inside_its_region() {
        // n = 6, t = 1: 2kt < (k-1)n for k = 2 (4 < 6). All correct share 5.
        let inputs = [9u64, 5, 5, 5, 5, 5];
        let report = verify(QuorumProtocol::ProtocolB, &inputs, 1, &[0], LIMIT).unwrap();
        assert!(report.worst_agreement <= 2, "{report:?}");
        assert!(!report.violated_validities.contains(&ValidityCondition::SV2));
        assert!(report.satisfies(2, ValidityCondition::SV2));
    }

    #[test]
    fn protocol_b_collapse_outside_its_region() {
        // n = 4, t = 2 (n <= 2t): every process self-confirms; with all
        // distinct inputs the worst case is 4 distinct decisions.
        let inputs = [1u64, 2, 3, 4];
        let report = verify(QuorumProtocol::ProtocolB, &inputs, 2, &[], LIMIT).unwrap();
        assert_eq!(report.worst_agreement, 4);
    }

    #[test]
    fn protocol_e_worst_case_is_exactly_two_for_all_t() {
        // Lemma 4.5 exhaustively: no schedule yields more than {v, v0},
        // for every fault budget including t = n - 1, because the first
        // completed write is visible in every scan.
        let inputs = [0u64, 1, 0, 1, 2];
        for t in 1..5usize {
            let report = verify(QuorumProtocol::ProtocolE, &inputs, t, &[], LIMIT).unwrap();
            assert!(report.worst_agreement <= 2, "t = {t}: {report:?}");
            assert!(
                !report.violated_validities.contains(&ValidityCondition::RV2),
                "t = {t}"
            );
            assert!(report.satisfies(2, ValidityCondition::RV2), "t = {t}");
        }
        // And the bound is achieved (some schedule defaults while another
        // process sees the unanimous prefix).
        let report = verify(QuorumProtocol::ProtocolE, &inputs, 2, &[], LIMIT).unwrap();
        assert_eq!(report.worst_agreement, 2);
    }

    #[test]
    fn protocol_e_unanimous_inputs_decide_only_that_value() {
        let inputs = [6u64; 5];
        let report = verify(QuorumProtocol::ProtocolE, &inputs, 4, &[0], LIMIT).unwrap();
        assert_eq!(report.worst_agreement, 1);
        assert!(report.violated_validities.is_empty());
    }

    #[test]
    fn first_writer_constraint_is_what_caps_protocol_e() {
        // Without the first-writer constraint, two processes could each
        // see only their own (distinct) values and decide them — three
        // distinct decisions with the default. The model must NOT contain
        // that profile: every achievable pair of non-default decisions
        // shares the first writer's value.
        let inputs = [1u64, 2, 3];
        let report = verify(QuorumProtocol::ProtocolE, &inputs, 2, &[], LIMIT).unwrap();
        assert!(report.worst_agreement <= 2, "{report:?}");
    }

    #[test]
    fn protocol_f_worst_case_is_t_plus_2_inside_its_region() {
        // n = 6, t = 2 (2t < n): Lemma 4.7's counting argument caps the
        // distinct decisions at t + 2 (own values pinned to the first t+1
        // completed writes, plus the default).
        let inputs = [1u64, 2, 3, 4, 5, 6];
        let report = verify(QuorumProtocol::ProtocolF, &inputs, 2, &[], LIMIT).unwrap();
        assert!(report.worst_agreement <= 4, "{report:?}");
        assert!(report.satisfies(4, ValidityCondition::SV2));
    }

    #[test]
    fn protocol_f_collapses_in_the_frozen_majority_regime() {
        // n = 6, t = 3 (2t >= n, Lemma 4.3's region): a scan of size
        // n - t = 3 <= t hits the decide-own branch; with distinct inputs
        // every process can self-decide — n distinct decisions.
        let inputs = [1u64, 2, 3, 4, 5, 6];
        let report = verify(QuorumProtocol::ProtocolF, &inputs, 3, &[], LIMIT).unwrap();
        assert_eq!(report.worst_agreement, 6, "{report:?}");
    }

    #[test]
    fn protocol_f_sv2_never_violated() {
        // All correct share 7 (the crashed process deviates): SV2 holds in
        // every schedule.
        let inputs = [9u64, 7, 7, 7, 7, 7];
        let report = verify(QuorumProtocol::ProtocolF, &inputs, 1, &[0], LIMIT).unwrap();
        assert!(
            !report.violated_validities.contains(&ValidityCondition::SV2),
            "{report:?}"
        );
        assert_eq!(report.worst_agreement, 1);
    }

    #[test]
    fn enumeration_limit_is_respected() {
        let inputs: Vec<u64> = (0..9).collect();
        let err = verify(QuorumProtocol::FloodMin, &inputs, 4, &[], 1000).unwrap_err();
        assert!(err > 1000);
    }

    #[test]
    fn exhaustive_agrees_with_the_atlas_frontier() {
        use kset_regions::{classify, CellClass, Model};
        // Sweep t for FloodMin at n = 5, k = t + 1 vs k = t: exhaustive
        // worst-case agreement matches the atlas's solvable/impossible
        // split on the RV1 panel.
        let inputs: Vec<u64> = (0..5).collect();
        for t in 1..=2usize {
            let report = verify(QuorumProtocol::FloodMin, &inputs, t, &[], LIMIT).unwrap();
            let solvable_k = t + 1;
            assert!(report.satisfies(solvable_k, ValidityCondition::RV1));
            assert!(matches!(
                classify(Model::MpCrash, ValidityCondition::RV1, 5, solvable_k, t),
                CellClass::Solvable(_)
            ));
            if t >= 2 {
                let impossible_k = t;
                assert!(!report.satisfies(impossible_k, ValidityCondition::RV1));
                assert!(matches!(
                    classify(Model::MpCrash, ValidityCondition::RV1, 5, impossible_k, t),
                    CellClass::Impossible(_)
                ));
            }
        }
    }
}
