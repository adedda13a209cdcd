//! Boundary exploration: hunt for violating schedules just *outside* the
//! proven regions.
//!
//! Empirical validation (see [`crate::cells`]) shows the protocols clean
//! inside their regions; this module provides the complementary evidence
//! that the bounds are *tight* in practice. For a cell classified
//! impossible (or open), [`probe_cell`] runs the panel's protocol anyway —
//! configured for the probed `t` — across seeds that include the
//! partition- and freeze-style schedules of the impossibility proofs, and
//! counts how many runs violate `SC(k, t, C)`.
//!
//! A violation found is a *certificate of failure* for that protocol at
//! that cell (with the schedule reproducible from its seed). Finding none
//! proves nothing — impossibility proofs quantify over all protocols — but
//! across the frontier the counts paint the picture: clean inside,
//! violations immediately outside.

use std::ops::Range;

use kset_adversary::plans;
use kset_core::{ProblemSpec, ValidityCondition};
use kset_regions::{classify, CellClass, Model};
use kset_sim::{DelayRule, MetricsConfig, SimError, Until};

use crate::cells::{atlas_cells, sample, sweep, RunSetup};
use crate::record_sink::RunRecord;

/// Result of probing one non-solvable cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BoundaryProbe {
    /// Model of the probed cell.
    pub model: Model,
    /// Validity condition.
    pub validity: ValidityCondition,
    /// System size.
    pub n: usize,
    /// Agreement bound.
    pub k: usize,
    /// Fault budget.
    pub t: usize,
    /// Classification of the cell (never `Solvable`).
    pub class: &'static str,
    /// Protocol that was thrown at the cell.
    pub protocol: &'static str,
    /// Total runs.
    pub runs: usize,
    /// Runs violating the specification.
    pub violations: usize,
    /// Seed of the first violating run, for replay.
    pub first_violating_seed: Option<u64>,
}

/// Which protocol to throw at a non-solvable cell of each panel.
fn panel_protocol(model: Model, validity: ValidityCondition) -> Option<&'static str> {
    use ValidityCondition as VC;
    Some(match (model.is_shared_memory(), validity) {
        (false, VC::RV1 | VC::WV1 | VC::SV1) => "FloodMin",
        (false, VC::RV2 | VC::WV2) => "Protocol A",
        (false, VC::SV2) => "Protocol B",
        (true, VC::RV2 | VC::WV2) => "Protocol E",
        (true, VC::SV2) => "Protocol F",
        // SM RV1/WV1/SV1 probing would need SIM runs; the MP probes
        // already cover those validities' frontiers.
        (true, _) => return None,
    })
}

/// Partition schedule used by the probes: `groups` isolated groups, each
/// allowed to hear the (crash-faulty are silent anyway) first `t` slots.
fn probe_rules_mp(n: usize, groups: usize) -> Vec<DelayRule> {
    (0..groups)
        .map(|g| {
            let members: Vec<usize> = (0..n).filter(|p| p % groups == g).collect();
            DelayRule::isolate_until_decided(members)
        })
        .collect()
}

fn probe_rules_sm(n: usize, active: usize) -> Vec<DelayRule> {
    let first: Vec<usize> = (0..active.min(n)).collect();
    (active.min(n)..n)
        .map(|p| DelayRule::freeze_process(p, Until::AllDecided(first.clone())).expires_at(5_000))
        .collect()
}

/// Probes one cell with `seeds` runs. Returns `None` for solvable cells
/// (probe the frontier, not the interior) and for panels without a probe
/// protocol.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn probe_cell(
    model: Model,
    validity: ValidityCondition,
    n: usize,
    k: usize,
    t: usize,
    seeds: Range<u64>,
) -> Result<Option<BoundaryProbe>, SimError> {
    probe_cell_with(
        model,
        validity,
        n,
        k,
        t,
        seeds,
        MetricsConfig::disabled(),
        |_| {},
    )
}

/// [`probe_cell`] with per-run observability: collects kernel metrics
/// according to `metrics` and hands every run to `on_record` as a
/// [`RunRecord`] (in seed order).
///
/// # Errors
///
/// See [`probe_cell`].
#[allow(clippy::too_many_arguments)]
pub fn probe_cell_with(
    model: Model,
    validity: ValidityCondition,
    n: usize,
    k: usize,
    t: usize,
    seeds: Range<u64>,
    metrics: MetricsConfig,
    on_record: impl FnMut(RunRecord),
) -> Result<Option<BoundaryProbe>, SimError> {
    let class = match classify(model, validity, n, k, t) {
        CellClass::Solvable(_) => return Ok(None),
        CellClass::Impossible(_) => "impossible",
        CellClass::Open => "open",
    };
    let Some(protocol) = panel_protocol(model, validity) else {
        return Ok(None);
    };
    // Quorum-waiting protocols need t < n to be instantiable at all; the
    // t = n column is vacuous to probe (every process may be faulty).
    if t >= n && protocol != "Protocol E" {
        return Ok(None);
    }
    let spec = ProblemSpec::new(n, k, t, validity).expect("domain-checked");
    let setup = |seed| {
        // The Lemma 3.3 shape: a few groups, each internally unanimous, so
        // that an isolating schedule can push each group to its own value.
        let groups = ((k + 1) + (seed as usize % 2)).clamp(2, n);
        let rules = match protocol {
            "Protocol E" => probe_rules_sm(n, t.min(n - 1).max(1)),
            "Protocol F" => probe_rules_sm(n, (t + 1).min(n)),
            _ => probe_rules_mp(n, groups),
        };
        RunSetup {
            inputs: (0..n).map(|p| (p % groups) as u64).collect(),
            plan: plans::all_correct(n),
            rules,
        }
    };
    let tally = sample(model, &spec, protocol, seeds, metrics, setup, on_record)?;
    Ok(Some(BoundaryProbe {
        model,
        validity,
        n,
        k,
        t,
        class,
        protocol,
        runs: tally.runs,
        violations: tally.violations,
        first_violating_seed: tally.first_violation.map(|(seed, _)| seed),
    }))
}

/// Whether `boundary_scan` probes the cell: a non-solvable cell within
/// two steps of `t` of the solvable region.
fn near_frontier(model: Model, validity: ValidityCondition, n: usize, k: usize, t: usize) -> bool {
    let solvable = |t| matches!(classify(model, validity, n, k, t), CellClass::Solvable(_));
    !solvable(t) && (t == 1 || solvable(t - 1) || (t >= 2 && solvable(t - 2)))
}

/// Probes every frontier cell of the four atlases at `n` with `seeds`
/// runs each (the sweep of `boundary_scan`): the probes and every run's
/// record, in cell order, on `threads` workers.
///
/// # Panics
///
/// On a simulator failure, naming the cell.
pub fn probe_frontier(
    n: usize,
    seeds: u64,
    metrics: MetricsConfig,
    threads: usize,
) -> (Vec<BoundaryProbe>, Vec<RunRecord>) {
    let frontier = atlas_cells(n)
        .filter(|&(model, validity, k, t)| near_frontier(model, validity, n, k, t))
        .collect();
    sweep(threads, frontier, |(model, validity, k, t), records| {
        probe_cell_with(model, validity, n, k, t, 0..seeds, metrics, |r| {
            records.push(r)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solvable_cells_are_not_probed() {
        let p = probe_cell(Model::MpCrash, ValidityCondition::RV1, 8, 4, 3, 0..2).unwrap();
        assert!(p.is_none());
    }

    #[test]
    fn floodmin_breaks_just_past_t_equals_k() {
        // RV1 at t = k: the partition schedules find agreement violations.
        let p = probe_cell(Model::MpCrash, ValidityCondition::RV1, 8, 2, 4, 0..12)
            .unwrap()
            .expect("impossible cell");
        assert_eq!(p.class, "impossible");
        assert!(
            p.violations > 0,
            "expected FloodMin to break past its bound"
        );
        assert!(p.first_violating_seed.is_some());
    }

    #[test]
    fn protocol_a_breaks_past_lemma_3_3() {
        // n = 8, k = 2: impossible for kt > (k-1)n, i.e. t > 4.
        let p = probe_cell(Model::MpCrash, ValidityCondition::RV2, 8, 2, 6, 0..12)
            .unwrap()
            .expect("impossible cell");
        assert!(p.violations > 0, "{p:?}");
    }

    #[test]
    fn protocol_f_breaks_in_the_frozen_majority_regime() {
        // n = 8, t = 4 >= n/2, k = 3 <= t: Lemma 4.3 region.
        let p = probe_cell(Model::SmCrash, ValidityCondition::SV2, 8, 3, 4, 0..12)
            .unwrap()
            .expect("impossible cell");
        assert!(p.violations > 0, "{p:?}");
    }

    #[test]
    fn protocol_e_never_breaks_because_its_region_is_total() {
        // SM RV2 has no non-solvable cells in-domain; nothing to probe.
        for t in 1..=8 {
            let p = probe_cell(Model::SmCrash, ValidityCondition::RV2, 8, 2, t, 0..2).unwrap();
            assert!(p.is_none(), "t={t}");
        }
    }
}
