//! Regenerates Figure 3: the run construction of Lemma 3.3, as an
//! executable schedule with a per-process timeline.
//!
//! The paper's figure shows groups `g_1 .. g_k` isolated until they decide,
//! with `g_k` producing two decisions. This binary stages that exact run
//! against Protocol A just past its bound and renders the timeline: each
//! group communicates only internally until its members decide, then the
//! held messages flow.
//!
//! Usage: `fig3_construction` (no arguments; a fixed small scale for a
//! readable timeline).

use kset_core::cli::Args;
use kset_core::{ProblemSpec, RunRecord, ValidityCondition};
use kset_net::MpSystem;
use kset_protocols::ProtocolA;
use kset_sim::DelayRule;

fn main() {
    Args::new("fig3_construction").finish();
    // n = 6, t = 4, k = 2: k t = 8 > (k-1) n = 6 — inside Lemma 3.3's
    // impossible region. Three isolated unanimous pairs stand in for the
    // paper's groups (its g_k produces two values from an embedded
    // consensus-impossibility run; disjoint unanimous groups yield the same
    // k+1 decisions with a fully deterministic staging).
    let (n, k, t) = (6usize, 2usize, 4usize);
    let inputs = [1u64, 1, 2, 2, 3, 3];
    let groups = [vec![0usize, 1], vec![2, 3], vec![4, 5]];

    println!("=== Figure 3: the run of Lemma 3.3, executed ===\n");
    println!("SC(k={k}, t={t}, WV2) over n={n}; quorum n-t = {}", n - t);
    println!("inputs: {inputs:?}");
    for (i, g) in groups.iter().enumerate() {
        println!(
            "g{}: processes {:?}, unanimous on {}, isolated until it decides",
            i + 1,
            g,
            inputs[g[0]]
        );
    }

    let outcome = MpSystem::new(n)
        .seed(0)
        .trace_capacity(100_000)
        .delay_rules(groups.iter().cloned().map(DelayRule::isolate_until_decided))
        .run_with(|p| ProtocolA::boxed(n, t, inputs[p], u64::MAX))
        .expect("staged run completes");

    println!("\ntimeline (d<pX = delivery from pX; the partition phase is visible");
    println!("as purely intra-group deliveries until every pair decides):\n");
    print!("{}", outcome.trace.render_timeline(n));

    println!("\ndecisions:");
    for (p, v) in &outcome.decisions {
        println!("  p{p} decided {v}");
    }
    let spec = ProblemSpec::new(n, k, t, ValidityCondition::WV2).expect("valid spec");
    let record = RunRecord::new(inputs.to_vec())
        .with_decisions(outcome.decisions.clone())
        .with_terminated(outcome.terminated);
    let report = spec.check(&record);
    println!("\nchecker: {report}");
    assert!(
        report.has_agreement_violation(),
        "the construction must violate agreement"
    );
    println!(
        "\n{} distinct values decided against k = {k}: the Lemma 3.3 run, realized",
        record.correct_decision_set().len()
    );
}
