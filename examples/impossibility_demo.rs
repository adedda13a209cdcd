//! Watch an impossibility proof happen: the partition run of Lemma 3.3
//! (the paper's Fig. 3), staged live against Protocol A.
//!
//! Three pairs of processes, each unanimous on a different value, each
//! isolated from the rest until it decides. Every pair reaches its quorum
//! of `n - t = 2` internally, sees a unanimous sample, and decides — three
//! distinct values against `SC(2, 4, WV2)`.
//!
//! ```sh
//! cargo run --example impossibility_demo
//! ```

use kset::core::{ProblemSpec, RunRecord, ValidityCondition};
use kset::net::MpSystem;
use kset::protocols::ProtocolA;
use kset::sim::DelayRule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, k, t) = (6, 2, 4);
    let inputs = [1u64, 1, 2, 2, 3, 3];
    println!("Protocol A at SC(k={k}, t={t}, WV2), n={n} — past Lemma 3.3's bound");
    println!("(k·t = {} > (k-1)·n = {})", k * t, (k - 1) * n);
    println!("inputs: {inputs:?}");
    println!("schedule: isolate {{0,1}}, {{2,3}}, {{4,5}} until each pair decides\n");

    let outcome = MpSystem::new(n)
        .seed(0)
        .trace_capacity(512)
        .delay_rule(DelayRule::isolate_until_decided(vec![0, 1]))
        .delay_rule(DelayRule::isolate_until_decided(vec![2, 3]))
        .delay_rule(DelayRule::isolate_until_decided(vec![4, 5]))
        .run_with(|p| ProtocolA::boxed(n, t, inputs[p], u64::MAX))?;

    for (p, v) in &outcome.decisions {
        println!("  p{p} decided {v}");
    }
    let set = outcome.correct_decision_set();
    println!("\ndistinct decisions: {set:?} — agreement allows only {k}");

    let spec = ProblemSpec::new(n, k, t, ValidityCondition::WV2)?;
    let record = RunRecord::new(inputs.to_vec())
        .with_decisions(outcome.decisions.clone())
        .with_terminated(outcome.terminated);
    let report = spec.check(&record);
    println!("checker: {report}");
    assert!(report.has_agreement_violation());

    println!("\nrun timeline (per-process lanes; d<pX = delivery from pX):\n");
    print!("{}", outcome.trace.render_timeline(n));
    println!(
        "\n(the full set of re-enactments: cargo run -p kset-experiments --bin counterexamples)"
    );
    Ok(())
}
