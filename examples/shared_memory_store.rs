//! The shared-memory side of the paper: coordination through a replicated
//! register service that survives *any* number of client crashes.
//!
//! Scenario: 8 worker processes race to agree which of two snapshot ids to
//! garbage-collect. With message passing this needs a quorum of live
//! workers; with SWMR registers, Protocol E gives `SC(2, t, RV2)` for
//! **every** `t` — here all but one worker may crash (`t = 7`), far past
//! the `t < k` wall of the message-passing world (Lemma 4.5 vs Lemma 3.2).
//!
//! Protocol F is then shown on the same memory for the stronger SV2
//! condition with `k > t + 1` (Lemma 4.7).
//!
//! ```sh
//! cargo run --example shared_memory_store
//! ```

use kset::core::{ProblemSpec, RunRecord, ValidityCondition};
use kset::protocols::{ProtocolE, ProtocolF};
use kset::shmem::SmSystem;
use kset::sim::FaultPlan;

const NO_GC: u64 = u64::MAX; // default decision: collect nothing this round

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 8;

    // --- Protocol E: k = 2, t = 7 (all but one may crash) ---------------
    let t = n - 1;
    let inputs: Vec<u64> = (0..n).map(|p| if p < 5 { 101 } else { 202 }).collect();
    println!("Protocol E, SC(2, {t}, RV2): inputs {inputs:?}");
    let outcome = SmSystem::new(n)
        .seed(99)
        .fault_plan(FaultPlan::silent_crashes(n, &[0, 2, 3, 5, 6, 7]))
        .run_with(|p| ProtocolE::boxed(n, t, inputs[p], NO_GC))?;
    println!(
        "  six of eight workers crashed; survivors decided {:?}",
        outcome.correct_decision_set()
    );
    let spec = ProblemSpec::new(n, 2, t, ValidityCondition::RV2)?;
    let record = RunRecord::new(inputs)
        .with_faulty(outcome.faulty.iter().copied())
        .with_decisions(outcome.decisions.clone())
        .with_terminated(outcome.terminated);
    assert!(spec.check(&record).is_ok());
    println!("  checker: ok (at most 2 values, registers never fail)\n");

    // --- Protocol F: SV2 with k > t + 1 ---------------------------------
    let t = 2;
    let k = 4;
    let inputs: Vec<u64> = vec![300; n]; // all correct workers agree
    println!(
        "Protocol F, SC({k}, {t}, SV2): unanimous correct inputs {}",
        300
    );
    let outcome = SmSystem::new(n)
        .seed(100)
        .fault_plan(FaultPlan::silent_crashes(n, &[1, 4]))
        .run_with(|p| ProtocolF::boxed(n, t, inputs[p], NO_GC))?;
    println!(
        "  decisions: {:?} — SV2 forces the unanimous value",
        outcome.correct_decision_set()
    );
    let spec = ProblemSpec::new(n, k, t, ValidityCondition::SV2)?;
    let record = RunRecord::new(inputs)
        .with_faulty(outcome.faulty.iter().copied())
        .with_decisions(outcome.decisions.clone())
        .with_terminated(outcome.terminated);
    assert!(spec.check(&record).is_ok());
    println!("  checker: ok");

    // Final memory state is inspectable.
    println!("\nfinal register contents:");
    for (reg, val) in &outcome.memory {
        println!("  {reg} = {val}");
    }
    Ok(())
}
