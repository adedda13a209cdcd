//! The case runner: seeded case generation, greedy tape shrinking, and
//! the replay-seed failure contract.
//!
//! A property is a closure `Fn(Value) -> CaseResult`. The runner derives
//! a stable base seed from the property name, draws `cases` case seeds
//! from it, generates one value per case, and evaluates the property.
//! On the first failure it greedily shrinks the recorded choice tape
//! (block deletions, then per-choice value reductions) and panics with
//! the minimal case, the error, and a `KSET_PROP_SEED=<seed>` line;
//! exporting that variable re-runs exactly that case — generation and
//! shrinking are deterministic, so the replay reaches the identical
//! minimal case.

use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::gen::Gen;
use crate::rng::{fnv64, SplitMix64};
use crate::source::Source;

/// Environment variable holding a decimal case seed to replay.
///
/// The seed applies to every [`Runner`] in the process, so combine it
/// with a test filter: `KSET_PROP_SEED=123 cargo test my_property`.
pub const SEED_ENV: &str = "KSET_PROP_SEED";

/// Why a property case did not pass: a real failure, or a rejected
/// (assumption-violating) case that the runner discards.
#[derive(Debug, Clone)]
pub struct Failed {
    message: String,
    rejected: bool,
}

impl Failed {
    /// A genuine assertion failure carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            rejected: false,
        }
    }

    /// A discarded case (see the `prop_assume!` macro).
    pub fn rejected() -> Self {
        Self {
            message: String::new(),
            rejected: true,
        }
    }
}

/// What a property returns per case. Build `Err` values with the
/// `prop_assert!`/`prop_assert_eq!`/`prop_assume!` macros.
pub type CaseResult = Result<(), Failed>;

// Suppress the default panic hook while the runner probes a case, so
// shrinking a panicking property does not spam hundreds of backtraces.
// The hook chains to the previous one for panics outside the harness
// (the flag is thread-local, so parallel non-harness tests still
// report normally).
thread_local! {
    static PROBING: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !PROBING.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// A configured property run; see the crate docs for the full contract.
#[derive(Debug)]
pub struct Runner {
    name: String,
    cases: u32,
    shrink_budget: u32,
}

/// Outcome of probing one candidate tape.
enum Probe {
    Pass,
    Reject,
    /// Still failing: the consumed tape prefix and the failure message.
    Fail(Vec<u64>, String),
}

impl Runner {
    /// A runner for the property called `name` (use the test function's
    /// name: it seeds the deterministic case stream and is printed in
    /// failure reports). Defaults: 256 cases, shrink budget 4096.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cases: 256,
            shrink_budget: 4096,
        }
    }

    /// Number of cases to run (each case draws a fresh seeded value).
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Cap on shrink probes after a failure (the minimal case is only
    /// as minimal as this budget allows; the default is plenty for
    /// tapes of a few hundred choices).
    pub fn shrink_budget(mut self, budget: u32) -> Self {
        self.shrink_budget = budget;
        self
    }

    /// Run the property, panicking on the first (shrunk) failure.
    ///
    /// Honors [`SEED_ENV`]: when set, only that single case seed is
    /// generated, evaluated, and (if failing) shrunk — reproducing a
    /// previously reported failure byte-for-byte.
    pub fn run<G, P>(&self, gen: G, prop: P)
    where
        G: Gen,
        G::Value: Debug,
        P: Fn(G::Value) -> CaseResult,
    {
        install_quiet_hook();
        if let Ok(raw) = std::env::var(SEED_ENV) {
            let seed: u64 = raw.trim().parse().unwrap_or_else(|_| {
                panic!("[kset-prop] {SEED_ENV}={raw:?} is not a decimal u64 seed")
            });
            match self.probe_seed(&gen, &prop, seed) {
                Probe::Pass => eprintln!(
                    "[kset-prop] property '{}': {SEED_ENV}={seed} replay passed",
                    self.name
                ),
                Probe::Reject => eprintln!(
                    "[kset-prop] property '{}': {SEED_ENV}={seed} replay was rejected by prop_assume!",
                    self.name
                ),
                Probe::Fail(tape, message) => {
                    let header = format!("failed under {SEED_ENV}={seed} replay");
                    self.report(&gen, &prop, tape, message, seed, &header);
                }
            }
            return;
        }

        let mut seeds = SplitMix64::new(fnv64(self.name.as_bytes()));
        let mut rejected = 0u32;
        for case in 0..self.cases {
            let seed = seeds.next_u64();
            match self.probe_seed(&gen, &prop, seed) {
                Probe::Pass => {}
                Probe::Reject => rejected += 1,
                Probe::Fail(tape, message) => {
                    let header = format!("failed at case {}/{}", case + 1, self.cases);
                    self.report(&gen, &prop, tape, message, seed, &header);
                }
            }
        }
        if rejected == self.cases && self.cases > 0 {
            eprintln!(
                "[kset-prop] property '{}': all {} cases were rejected by prop_assume! — \
                 the property asserted nothing",
                self.name, rejected
            );
        }
    }

    /// Generate and evaluate the case drawn from `seed`.
    fn probe_seed<G, P>(&self, gen: &G, prop: &P, seed: u64) -> Probe
    where
        G: Gen,
        P: Fn(G::Value) -> CaseResult,
    {
        probe(gen, prop, &mut Source::record(seed))
    }

    /// Shrink the failing tape, then panic with the final report.
    fn report<G, P>(
        &self,
        gen: &G,
        prop: &P,
        tape: Vec<u64>,
        message: String,
        seed: u64,
        header: &str,
    ) -> !
    where
        G: Gen,
        G::Value: Debug,
        P: Fn(G::Value) -> CaseResult,
    {
        let (tape, message, steps, probes) = shrink(gen, prop, tape, message, self.shrink_budget);
        // Regenerate the minimal value for display; replay is exact.
        let value = gen.generate(&mut Source::replay(tape));
        panic!(
            "[kset-prop] property '{name}' {header}.\n  \
             minimal case: {value:?}\n  \
             error: {message}\n  \
             shrunk: {steps} step(s), {probes} probe(s)\n  \
             replay: {SEED_ENV}={seed} reruns exactly this case \
             (e.g. `{SEED_ENV}={seed} cargo test {name}`)",
            name = self.name,
        );
    }
}

/// Replay `src` through the generator and property, catching panics so
/// a panicking property shrinks like an `Err`-returning one.
fn probe<G, P>(gen: &G, prop: &P, src: &mut Source) -> Probe
where
    G: Gen,
    P: Fn(G::Value) -> CaseResult,
{
    PROBING.with(|p| p.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(gen.generate(src))));
    PROBING.with(|p| p.set(false));
    match outcome {
        Ok(Ok(())) => Probe::Pass,
        Ok(Err(f)) if f.rejected => Probe::Reject,
        Ok(Err(f)) => Probe::Fail(src.consumed().to_vec(), f.message),
        Err(payload) => Probe::Fail(src.consumed().to_vec(), panic_message(payload)),
    }
}

/// Greedy tape shrinking: repeat (block deletions of sizes 8/4/2/1,
/// then per-choice reductions toward zero) until a fixpoint or the
/// probe budget runs out. Every accepted candidate strictly shortens
/// the tape or lowers one choice, so the loop terminates.
fn shrink<G, P>(
    gen: &G,
    prop: &P,
    mut tape: Vec<u64>,
    mut message: String,
    budget: u32,
) -> (Vec<u64>, String, u32, u32)
where
    G: Gen,
    P: Fn(G::Value) -> CaseResult,
{
    let mut steps = 0u32;
    let mut probes = 0u32;
    let try_accept = |tape: &mut Vec<u64>,
                      message: &mut String,
                      steps: &mut u32,
                      probes: &mut u32,
                      cand: Vec<u64>|
     -> bool {
        *probes += 1;
        match probe(gen, prop, &mut Source::replay(cand)) {
            Probe::Fail(consumed, msg) => {
                *tape = consumed;
                *message = msg;
                *steps += 1;
                true
            }
            _ => false,
        }
    };

    'passes: loop {
        let mut improved = false;
        // Block deletions: drop `size` consecutive choices. Padding
        // zeros past the tape end means deletion simplifies whatever
        // structure those choices were feeding.
        for size in [8usize, 4, 2, 1] {
            let mut i = 0;
            while i + size <= tape.len() {
                if probes >= budget {
                    break 'passes;
                }
                let mut cand = tape[..i].to_vec();
                cand.extend_from_slice(&tape[i + size..]);
                if try_accept(&mut tape, &mut message, &mut steps, &mut probes, cand) {
                    improved = true; // same i: the next block shifted into place
                } else {
                    i += 1;
                }
            }
        }
        // Per-choice value reductions: zero, halve, decrement.
        let mut i = 0;
        while i < tape.len() {
            loop {
                if probes >= budget {
                    break 'passes;
                }
                let v = tape[i];
                let mut lowered = false;
                for cand_v in [0, v / 2, v.saturating_sub(1)] {
                    if cand_v >= v {
                        continue;
                    }
                    let mut cand = tape.clone();
                    cand[i] = cand_v;
                    if try_accept(&mut tape, &mut message, &mut steps, &mut probes, cand) {
                        improved = true;
                        lowered = true;
                        break;
                    }
                }
                if !lowered || i >= tape.len() {
                    break;
                }
            }
            i += 1;
        }
        if !improved {
            break;
        }
    }
    (tape, message, steps, probes)
}
