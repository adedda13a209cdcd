//! In-place process copies are indistinguishable from `fork()`.
//!
//! The forking executor copies each process into a box it already owns
//! ([`MpProcess::fork_into`], [`SmProcess::fork_into`]) instead of boxing
//! a fresh [`MpProcess::fork`] clone. For each of the five forkable
//! protocols this suite drives a process through a random event prefix,
//! then copies it three ways: `fork()`, `fork_into` a box of the same type
//! holding another state (which must keep its box), and `fork_into` a box
//! of a different type (which must fall back to a fresh box). All three
//! copies must digest like the original and answer a random continuation
//! of events with the same actions.

use kset_prop::{in_range, prop_assert, prop_assert_eq, vec_in, CaseResult, Runner};

use kset::net::{DynMpProcess, MpContext, MpProcess, RawAction};
use kset::protocols::{FloodMin, ProtocolA, ProtocolB, ProtocolE, ProtocolF};
use kset::shmem::{DynSmProcess, RawSmAction, RegisterId, SmContext, SmProcess};

const N: usize = 3;
const T: usize = 1;
const DEFAULT: u64 = u64::MAX;

type Mp = DynMpProcess<u64, u64>;
type Sm = DynSmProcess<u64, u64>;

/// The heap address a process box points at.
fn address<P: ?Sized>(boxed: &P) -> usize {
    boxed as *const P as *const u8 as usize
}

/// Starts `p` as process 0 when `start` is set, then delivers one message
/// per code (sender `code % N`, value `code / N % 3`); returns the actions
/// of every callback.
fn drive_mp(p: &mut Mp, start: bool, codes: &[u64]) -> Vec<String> {
    let mut log = Vec::new();
    let mut buf: Vec<RawAction<u64, u64>> = Vec::new();
    if start {
        p.on_start(&mut MpContext::new(0, N, 0, false, &mut buf));
        log.push(format!("{buf:?}"));
    }
    for &code in codes {
        buf.clear();
        let (from, value) = ((code % N as u64) as usize, code / N as u64 % 3);
        p.on_message(from, value, &mut MpContext::new(0, N, 0, false, &mut buf));
        log.push(format!("{buf:?}"));
    }
    log
}

/// A shared-memory operation of process 0 awaiting its response.
#[derive(Clone, Debug)]
enum Op {
    Read(RegisterId),
    Ack(usize),
}

/// Queues the responses `actions` await.
fn issue(pending: &mut Vec<Op>, actions: &[RawSmAction<u64, u64>]) {
    for action in actions {
        match action {
            RawSmAction::Read(reg) => pending.push(Op::Read(*reg)),
            RawSmAction::Write(slot, _) => pending.push(Op::Ack(*slot)),
            RawSmAction::Decide(_) | RawSmAction::ScheduleStep => {}
        }
    }
}

/// Starts `p` as process 0 when `start` is set, then answers one pending
/// operation per code (operation `code % pending`, read value `⊥`, `0` or
/// `1`) until none is pending; returns the actions of every callback.
fn drive_sm(p: &mut Sm, pending: &mut Vec<Op>, start: bool, codes: &[u64]) -> Vec<String> {
    let mut log = Vec::new();
    let mut buf: Vec<RawSmAction<u64, u64>> = Vec::new();
    if start {
        p.on_start(&mut SmContext::new(0, N, 0, false, &mut buf));
        log.push(format!("{buf:?}"));
        issue(pending, &buf);
    }
    for &code in codes {
        if pending.is_empty() {
            break;
        }
        buf.clear();
        let op = pending.remove((code % pending.len() as u64) as usize);
        let mut ctx = SmContext::new(0, N, 0, false, &mut buf);
        match op {
            Op::Read(reg) => {
                let value = (code / 8 % 3).checked_sub(1);
                p.on_read(reg, value, &mut ctx);
            }
            Op::Ack(slot) => p.on_write_ack(slot, &mut ctx),
        }
        log.push(format!("{buf:?}"));
        issue(pending, &buf);
    }
    log
}

/// Copies a message-passing process, driven by `prefix`, the three ways
/// and checks each copy against the original on `next`.
fn mp_parity(make: fn(u64) -> Mp, unlike: fn() -> Mp, prefix: &[u64], next: &[u64]) -> CaseResult {
    let mut original = make(1);
    drive_mp(&mut original, true, prefix);
    let forked = original.fork().expect("forkable protocol");
    let mut same = make(2);
    drive_mp(&mut same, true, next);
    let kept = address(&*same);
    prop_assert!(original.fork_into(&mut same));
    prop_assert_eq!(address(&*same), kept, "the same-type box was replaced");
    let mut other = unlike();
    prop_assert!(original.fork_into(&mut other));

    let digest = original.state_digest();
    let expected = drive_mp(&mut original, false, next);
    for (label, mut copy) in [("fork", forked), ("same type", same), ("other type", other)] {
        prop_assert_eq!(copy.state_digest(), digest, "{label} copy digest");
        prop_assert_eq!(
            drive_mp(&mut copy, false, next),
            expected,
            "{label} copy actions"
        );
        prop_assert_eq!(
            copy.state_digest(),
            original.state_digest(),
            "{label} copy after"
        );
    }
    Ok(())
}

/// [`mp_parity`] for a shared-memory process; every copy answers the same
/// pending operations.
fn sm_parity(make: fn(u64) -> Sm, unlike: fn() -> Sm, prefix: &[u64], next: &[u64]) -> CaseResult {
    let mut pending = Vec::new();
    let mut original = make(1);
    drive_sm(&mut original, &mut pending, true, prefix);
    let forked = original.fork().expect("forkable protocol");
    let mut same = make(2);
    drive_sm(&mut same, &mut Vec::new(), true, next);
    let kept = address(&*same);
    prop_assert!(original.fork_into(&mut same));
    prop_assert_eq!(address(&*same), kept, "the same-type box was replaced");
    let mut other = unlike();
    prop_assert!(original.fork_into(&mut other));

    let digest = original.state_digest();
    let expected = drive_sm(&mut original, &mut pending.clone(), false, next);
    for (label, mut copy) in [("fork", forked), ("same type", same), ("other type", other)] {
        prop_assert_eq!(copy.state_digest(), digest, "{label} copy digest");
        let actions = drive_sm(&mut copy, &mut pending.clone(), false, next);
        prop_assert_eq!(actions, expected, "{label} copy actions");
        prop_assert_eq!(
            copy.state_digest(),
            original.state_digest(),
            "{label} copy after"
        );
    }
    Ok(())
}

fn mp_case(name: &str, make: fn(u64) -> Mp, unlike: fn() -> Mp) {
    Runner::new(name).cases(64).run(
        (
            vec_in(in_range(0u64..64), 0..8),
            vec_in(in_range(0u64..64), 1..8),
        ),
        |(prefix, next)| mp_parity(make, unlike, &prefix, &next),
    );
}

fn sm_case(name: &str, make: fn(u64) -> Sm, unlike: fn() -> Sm) {
    Runner::new(name).cases(64).run(
        (
            vec_in(in_range(0u64..64), 0..8),
            vec_in(in_range(0u64..64), 1..8),
        ),
        |(prefix, next)| sm_parity(make, unlike, &prefix, &next),
    );
}

#[test]
fn floodmin_copies_in_place() {
    mp_case(
        "floodmin_copies_in_place",
        |input| FloodMin::boxed(N, T, input),
        || ProtocolA::boxed(N, T, 0, DEFAULT),
    );
}

#[test]
fn protocol_a_copies_in_place() {
    mp_case(
        "protocol_a_copies_in_place",
        |input| ProtocolA::boxed(N, T, input, DEFAULT),
        || FloodMin::boxed(N, T, 0),
    );
}

#[test]
fn protocol_b_copies_in_place() {
    mp_case(
        "protocol_b_copies_in_place",
        |input| ProtocolB::boxed(N, T, input, DEFAULT),
        || FloodMin::boxed(N, T, 0),
    );
}

#[test]
fn protocol_e_copies_in_place() {
    sm_case(
        "protocol_e_copies_in_place",
        |input| ProtocolE::boxed(N, T, input, DEFAULT),
        || ProtocolF::boxed(N, T, 0, DEFAULT),
    );
}

#[test]
fn protocol_f_copies_in_place() {
    sm_case(
        "protocol_f_copies_in_place",
        |input| ProtocolF::boxed(N, T, input, DEFAULT),
        || ProtocolE::boxed(N, T, 0, DEFAULT),
    );
}
