//! The run-to-completion drivers: every classic `run_*` entry point on
//! [`System`], each a thin loop over [`Session::step`].
//!
//! One generic [`drive`] function owns the loop; the entry points differ
//! only in which delivery discipline, digest observer, and arena they
//! build the [`Session`] with, and in how much of the
//! (outcome, digests, shared) triple they hand back. A server that wants
//! to interleave many runs skips this layer entirely and steps sessions
//! itself — see [`System::session`].

use crate::arena::RunArena;
use crate::digest::StateDigest;
use crate::error::SimError;
use crate::event::ProcessId;
use crate::outcome::Outcome;
use crate::session::{
    observe_incremental, observe_reference, Delivery, DeviantDelivery, DigestEngine,
    FaithfulDelivery, Session,
};
use crate::substrate::{Substrate, SubstrateAdv, SubstrateDigest};
use crate::System;

/// Everything [`System::run_digested_in`] returns: the outcome, the
/// per-event [`StateDigest`] sequence, and the substrate's final shared
/// state (e.g. the register store).
pub type DigestedRun<S> = (
    Outcome<<S as Substrate>::Output>,
    Vec<u64>,
    <S as Substrate>::Shared,
);

/// Steps `session` until the run is over, then tears it down into the
/// (outcome, digest chain, shared state) triple via `arena`. On error the
/// session's recyclable digest buffers go back to the arena (the kernel's
/// pool buffers are lost with the kernel — only their capacity mattered).
fn drive<S: Substrate, D: Delivery<S>>(
    mut session: Session<S, D>,
    arena: &mut RunArena,
) -> Result<DigestedRun<S>, SimError> {
    loop {
        match session.step() {
            Ok(crate::Poll::Pending) => {}
            Ok(crate::Poll::Decided | crate::Poll::Idle) => break,
            Err(e) => {
                session.abandon_into(arena);
                return Err(e);
            }
        }
    }
    Ok(session.finish_into(arena))
}

impl System {
    /// Builds a steppable [`Session`] over substrate `S` under delivery
    /// discipline `D`, no digesting: the incremental form of
    /// [`System::run`] (`D` = [`FaithfulDelivery`]) or of
    /// [`System::run_adv`] (`D` = [`DeviantDelivery`]). Drive it with
    /// [`Session::step`] and collect the result with [`Session::finish`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if `procs.len()` or the fault plan size
    /// differ from `n`, or `n == 0`.
    pub fn session<S: Substrate, D: Delivery<S>>(
        self,
        procs: Vec<S::Process>,
    ) -> Result<Session<S, D>, SimError> {
        let config = self.into_config(procs.len())?;
        let mode = config.digest_mode;
        let mut arena = RunArena::new();
        Ok(Session::build(
            config,
            procs,
            &mut arena,
            None,
            None,
            DigestEngine::new(mode, None),
        ))
    }

    /// Runs the system, building each process from a factory closure.
    ///
    /// # Errors
    ///
    /// See [`System::run`].
    pub fn run_with<S: Substrate, F: FnMut(ProcessId) -> S::Process>(
        self,
        mut factory: F,
    ) -> Result<Outcome<S::Output>, SimError> {
        let procs = (0..self.n).map(&mut factory).collect();
        self.run::<S>(procs)
    }

    /// Runs the system to completion.
    ///
    /// The run ends when every correct process has decided, when no events
    /// remain (in which case `terminated` is `false` if some correct process
    /// is still undecided), or with an error.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] if `procs.len()` or the fault plan size
    ///   differ from `n`, or `n == 0`.
    /// * [`SimError::EventLimitExceeded`] if the protocol livelocks.
    /// * Any error surfaced by [`Substrate::apply`], e.g.
    ///   [`SimError::ProcessOutOfRange`] for a send outside `0..n`.
    pub fn run<S: Substrate>(self, procs: Vec<S::Process>) -> Result<Outcome<S::Output>, SimError> {
        drive(
            self.session::<S, FaithfulDelivery>(procs)?,
            &mut RunArena::new(),
        )
        .map(|(outcome, _digests, _shared)| outcome)
    }

    /// Runs the system like [`System::run`] but honours delivery
    /// [`Deviation`](crate::Deviation)s from the scheduler — the replay
    /// entry point for Byzantine / lossy-network counterexamples (pair it
    /// with a [`crate::ReplayScheduler`] built via
    /// [`crate::ReplayScheduler::with_deviations`]). Under a scheduler that
    /// never deviates this is behaviourally identical to [`System::run`].
    ///
    /// # Errors
    ///
    /// See [`System::run`].
    pub fn run_adv<S: SubstrateAdv>(
        self,
        procs: Vec<S::Process>,
    ) -> Result<Outcome<S::Output>, SimError> {
        drive(
            self.session::<S, DeviantDelivery>(procs)?,
            &mut RunArena::new(),
        )
        .map(|(outcome, _digests, _shared)| outcome)
    }

    /// Runs the system like [`System::run`], additionally computing a
    /// stable digest of the whole system state after every fired event,
    /// and returns the substrate's final shared state too. Per-run storage
    /// is recycled from a caller-held [`RunArena`]; a one-off caller
    /// passes a fresh one. The model checker replays single schedules
    /// through this entry point (shrinking, counterexample replay, cross
    /// validation); its exploration runs on [`ForkSession`](crate::ForkSession).
    ///
    /// `digests[i]` fingerprints the state reached after the `i`-th event:
    /// every process's digest, its crashed flag and decision, the
    /// substrate's shared state, plus an order-insensitive multiset hash of
    /// the pending event pool (kind, target, source, payload). Event *ids*
    /// are deliberately excluded, so two schedules reaching the same
    /// protocol state digest equal — the property the model checker's state
    /// deduplication relies on.
    ///
    /// Digests are computed *incrementally*: each fired event re-hashes
    /// only the dispatched process's component (the only one whose state
    /// can have changed), reuses cached digests for every other process,
    /// and maintains the pending-pool hash as a running sum updated in
    /// O(1) per posted/fired event. The resulting values are identical to
    /// recomputing everything from scratch — pinned against
    /// [`System::run_digested_reference`] by the property suite.
    ///
    /// With [`DigestMode::Canonical`](crate::DigestMode::Canonical) (see
    /// [`System::digest_mode`]) the digests are instead canonicalized
    /// modulo permutation of process ids, for symmetry-reduced
    /// deduplication.
    ///
    /// The arena lends the kernel its pool buffers and the digest engine
    /// its scratch vectors; all are returned (with grown capacity) when
    /// the run completes. The returned digest vector is the only
    /// allocation handed to the caller — return it via
    /// [`RunArena::put_digests`] once consumed to close the loop.
    ///
    /// # Errors
    ///
    /// See [`System::run`].
    pub fn run_digested_in<S: SubstrateDigest>(
        self,
        procs: Vec<S::Process>,
        arena: &mut RunArena,
    ) -> Result<DigestedRun<S>, SimError>
    where
        S::Output: StateDigest,
    {
        self.run_digested_core::<S, FaithfulDelivery>(procs, arena)
    }

    /// [`System::run_digested_in`] with scheduler
    /// [`Deviation`](crate::Deviation)s honoured, as [`System::run_adv`]
    /// honours them: the single-schedule replay path for Byzantine and
    /// lossy-network adversary spaces. Identical digest semantics; runs
    /// with a nonzero drop count mix it into every digest, so a lossy
    /// state never aliases its loss-free twin.
    ///
    /// # Errors
    ///
    /// See [`System::run`].
    pub fn run_digested_adv_in<S: SubstrateAdv + SubstrateDigest>(
        self,
        procs: Vec<S::Process>,
        arena: &mut RunArena,
    ) -> Result<DigestedRun<S>, SimError>
    where
        S::Output: StateDigest,
    {
        self.run_digested_core::<S, DeviantDelivery>(procs, arena)
    }

    fn run_digested_core<S: SubstrateDigest, D: Delivery<S>>(
        self,
        procs: Vec<S::Process>,
        arena: &mut RunArena,
    ) -> Result<DigestedRun<S>, SimError>
    where
        S::Output: StateDigest,
    {
        let config = self.into_config(procs.len())?;
        let mode = config.digest_mode;
        // Only the canonical digest reads the fault plan (for crash
        // budgets); don't pay the clone on the plain hot path.
        let plan = matches!(mode, crate::DigestMode::Canonical).then(|| config.plan.clone());
        let dig = DigestEngine::from_arena(mode, plan, arena);
        let session: Session<S, D> = Session::build(
            config,
            procs,
            arena,
            Some(crate::session::event_hashes::<S>),
            Some(observe_incremental::<S>),
            dig,
        );
        drive(session, arena)
    }

    /// Runs like [`System::run_digested_in`] but recomputes every digest
    /// from scratch after every event — the historical implementation, kept as
    /// the oracle the property suite pins the incremental engine against.
    /// Always uses the id-sensitive
    /// [`DigestMode::Plain`](crate::DigestMode::Plain) encoding (the
    /// builder's digest mode is ignored); there is no from-scratch twin of
    /// the canonical mode, which is instead validated by mirrored-input
    /// enumeration tests.
    ///
    /// # Errors
    ///
    /// See [`System::run`].
    pub fn run_digested_reference<S: SubstrateDigest>(
        self,
        procs: Vec<S::Process>,
    ) -> Result<(Outcome<S::Output>, Vec<u64>), SimError>
    where
        S::Output: StateDigest,
    {
        let mut scratch = RunArena::new();
        let config = self.into_config(procs.len())?;
        let session: Session<S, FaithfulDelivery> = Session::build(
            config,
            procs,
            &mut scratch,
            None,
            Some(observe_reference::<S>),
            DigestEngine::new(crate::DigestMode::Plain, None),
        );
        drive(session, &mut scratch).map(|(outcome, digests, _shared)| (outcome, digests))
    }
}
