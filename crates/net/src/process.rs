//! The message-passing process trait and its effect context.

use std::any::Any;
use std::ops::Deref;

use kset_sim::{CallInfo, ContextCore, ProcessId};

/// Buffered effect produced by a process callback.
///
/// Public so that *custom runtimes* — most importantly the SIMULATION
/// transform in `kset-protocols`, which executes message-passing protocols
/// over shared memory — can build an [`MpContext`], run a callback, and
/// translate the buffered effects into their own substrate's operations.
#[derive(Clone, Debug)]
pub enum RawAction<M, V> {
    /// Send a message to a process.
    Send(ProcessId, M),
    /// Irreversibly decide a value.
    Decide(V),
    /// Request a spontaneous `on_step` callback.
    ScheduleStep,
}

/// The effect interface handed to every [`MpProcess`] callback.
///
/// Effects are buffered while the callback runs and applied by the runtime
/// afterwards, each costing one atomic action against the process's crash
/// budget. A process whose budget runs out mid-buffer has the remaining
/// effects silently dropped — that *is* the crash.
#[derive(Debug)]
pub struct MpContext<'a, M, V> {
    core: ContextCore<'a, RawAction<M, V>>,
}

/// The identity accessors (`me`, `n`, `now`, `has_decided`) are provided by
/// the shared [`ContextCore`].
impl<'a, M, V> Deref for MpContext<'a, M, V> {
    type Target = ContextCore<'a, RawAction<M, V>>;

    fn deref(&self) -> &Self::Target {
        &self.core
    }
}

impl<'a, M: Clone, V> MpContext<'a, M, V> {
    /// Builds a context over a caller-owned action buffer.
    ///
    /// Normally only the [`crate::MpSystem`] runtime does this; custom
    /// runtimes (the SIMULATION transform) may construct contexts to drive
    /// an [`MpProcess`] over a different substrate, applying the buffered
    /// [`RawAction`]s themselves afterwards.
    pub fn new(
        me: ProcessId,
        n: usize,
        now: u64,
        decided: bool,
        actions: &'a mut Vec<RawAction<M, V>>,
    ) -> Self {
        let info = CallInfo {
            me,
            n,
            now,
            decided,
        };
        MpContext {
            core: ContextCore::new(info, actions),
        }
    }

    /// Sends `msg` to process `to` over the reliable network.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.core.push(RawAction::Send(to, msg));
    }

    /// Sends `msg` to every process, *including itself*.
    ///
    /// The paper's protocols count the sender's own message among those it
    /// waits for ("one of these `n - t` messages is the process' own
    /// message"), so self-delivery is part of the broadcast.
    pub fn broadcast(&mut self, msg: M) {
        for to in 0..self.core.n() {
            self.core.push(RawAction::Send(to, msg.clone()));
        }
    }

    /// Irreversibly decides `value`.
    ///
    /// Subsequent `decide` calls in the same run are ignored by the runtime
    /// (the first decision wins), matching the designated single "decide"
    /// instruction of the problem statement.
    pub fn decide(&mut self, value: V) {
        self.core.mark_decided();
        self.core.push(RawAction::Decide(value));
    }

    /// Requests another spontaneous [`MpProcess::on_step`] callback, at a
    /// time of the scheduler's choosing. Byzantine strategies use this to
    /// act without external stimulus.
    pub fn schedule_step(&mut self) {
        self.core.push(RawAction::ScheduleStep);
    }
}

/// A process of the asynchronous message-passing model.
///
/// Implementations are *state machines*: each callback runs to completion
/// (atomically, as one process step plus its buffered effects) and must not
/// block. The runtime guarantees:
///
/// * [`MpProcess::on_start`] is invoked exactly once, before any other
///   callback of this process;
/// * [`MpProcess::on_message`] is invoked exactly once per message sent to
///   this process (reliable, unforgeable, possibly reordered delivery);
/// * [`MpProcess::on_step`] is invoked once per
///   [`MpContext::schedule_step`] request.
pub trait MpProcess {
    /// The message alphabet of the protocol.
    type Msg: Clone;
    /// The decision value type.
    type Output;

    /// The process's first step.
    fn on_start(&mut self, ctx: &mut MpContext<'_, Self::Msg, Self::Output>);

    /// Delivery of `msg` from `from`.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut MpContext<'_, Self::Msg, Self::Output>,
    );

    /// A spontaneous local step (only delivered if previously requested via
    /// [`MpContext::schedule_step`]). Default: do nothing.
    fn on_step(&mut self, ctx: &mut MpContext<'_, Self::Msg, Self::Output>) {
        let _ = ctx;
    }

    /// A stable fingerprint of this process's protocol state, used by the
    /// model checker to deduplicate explored system states (see
    /// `kset_sim::StateDigest` and `kset_sim::System::run_digested_in`).
    ///
    /// Two system states whose digests agree are treated as interchangeable
    /// by the checker, so an override must hash *every* state field that
    /// influences future behaviour. The default (a constant) makes distinct
    /// internal states collide and is only safe when state-digest
    /// deduplication is disabled — every protocol in this workspace
    /// overrides it.
    fn state_digest(&self) -> u64 {
        0
    }

    /// A boxed copy of this process in its *current* state, used by the
    /// model checker's forking executor to snapshot a run mid-execution.
    ///
    /// The default (`None`) marks the process as unforkable. The model
    /// checker runs every schedule on a fork session, which starts each
    /// run from a copy of the initial processes, so it refuses (panics on)
    /// a protocol whose processes do not fork. Protocols with `Clone`
    /// state machines should override this with
    /// `Some(Box::new(self.clone()))`; every protocol in this workspace
    /// does.
    fn fork(&self) -> Option<DynMpProcess<Self::Msg, Self::Output>> {
        None
    }

    /// [`MpProcess::fork`] into an existing box: overwrites `dst` with a copy
    /// of this process in its current state, reusing `dst`'s allocation
    /// where possible. Returns `false`, leaving `dst` as it was, when the
    /// process is unforkable.
    ///
    /// The forking executor calls this on every snapshot and resume. The
    /// default replaces `dst` with a fresh [`MpProcess::fork`] box; protocols
    /// with `Clone` state machines override it (together with
    /// [`MpProcess::as_any_mut`]) with [`fork_in_place`], which copies into a
    /// `dst` that already boxes the same type without allocating.
    fn fork_into(&self, dst: &mut DynMpProcess<Self::Msg, Self::Output>) -> bool {
        match self.fork() {
            Some(copy) => {
                *dst = copy;
                true
            }
            None => false,
        }
    }

    /// This process as [`Any`], for [`fork_in_place`]'s downcast; `None`
    /// (the default) when the process does not support in-place copies.
    /// Override with `Some(self)`.
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// The in-place [`MpProcess::fork_into`] of a `Clone` protocol `P`: when `dst`
/// already boxes a `P`, copies `src` into it with `clone_from` (which
/// allocates nothing once `P`'s buffers are large enough); otherwise
/// replaces `dst` with a fresh box. Always returns `true`.
pub fn fork_in_place<P>(src: &P, dst: &mut DynMpProcess<P::Msg, P::Output>) -> bool
where
    P: MpProcess + Clone + 'static,
{
    match (**dst).as_any_mut().and_then(|any| any.downcast_mut::<P>()) {
        Some(slot) => slot.clone_from(src),
        None => *dst = Box::new(src.clone()),
    }
    true
}

/// Boxed process with erased concrete type, the unit the runtime stores.
///
/// Correct processes and Byzantine strategies share this shape, which is
/// what lets a [`crate::MpSystem`] mix them freely in one run.
pub type DynMpProcess<M, V> = Box<dyn MpProcess<Msg = M, Output = V>>;

impl<M: Clone, V> MpProcess for DynMpProcess<M, V> {
    type Msg = M;
    type Output = V;

    fn on_start(&mut self, ctx: &mut MpContext<'_, M, V>) {
        (**self).on_start(ctx)
    }

    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut MpContext<'_, M, V>) {
        (**self).on_message(from, msg, ctx)
    }

    fn on_step(&mut self, ctx: &mut MpContext<'_, M, V>) {
        (**self).on_step(ctx)
    }

    fn state_digest(&self) -> u64 {
        (**self).state_digest()
    }

    fn fork(&self) -> Option<DynMpProcess<M, V>> {
        (**self).fork()
    }

    fn fork_into(&self, dst: &mut DynMpProcess<M, V>) -> bool {
        (**self).fork_into(dst)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        (**self).as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_targets_every_process_including_self() {
        let mut buf: Vec<RawAction<u8, u8>> = Vec::new();
        let mut ctx = MpContext::new(1, 3, 0, false, &mut buf);
        ctx.broadcast(7);
        let targets: Vec<ProcessId> = buf
            .iter()
            .map(|a| match a {
                RawAction::Send(to, 7) => *to,
                other => panic!("unexpected action {other:?}"),
            })
            .collect();
        assert_eq!(targets, vec![0, 1, 2]);
    }

    #[test]
    fn decide_is_reflected_in_context_view() {
        let mut buf: Vec<RawAction<u8, u8>> = Vec::new();
        let mut ctx = MpContext::new(0, 1, 0, false, &mut buf);
        assert!(!ctx.has_decided());
        ctx.decide(3);
        assert!(ctx.has_decided());
        assert!(matches!(buf[0], RawAction::Decide(3)));
    }

    #[test]
    fn context_reports_identity() {
        let mut buf: Vec<RawAction<u8, u8>> = Vec::new();
        let ctx = MpContext::new(2, 5, 17, true, &mut buf);
        assert_eq!(ctx.me(), 2);
        assert_eq!(ctx.n(), 5);
        assert_eq!(ctx.now(), 17);
        assert!(ctx.has_decided());
    }

    #[test]
    fn schedule_step_buffers_a_step_request() {
        let mut buf: Vec<RawAction<u8, u8>> = Vec::new();
        let mut ctx = MpContext::new(0, 1, 0, false, &mut buf);
        ctx.schedule_step();
        assert!(matches!(buf[0], RawAction::ScheduleStep));
    }
}
