//! The shared-memory process trait and its effect context.

use std::any::Any;
use std::ops::Deref;

use kset_sim::{CallInfo, ContextCore, ProcessId};

use crate::register::RegisterId;

/// Buffered effect produced by a shared-memory process callback.
///
/// Public so that *custom runtimes* — most importantly the ABD register
/// emulation in `kset-protocols`, which executes shared-memory protocols
/// over message passing — can build an [`SmContext`], run a callback, and
/// translate the buffered effects into their own substrate's operations.
#[derive(Clone, Debug)]
pub enum RawSmAction<Val, Out> {
    /// Read a register (any owner's).
    Read(RegisterId),
    /// Write a value to the caller's own register at the given slot.
    Write(usize, Val),
    /// Irreversibly decide a value.
    Decide(Out),
    /// Request a spontaneous `on_step` callback.
    ScheduleStep,
}

/// The effect interface handed to every [`SmProcess`] callback.
///
/// As in the message-passing model, effects are buffered and applied after
/// the callback returns, each costing one atomic action against the
/// process's crash budget.
#[derive(Debug)]
pub struct SmContext<'a, Val, Out> {
    core: ContextCore<'a, RawSmAction<Val, Out>>,
}

/// The identity accessors (`me`, `n`, `now`, `has_decided`) are provided by
/// the shared [`ContextCore`].
impl<'a, Val, Out> Deref for SmContext<'a, Val, Out> {
    type Target = ContextCore<'a, RawSmAction<Val, Out>>;

    fn deref(&self) -> &Self::Target {
        &self.core
    }
}

impl<'a, Val: Clone, Out> SmContext<'a, Val, Out> {
    /// Builds a context over a caller-owned action buffer.
    ///
    /// Normally only the [`crate::SmSystem`] runtime does this; custom
    /// runtimes (the ABD emulation) may construct contexts to drive an
    /// [`SmProcess`] over a different substrate, applying the buffered
    /// [`RawSmAction`]s themselves afterwards.
    pub fn new(
        me: ProcessId,
        n: usize,
        now: u64,
        decided: bool,
        actions: &'a mut Vec<RawSmAction<Val, Out>>,
    ) -> Self {
        let info = CallInfo {
            me,
            n,
            now,
            decided,
        };
        SmContext {
            core: ContextCore::new(info, actions),
        }
    }

    /// Issues an asynchronous read of `reg`; the result arrives via
    /// [`SmProcess::on_read`] whenever the scheduler fires the response.
    pub fn read(&mut self, reg: RegisterId) {
        self.core.push(RawSmAction::Read(reg));
    }

    /// Issues a read of every process's register at `slot` — one *scan* in
    /// the paper's sense. Responses arrive individually and unordered.
    pub fn read_all(&mut self, slot: usize) {
        for owner in 0..self.core.n() {
            self.core
                .push(RawSmAction::Read(RegisterId::new(owner, slot)));
        }
    }

    /// Writes `value` into this process's own register at `slot`.
    ///
    /// The value becomes visible immediately (the write's linearization
    /// point); [`SmProcess::on_write_ack`] fires later when the operation
    /// response is scheduled. Only the caller's own registers are reachable
    /// through this API — single-writer by construction.
    pub fn write(&mut self, slot: usize, value: Val) {
        self.core.push(RawSmAction::Write(slot, value));
    }

    /// Irreversibly decides `value` (first decision wins).
    pub fn decide(&mut self, value: Out) {
        self.core.mark_decided();
        self.core.push(RawSmAction::Decide(value));
    }

    /// Requests another spontaneous [`SmProcess::on_step`] callback.
    pub fn schedule_step(&mut self) {
        self.core.push(RawSmAction::ScheduleStep);
    }
}

/// A process of the asynchronous shared-memory model.
///
/// The runtime guarantees: [`SmProcess::on_start`] exactly once and first;
/// one [`SmProcess::on_read`] per issued read, carrying the register content
/// at the response's firing time (`None` = never written); one
/// [`SmProcess::on_write_ack`] per issued write, after the value is visible.
pub trait SmProcess {
    /// The type stored in registers.
    type Val: Clone;
    /// The decision value type.
    type Output;

    /// The process's first step.
    fn on_start(&mut self, ctx: &mut SmContext<'_, Self::Val, Self::Output>);

    /// Completion of a read of `reg` returning `value`.
    fn on_read(
        &mut self,
        reg: RegisterId,
        value: Option<Self::Val>,
        ctx: &mut SmContext<'_, Self::Val, Self::Output>,
    );

    /// Completion of this process's write to its own register `slot`.
    /// Default: do nothing.
    fn on_write_ack(&mut self, slot: usize, ctx: &mut SmContext<'_, Self::Val, Self::Output>) {
        let _ = (slot, ctx);
    }

    /// A spontaneous local step (only if requested). Default: do nothing.
    fn on_step(&mut self, ctx: &mut SmContext<'_, Self::Val, Self::Output>) {
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
    fn fork(&self) -> Option<DynSmProcess<Self::Val, Self::Output>> {
        None
    }

    /// [`SmProcess::fork`] into an existing box: overwrites `dst` with a copy
    /// of this process in its current state, reusing `dst`'s allocation
    /// where possible. Returns `false`, leaving `dst` as it was, when the
    /// process is unforkable.
    ///
    /// The forking executor calls this on every snapshot and resume. The
    /// default replaces `dst` with a fresh [`SmProcess::fork`] box; protocols
    /// with `Clone` state machines override it (together with
    /// [`SmProcess::as_any_mut`]) with [`fork_in_place`], which copies into a
    /// `dst` that already boxes the same type without allocating.
    fn fork_into(&self, dst: &mut DynSmProcess<Self::Val, Self::Output>) -> bool {
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

/// The in-place [`SmProcess::fork_into`] of a `Clone` protocol `P`: when `dst`
/// already boxes a `P`, copies `src` into it with `clone_from` (which
/// allocates nothing once `P`'s buffers are large enough); otherwise
/// replaces `dst` with a fresh box. Always returns `true`.
pub fn fork_in_place<P>(src: &P, dst: &mut DynSmProcess<P::Val, P::Output>) -> bool
where
    P: SmProcess + Clone + 'static,
{
    match (**dst).as_any_mut().and_then(|any| any.downcast_mut::<P>()) {
        Some(slot) => slot.clone_from(src),
        None => *dst = Box::new(src.clone()),
    }
    true
}

/// Boxed process with erased concrete type, the unit the runtime stores.
pub type DynSmProcess<Val, Out> = Box<dyn SmProcess<Val = Val, Output = Out>>;

impl<Val: Clone, Out> SmProcess for DynSmProcess<Val, Out> {
    type Val = Val;
    type Output = Out;

    fn on_start(&mut self, ctx: &mut SmContext<'_, Val, Out>) {
        (**self).on_start(ctx)
    }

    fn on_read(&mut self, reg: RegisterId, value: Option<Val>, ctx: &mut SmContext<'_, Val, Out>) {
        (**self).on_read(reg, value, ctx)
    }

    fn on_write_ack(&mut self, slot: usize, ctx: &mut SmContext<'_, Val, Out>) {
        (**self).on_write_ack(slot, ctx)
    }

    fn on_step(&mut self, ctx: &mut SmContext<'_, Val, Out>) {
        (**self).on_step(ctx)
    }

    fn state_digest(&self) -> u64 {
        (**self).state_digest()
    }

    fn fork(&self) -> Option<DynSmProcess<Val, Out>> {
        (**self).fork()
    }

    fn fork_into(&self, dst: &mut DynSmProcess<Val, Out>) -> bool {
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
    fn read_all_scans_every_owner_at_slot() {
        let mut buf: Vec<RawSmAction<u8, u8>> = Vec::new();
        let mut ctx = SmContext::new(1, 3, 0, false, &mut buf);
        ctx.read_all(2);
        let regs: Vec<RegisterId> = buf
            .iter()
            .map(|a| match a {
                RawSmAction::Read(r) => *r,
                other => panic!("unexpected action {other:?}"),
            })
            .collect();
        assert_eq!(
            regs,
            vec![
                RegisterId::new(0, 2),
                RegisterId::new(1, 2),
                RegisterId::new(2, 2)
            ]
        );
    }

    #[test]
    fn write_buffers_own_slot_only() {
        let mut buf: Vec<RawSmAction<u8, u8>> = Vec::new();
        let mut ctx = SmContext::new(2, 3, 0, false, &mut buf);
        ctx.write(1, 9);
        assert!(matches!(buf[0], RawSmAction::Write(1, 9)));
    }

    #[test]
    fn decide_updates_view() {
        let mut buf: Vec<RawSmAction<u8, u8>> = Vec::new();
        let mut ctx = SmContext::new(0, 1, 0, false, &mut buf);
        assert!(!ctx.has_decided());
        ctx.decide(4);
        assert!(ctx.has_decided());
    }

    #[test]
    fn identity_accessors() {
        let mut buf: Vec<RawSmAction<u8, u8>> = Vec::new();
        let ctx = SmContext::new(2, 7, 42, false, &mut buf);
        assert_eq!(ctx.me(), 2);
        assert_eq!(ctx.n(), 7);
        assert_eq!(ctx.now(), 42);
    }
}
