//! One consensus instance: a proposal, a live steppable session, a decision.

use std::time::Instant;

use kset_net::{MpProcess, MpSession, MpSystem};
use kset_protocols::FloodMin;
use kset_sim::{Poll, SimError};

use crate::decision::{Decision, DecisionBatch, Row};

/// Shape of the consensus runs the service executes.
///
/// Every instance solves the same problem with the same protocol; only the
/// inputs (and the derived schedule seed) vary per instance. The service
/// runs `FloodMin(n, t)` — the paper's Section 3 crash-tolerant protocol —
/// under a failure-free plan, which is the common case for a consensus
/// service: failures are injected by the *checking* pipelines, not the
/// serving one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Number of processes per instance (and expected input arity).
    pub n: usize,
    /// Fault tolerance parameter handed to the protocol.
    pub t: usize,
    /// Base seed; instance `id` runs under seed `seed ^ id`, so the whole
    /// workload is deterministic yet no two instances share a schedule.
    pub seed: u64,
}

impl Workload {
    /// A `FloodMin(n, t)` workload with the default base seed.
    pub fn flood_min(n: usize, t: usize) -> Self {
        Workload {
            n,
            t,
            seed: 0x6b73_6574,
        }
    }

    /// Checks that `FloodMin(n, t)` can run: at least one process, and
    /// `t < n`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the violated bound.
    pub fn check(&self) -> Result<(), SimError> {
        if self.n == 0 {
            return Err(SimError::InvalidConfig(
                "workload needs at least one process".into(),
            ));
        }
        if self.t >= self.n {
            return Err(SimError::InvalidConfig(format!(
                "FloodMin needs t < n, got t = {} at n = {}",
                self.t, self.n
            )));
        }
        Ok(())
    }
}

/// A submitted proposal: `inputs[p]` is process `p`'s initial value.
#[derive(Debug, Clone)]
pub struct Propose {
    /// Service-assigned instance id (also the sharding and seeding key).
    pub id: u64,
    /// One initial value per process; length must equal [`Workload::n`].
    pub inputs: Vec<u64>,
    /// When the proposal was accepted by the client handle.
    pub submitted: Instant,
}

/// A live instance: the proposal plus its in-flight [`MpSession`].
///
/// Workers advance instances in bounded *waves* via [`step_wave`] so that
/// thousands of instances can share one thread without any of them
/// monopolising it. A finished instance can be recycled: [`finish_into`]
/// writes its decision into a [`DecisionBatch`] and [`restart`] starts the
/// next proposal in the same session, reusing every buffer, so in the
/// steady state a worker's instances allocate nothing.
///
/// [`step_wave`]: Instance::step_wave
/// [`finish_into`]: Instance::finish_into
/// [`restart`]: Instance::restart
#[derive(Debug)]
pub struct Instance {
    id: u64,
    inputs: Vec<u64>,
    submitted: Instant,
    admitted: Instant,
    workload: Workload,
    session: MpSession<u64, u64>,
}

impl Instance {
    /// Builds the session for `propose` under `workload`.
    ///
    /// Fails with [`SimError::InvalidConfig`] if the input arity does not
    /// match `workload.n` or the workload itself is invalid (see
    /// [`Workload::check`]); the proposal is handed back alongside the
    /// error so the caller can still answer it (a worker answers with a
    /// non-terminated decision).
    /// The [`crate::ServeClient`] checks arity before enqueueing, so
    /// workers treat this path as unreachable-but-handled.
    ///
    /// A new instance is an empty session [restarted](Instance::restart)
    /// with `propose`, so it runs exactly as a recycled one does.
    pub fn new(propose: Propose, workload: &Workload) -> Result<Self, (SimError, Propose)> {
        if let Err(err) = workload.check() {
            return Err((err, propose));
        }
        let procs = (0..workload.n)
            .map(|_| FloodMin::boxed(workload.n, workload.t, 0))
            .collect();
        let session = match MpSystem::new(workload.n).session(procs) {
            Ok(session) => session,
            Err(err) => return Err((err, propose)),
        };
        let mut instance = Instance {
            id: propose.id,
            inputs: Vec::new(),
            submitted: propose.submitted,
            admitted: propose.submitted,
            workload: *workload,
            session,
        };
        instance.restart(propose)?;
        Ok(instance)
    }

    /// Starts `propose` in this instance's session, in place of whatever
    /// ran there: the run is the one [`Instance::new`] would build for it
    /// under the same workload, seeded `workload.seed ^ propose.id`, and
    /// once the session's buffers have grown to fit, restarting allocates
    /// nothing.
    ///
    /// Fails with [`SimError::InvalidConfig`], handing the proposal back
    /// and leaving the instance as it was, if the input arity does not
    /// match the workload.
    pub fn restart(&mut self, propose: Propose) -> Result<(), (SimError, Propose)> {
        let Workload { n, t, seed } = self.workload;
        if propose.inputs.len() != n {
            let err = SimError::InvalidConfig(format!(
                "expected {n} inputs, got {}",
                propose.inputs.len()
            ));
            return Err((err, propose));
        }
        let Propose {
            id,
            inputs,
            submitted,
        } = propose;
        self.session.restart(seed ^ id, |p, slot| {
            FloodMin::new(n, t, inputs[p]).fork_into(slot);
        });
        self.id = id;
        self.inputs = inputs;
        self.submitted = submitted;
        self.admitted = Instant::now();
        Ok(())
    }

    /// Instance id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Fires up to `budget` kernel events. Returns `true` once the run is
    /// over (all correct processes decided, or the kernel went idle) and
    /// `false` if the instance still has work after the wave.
    pub fn step_wave(&mut self, budget: u32) -> Result<bool, SimError> {
        for _ in 0..budget {
            match self.session.step()? {
                Poll::Pending => {}
                Poll::Decided | Poll::Idle => return Ok(true),
            }
        }
        Ok(false)
    }

    /// Writes the run's decision into `batch` and hands the inputs over
    /// with it, leaving the instance ready for [`Instance::restart`].
    /// Allocates nothing once `batch` has room.
    pub fn finish_into(&mut self, batch: &mut DecisionBatch) {
        let row = Row {
            id: self.id,
            inputs: std::mem::take(&mut self.inputs),
            submitted: self.submitted,
            admitted: self.admitted,
            events: self.session.stats().events_fired,
            terminated: self.session.decided(),
        };
        batch.push(row, self.session.decisions());
    }

    /// Consumes the finished session into a [`Decision`]: a one-row
    /// [`Instance::finish_into`].
    pub fn finish(mut self) -> Decision {
        let mut batch = DecisionBatch::new();
        self.finish_into(&mut batch);
        batch.next().expect("finish_into pushed one decision")
    }
}
