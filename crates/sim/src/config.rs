//! The run builder: [`System`] collects scheduling, fault, and
//! instrumentation choices, and resolves them into a [`RunConfig`] the
//! session layer consumes.

use crate::arena::DigestMode;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::gate::{DelayRule, GatedScheduler};
use crate::metrics::MetricsConfig;
use crate::sched::{RandomScheduler, Scheduler};

/// Builder/runtime for one run of an asynchronous system over any
/// [`Substrate`](crate::Substrate).
///
/// Configure the fault plan, scheduler, delay rules, and limits, then call
/// [`System::run`] (or a sibling entry point) with the substrate as a type
/// parameter and one process per slot, or [`System::session`] for a
/// [`Session`](crate::Session) you drive one event at a time. Byzantine
/// slots (per the fault plan) are filled by the caller with strategy
/// objects — see the `kset-adversary` crate.
///
/// The model-specific facades `kset_net::MpSystem` and
/// `kset_shmem::SmSystem` wrap this builder with their substrate
/// pre-applied; use them unless you are writing substrate-generic tooling
/// (the model checker and experiment harnesses in `kset-experiments` use
/// `System` directly so both models provably share one code path).
pub struct System {
    pub(crate) n: usize,
    pub(crate) plan: FaultPlan,
    pub(crate) scheduler: Option<Box<dyn Scheduler>>,
    pub(crate) rules: Vec<DelayRule>,
    pub(crate) event_limit: Option<u64>,
    pub(crate) trace_capacity: usize,
    pub(crate) metrics: MetricsConfig,
    pub(crate) digest_mode: DigestMode,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("n", &self.n)
            .field("plan", &self.plan)
            .field("rules", &self.rules.len())
            .finish()
    }
}

impl System {
    /// A system of `n` processes, all correct, randomly scheduled (seed 0).
    pub fn new(n: usize) -> Self {
        System {
            n,
            plan: FaultPlan::all_correct(n),
            scheduler: None,
            rules: Vec::new(),
            event_limit: None,
            trace_capacity: 0,
            metrics: MetricsConfig::disabled(),
            digest_mode: DigestMode::Plain,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sets the fault plan. Its size must equal `n` (checked at run time).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Uses an explicit scheduler (adversary).
    pub fn scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Some(Box::new(scheduler));
        self
    }

    /// Shorthand for a [`RandomScheduler`] with the given seed.
    pub fn seed(self, seed: u64) -> Self {
        self.scheduler(RandomScheduler::from_seed(seed))
    }

    /// Adds a delay rule; the scheduler is wrapped in a
    /// [`GatedScheduler`] when any rules are present.
    pub fn delay_rule(mut self, rule: DelayRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds several delay rules at once.
    pub fn delay_rules(mut self, rules: impl IntoIterator<Item = DelayRule>) -> Self {
        self.rules.extend(rules);
        self
    }

    /// Overrides the kernel event limit.
    pub fn event_limit(mut self, limit: u64) -> Self {
        self.event_limit = Some(limit);
        self
    }

    /// Enables trace recording with the given capacity.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Configures metrics collection; the outcome's
    /// [`metrics`](crate::Outcome::metrics) field is populated when
    /// enabled.
    pub fn metrics(mut self, config: MetricsConfig) -> Self {
        self.metrics = config;
        self
    }

    /// Selects how `run_digested_in`/`run_digested_adv_in` fingerprint states:
    /// [`DigestMode::Plain`] (the default, id-sensitive) or
    /// [`DigestMode::Canonical`] (invariant under process-id permutation,
    /// for symmetry-reduced deduplication).
    pub fn digest_mode(mut self, mode: DigestMode) -> Self {
        self.digest_mode = mode;
        self
    }

    /// Validates the builder against a process vector of length
    /// `procs_len` and resolves defaults into a [`RunConfig`]: the
    /// scheduler falls back to a seed-0 [`RandomScheduler`], and delay
    /// rules (when present) wrap it in a [`GatedScheduler`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if `procs_len` or the fault plan size
    /// differ from `n`, or `n == 0`.
    pub fn into_config(self, procs_len: usize) -> Result<RunConfig, SimError> {
        if self.n == 0 {
            return Err(SimError::InvalidConfig("n must be positive".into()));
        }
        if procs_len != self.n {
            return Err(SimError::InvalidConfig(format!(
                "expected {} processes, got {}",
                self.n, procs_len
            )));
        }
        if self.plan.n() != self.n {
            return Err(SimError::InvalidConfig(format!(
                "fault plan covers {} processes, system has {}",
                self.plan.n(),
                self.n
            )));
        }
        let inner: Box<dyn Scheduler> = self
            .scheduler
            .unwrap_or_else(|| Box::new(RandomScheduler::from_seed(0)));
        let scheduler: Box<dyn Scheduler> = if self.rules.is_empty() {
            inner
        } else {
            Box::new(GatedScheduler::new(inner, self.rules))
        };
        Ok(RunConfig {
            n: self.n,
            plan: self.plan,
            scheduler,
            event_limit: self.event_limit,
            trace_capacity: self.trace_capacity,
            metrics: self.metrics,
            digest_mode: self.digest_mode,
        })
    }
}

/// A validated, fully resolved run configuration: what remains of a
/// [`System`] once defaults are applied and the size invariants are
/// checked. Consumed by [`Session`](crate::Session) construction.
pub struct RunConfig {
    pub(crate) n: usize,
    pub(crate) plan: FaultPlan,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) event_limit: Option<u64>,
    pub(crate) trace_capacity: usize,
    pub(crate) metrics: MetricsConfig,
    pub(crate) digest_mode: DigestMode,
}

impl std::fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunConfig")
            .field("n", &self.n)
            .field("plan", &self.plan)
            .field("digest_mode", &self.digest_mode)
            .finish()
    }
}

impl RunConfig {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The fault plan every slot runs under.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}
