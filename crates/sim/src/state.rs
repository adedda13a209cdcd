//! Observable run state shared between the runtime and the scheduler.

use crate::event::ProcessId;

/// The adversary-observable state of a run.
///
/// Delay rules in the paper's constructions are phrased in terms of run
/// progress — "*until all processes in `g_j` make a decision*" — so
/// schedulers and [`crate::DelayRule`]s receive a read-only view of this
/// structure alongside the pending event list.
///
/// The runtime (in `kset-net` / `kset-shmem`) keeps it up to date as
/// processes decide, crash, or halt.
#[derive(PartialEq, Eq, Debug, Default)]
pub struct RunState {
    decided: Vec<bool>,
    crashed: Vec<bool>,
    byzantine: Vec<bool>,
    actions: Vec<u64>,
    drops: u64,
    now: u64,
}

/// Written out so that `clone_from` copies field by field into the
/// existing vectors: the forking executor restores and snapshots run state
/// on every resumed run, and a derived `clone_from` would reallocate all
/// four vectors each time.
impl Clone for RunState {
    fn clone(&self) -> Self {
        RunState {
            decided: self.decided.clone(),
            crashed: self.crashed.clone(),
            byzantine: self.byzantine.clone(),
            actions: self.actions.clone(),
            drops: self.drops,
            now: self.now,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.decided.clone_from(&source.decided);
        self.crashed.clone_from(&source.crashed);
        self.byzantine.clone_from(&source.byzantine);
        self.actions.clone_from(&source.actions);
        self.drops = source.drops;
        self.now = source.now;
    }
}

impl RunState {
    /// Creates the initial state for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        RunState {
            decided: vec![false; n],
            crashed: vec![false; n],
            byzantine: vec![false; n],
            actions: vec![0; n],
            drops: 0,
            now: 0,
        }
    }

    /// Returns to the state [`RunState::new`] gives for the same number of
    /// processes, keeping the buffers (a restarted session's kernel calls
    /// this, see [`crate::Session::restart`]).
    pub fn reset(&mut self) {
        self.decided.fill(false);
        self.crashed.fill(false);
        self.byzantine.fill(false);
        self.actions.fill(0);
        self.drops = 0;
        self.now = 0;
    }

    /// Current virtual time (events fired so far), kept up to date by the
    /// kernel. Delay rules with an expiry deadline compare against this.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Updates the virtual clock (called by the kernel before each pick).
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.decided.len()
    }

    /// Whether process `pid` has irreversibly decided.
    pub fn has_decided(&self, pid: ProcessId) -> bool {
        self.decided.get(pid).copied().unwrap_or(false)
    }

    /// Whether process `pid` has crashed (stopped taking steps).
    pub fn has_crashed(&self, pid: ProcessId) -> bool {
        self.crashed.get(pid).copied().unwrap_or(false)
    }

    /// Whether process `pid` is running a Byzantine strategy.
    pub fn is_byzantine(&self, pid: ProcessId) -> bool {
        self.byzantine.get(pid).copied().unwrap_or(false)
    }

    /// Number of atomic actions (event handlings + sends + register
    /// operations) process `pid` has performed so far.
    pub fn actions_of(&self, pid: ProcessId) -> u64 {
        self.actions.get(pid).copied().unwrap_or(0)
    }

    /// True when every process in `group` has decided.
    ///
    /// This is the standard release condition of the paper's partition
    /// schedules; see [`crate::Until::AllDecided`].
    pub fn all_decided(&self, group: &[ProcessId]) -> bool {
        group.iter().all(|&p| self.has_decided(p))
    }

    /// True when every process that is neither crashed nor Byzantine has
    /// decided — the runtime's termination condition.
    pub fn all_correct_decided(&self) -> bool {
        (0..self.n()).all(|p| self.decided[p] || self.crashed[p] || self.byzantine[p])
    }

    /// Records that `pid` decided.
    pub fn mark_decided(&mut self, pid: ProcessId) {
        self.decided[pid] = true;
    }

    /// Records that `pid` crashed.
    pub fn mark_crashed(&mut self, pid: ProcessId) {
        self.crashed[pid] = true;
    }

    /// Records that `pid` runs a Byzantine strategy.
    pub fn mark_byzantine(&mut self, pid: ProcessId) {
        self.byzantine[pid] = true;
    }

    /// Charges one atomic action to `pid` and returns its new total.
    pub fn charge_action(&mut self, pid: ProcessId) -> u64 {
        self.actions[pid] += 1;
        self.actions[pid]
    }

    /// Number of deliveries suppressed so far by a [`crate::Deviation::Drop`]
    /// (Byzantine silence or network loss). Lossy-network policies compare
    /// this against their loss budget; it is zero throughout any run of the
    /// crash model.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Charges one suppressed delivery and returns the new total. Called by
    /// the runtime when a drop deviation fires.
    pub fn charge_drop(&mut self) -> u64 {
        self.drops += 1;
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_all_false() {
        let s = RunState::new(3);
        assert_eq!(s.n(), 3);
        for p in 0..3 {
            assert!(!s.has_decided(p));
            assert!(!s.has_crashed(p));
            assert!(!s.is_byzantine(p));
            assert_eq!(s.actions_of(p), 0);
        }
        assert!(!s.all_correct_decided());
    }

    #[test]
    fn out_of_range_queries_are_false_not_panics() {
        let s = RunState::new(2);
        assert!(!s.has_decided(99));
        assert!(!s.has_crashed(99));
        assert!(!s.is_byzantine(99));
        assert_eq!(s.actions_of(99), 0);
    }

    #[test]
    fn termination_ignores_faulty_processes() {
        let mut s = RunState::new(4);
        s.mark_crashed(0);
        s.mark_byzantine(1);
        s.mark_decided(2);
        assert!(!s.all_correct_decided());
        s.mark_decided(3);
        assert!(s.all_correct_decided());
    }

    #[test]
    fn group_decision_release_condition() {
        let mut s = RunState::new(4);
        let g = vec![1, 2];
        assert!(!s.all_decided(&g));
        s.mark_decided(1);
        assert!(!s.all_decided(&g));
        s.mark_decided(2);
        assert!(s.all_decided(&g));
        assert!(s.all_decided(&[]));
    }

    #[test]
    fn action_charging_accumulates() {
        let mut s = RunState::new(1);
        assert_eq!(s.charge_action(0), 1);
        assert_eq!(s.charge_action(0), 2);
        assert_eq!(s.actions_of(0), 2);
    }

    #[test]
    fn drop_charging_accumulates() {
        let mut s = RunState::new(2);
        assert_eq!(s.drops(), 0);
        assert_eq!(s.charge_drop(), 1);
        assert_eq!(s.charge_drop(), 2);
        assert_eq!(s.drops(), 2);
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffers() {
        let mut src = RunState::new(4);
        src.mark_decided(1);
        src.mark_crashed(2);
        src.mark_byzantine(3);
        src.charge_action(0);
        src.charge_drop();
        src.set_now(9);
        let mut dst = RunState::new(4);
        let buffers = |s: &RunState| {
            [
                s.decided.as_ptr() as usize,
                s.crashed.as_ptr() as usize,
                s.byzantine.as_ptr() as usize,
                s.actions.as_ptr() as usize,
            ]
        };
        let before = buffers(&dst);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(buffers(&dst), before, "clone_from reallocated a buffer");
    }

    #[test]
    fn reset_matches_a_fresh_state_and_keeps_the_buffers() {
        let mut s = RunState::new(3);
        s.mark_decided(0);
        s.mark_crashed(1);
        s.mark_byzantine(2);
        s.charge_action(1);
        s.charge_drop();
        s.set_now(5);
        let actions = s.actions.as_ptr();
        s.reset();
        assert_eq!(s, RunState::new(3));
        assert_eq!(s.actions.as_ptr(), actions);
    }
}
