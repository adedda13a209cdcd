//! Recycled per-run storage for schedule exploration.
//!
//! The model checker executes millions of short runs; rebuilding every
//! kernel vector, choice log and digest buffer from scratch each time made
//! the allocator a first-order cost of the hot loop. A [`RunArena`] owns
//! all of that storage once: each run *takes* the buffers (cleared, with
//! capacity intact), and *returns* them when the run has been consumed —
//! so in the steady state, starting a run is a handful of pointer resets,
//! not a rebuild. See `PERFORMANCE.md` for the measured effect.
//!
//! The arena also selects the [`DigestMode`]: whether per-event state
//! fingerprints are computed plainly (process-id-sensitive, byte-identical
//! to the historical full re-digest) or canonicalized modulo permutation
//! of process ids for symmetry-reduced deduplication.

use crate::choice::ChoiceLog;
use crate::event::EventMeta;

/// How `System::run_digested_in` and the forking executor fingerprint
/// the per-event system state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DigestMode {
    /// The id-sensitive digest: per-process digests in process-id order,
    /// the shared state, and the pending pool as an id-insensitive
    /// multiset. Value-identical to recomputing the historical full-state
    /// digest from scratch, so run counters and counterexamples of
    /// digest-deduplicated exploration are unchanged.
    #[default]
    Plain,
    /// The symmetry-canonical digest: states that differ only by a
    /// permutation of process ids fingerprint equal, so a deduplicating
    /// explorer visits one representative per symmetry class. Sound for
    /// symmetric protocols (every protocol in this workspace); see
    /// `PERFORMANCE.md` for what it can and cannot buy on cells with
    /// all-distinct canonical inputs.
    Canonical,
}

/// Reusable per-run buffers: kernel pool vectors, digest scratch, the
/// choice log and the digest output vector.
///
/// All fields are recycled by *capacity*: taking a buffer clears it first,
/// so no state leaks between runs. A fresh arena is all-empty and
/// allocates nothing until the first run grows it.
#[derive(Debug, Default)]
pub struct RunArena {
    /// Recycled [`ChoiceLog`] (flat options arena + point records).
    pub(crate) log: ChoiceLog,
    /// Recycled per-event digest output vector.
    pub(crate) digests: Vec<u64>,
    /// Cached per-process digests (one `u64` per process), refreshed only
    /// for the fired event's target.
    pub(crate) proc_digests: Vec<u64>,
    /// Scratch: id-free per-process components of the canonical digest.
    pub(crate) components: Vec<u64>,
    /// Scratch: sorted copy of `components`.
    pub(crate) sorted: Vec<u64>,
    /// Recycled kernel pending-pool metadata vector.
    pub(crate) metas: Vec<EventMeta>,
    /// Recycled kernel per-event plain-hash vector.
    pub(crate) hashes: Vec<u64>,
    /// Recycled kernel per-event auxiliary (symmetry) hash vector.
    pub(crate) payload_hashes: Vec<u64>,
}

impl RunArena {
    /// An empty arena; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        RunArena::default()
    }

    /// Takes the recycled choice log (cleared) for the next run's
    /// scheduler; pair with [`RunArena::put_log`] once the run's log has
    /// been consumed.
    pub fn take_log(&mut self) -> ChoiceLog {
        let mut log = std::mem::take(&mut self.log);
        log.clear();
        log
    }

    /// Returns a consumed run's choice log to the arena for reuse.
    pub fn put_log(&mut self, log: ChoiceLog) {
        self.log = log;
    }

    /// Returns a consumed run's digest vector to the arena for reuse.
    pub fn put_digests(&mut self, digests: Vec<u64>) {
        self.digests = digests;
    }
}
