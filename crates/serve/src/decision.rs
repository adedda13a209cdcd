//! Finished instances: the [`Decision`] a submitter receives, and the
//! compact [`DecisionBatch`] a worker ships them in.

use std::time::{Duration, Instant};

use kset_core::RunRecord;

use crate::instance::Propose;

/// A finished instance, as reported back to the submitter.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Instance id this decision answers.
    pub id: u64,
    /// Inputs, decisions, fault set and termination flag of the run, in
    /// the same [`RunRecord`] shape the experiment pipelines consume.
    pub record: RunRecord<u64>,
    /// Kernel events the run consumed before every process decided.
    pub events: u64,
    /// Submit-to-decide latency as observed inside the server: from
    /// [`Propose::submitted`] until the decision left its worker.
    pub latency: Duration,
    /// The part of [`latency`](Decision::latency) the proposal spent
    /// queued, from submit until a worker admitted it; the rest is
    /// service.
    pub queued: Duration,
}

/// One finished instance in compact form. Its decision table is the
/// `inputs.len()` slots at the batch's running offset.
#[derive(Debug)]
pub(crate) struct Row {
    pub(crate) id: u64,
    pub(crate) inputs: Vec<u64>,
    pub(crate) submitted: Instant,
    pub(crate) admitted: Instant,
    pub(crate) events: u64,
    pub(crate) terminated: bool,
}

/// Finished instances in compact form: one fixed-size row per instance
/// plus one dense decision table, with the owned [`RunRecord`] of each
/// [`Decision`] built only when the batch is read.
///
/// A `kset-serve` worker fills one batch per wave and ships it whole, so
/// the records' maps are allocated and freed by the thread that reads the
/// decisions, and the worker's steady state allocates nothing per
/// instance. The worker seals a batch when it ships it, and each
/// [`Decision::latency`] runs until then; reading an unsealed batch (it
/// is an [`Iterator`] over its decisions) seals it first.
#[derive(Debug, Default)]
pub struct DecisionBatch {
    rows: Vec<Row>,
    decisions: Vec<Option<u64>>,
    /// Rows already read, and the decision slots they covered.
    read: usize,
    read_slots: usize,
    sealed: Option<Instant>,
}

impl DecisionBatch {
    /// An empty batch; it allocates on its first push.
    pub fn new() -> Self {
        DecisionBatch::default()
    }

    /// Decisions not yet read.
    pub fn len(&self) -> usize {
        self.rows.len() - self.read
    }

    /// Whether every decision has been read (or none was pushed).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every decision and the seal, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.decisions.clear();
        self.read = 0;
        self.read_slots = 0;
        self.sealed = None;
    }

    /// Stamps the time the batch's decisions left their producer. Later
    /// calls keep the first stamp.
    pub(crate) fn seal(&mut self) {
        self.sealed.get_or_insert_with(Instant::now);
    }

    /// Appends a finished run: `decisions[p]` is process `p`'s decision,
    /// one slot per input.
    pub(crate) fn push(&mut self, row: Row, decisions: &[Option<u64>]) {
        debug_assert_eq!(row.inputs.len(), decisions.len());
        self.decisions.extend_from_slice(decisions);
        self.rows.push(row);
    }

    /// Appends the answer to a proposal that could not start: a
    /// non-terminated record with no decisions and no events.
    pub(crate) fn push_refusal(&mut self, propose: Propose) {
        let Propose {
            id,
            inputs,
            submitted,
        } = propose;
        let slots = inputs.len();
        self.decisions.resize(self.decisions.len() + slots, None);
        self.rows.push(Row {
            id,
            inputs,
            submitted,
            admitted: Instant::now(),
            events: 0,
            terminated: false,
        });
    }
}

impl Iterator for DecisionBatch {
    type Item = Decision;

    /// The next unread decision, in the order the instances finished.
    fn next(&mut self) -> Option<Decision> {
        let row = self.rows.get_mut(self.read)?;
        let sealed = *self.sealed.get_or_insert_with(Instant::now);
        let inputs = std::mem::take(&mut row.inputs);
        let slots = &self.decisions[self.read_slots..self.read_slots + inputs.len()];
        self.read += 1;
        self.read_slots += inputs.len();
        // A served run is failure-free, so the record's fault set stays
        // empty.
        let record = RunRecord::new(inputs)
            .with_decisions(
                slots
                    .iter()
                    .enumerate()
                    .filter_map(|(p, d)| d.map(|v| (p, v))),
            )
            .with_terminated(row.terminated);
        Some(Decision {
            id: row.id,
            record,
            events: row.events,
            latency: sealed.saturating_duration_since(row.submitted),
            queued: row.admitted.saturating_duration_since(row.submitted),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}
