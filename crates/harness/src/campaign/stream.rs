//! The streaming trial pipeline: completed trials flow as
//! [`TrialRecord`] events through a deterministic reorder buffer
//! into composable [`TrialConsumer`]s.
//!
//! ## Determinism argument
//!
//! Workers complete trials in a nondeterministic order (it depends on
//! worker count and scheduling), but every record carries its trial
//! index and the buffer releases records strictly in the campaign's
//! owned-index order. Consumers therefore observe *exactly* the
//! sequence a sequential run would produce — so any consumer that is a
//! pure fold of its input (the aggregator, the plot-series builders)
//! yields bitwise-identical state regardless of parallelism. Adaptive
//! stopping inherits the same property: a
//! [`StopRule`](resilim_core::StopRule) is evaluated only on the in-order
//! prefix, so the stop position — and with it the delivered prefix and
//! every statistic — is a pure function of `(spec, seed, config)`,
//! never of timing.

use resilim_core::TrialFeatures;
use resilim_inject::TestOutcome;
use std::collections::BTreeMap;

/// One completed (or resumed) trial, as an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialRecord {
    /// Trial index within the campaign (`0..tests`).
    pub index: usize,
    /// The trial's classified outcome.
    pub outcome: TestOutcome,
    /// Execution attempts this outcome took (1 = first try; 0 for
    /// records resumed from a ledger, whose attempt count is not
    /// reloaded).
    pub attempts: u32,
    /// Whether the record was reloaded from a durable ledger instead of
    /// executed by this process.
    pub resumed: bool,
    /// Trial execution latency in microseconds (0 for resumed records
    /// or when observability is disabled).
    pub latency_us: u64,
    /// The trial's extracted feature record (`None` for resumed records
    /// — the run that executed the trial already persisted them).
    pub features: Option<TrialFeatures>,
}

impl TrialRecord {
    /// A record reloaded from a durable ledger (with whatever features
    /// the feature store still holds for it) instead of executed.
    pub(crate) fn resumed(
        index: usize,
        outcome: TestOutcome,
        features: Option<TrialFeatures>,
    ) -> TrialRecord {
        TrialRecord {
            index,
            outcome,
            attempts: 0,
            resumed: true,
            latency_us: 0,
            features,
        }
    }
}

/// A sink folding in-order trial records; implementations compose into
/// one [`TrialPipeline`] (aggregation, ledger persistence, obs events,
/// plot series, ...).
pub trait TrialConsumer: Send {
    /// Fold one record. Records arrive in strict owned-index order.
    /// Return `true` to request the campaign stop early; any consumer
    /// may request a stop and the pipeline stops at the first request.
    fn consume(&mut self, rec: &TrialRecord) -> bool;

    /// Called once when the pipeline is done delivering (drained or
    /// stopped).
    fn finish(&mut self) {}
}

/// Fan-out: every consumer folds every record (also after one of them
/// asked to stop), and the first stop request wins.
impl TrialConsumer for Vec<&mut dyn TrialConsumer> {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        let mut stop = false;
        for consumer in self.iter_mut() {
            stop |= consumer.consume(rec);
        }
        stop
    }

    fn finish(&mut self) {
        for consumer in self.iter_mut() {
            consumer.finish();
        }
    }
}

/// Reorders out-of-order completions into owned-index order.
///
/// Constructed with the ascending list of trial indices this process
/// will deliver; `push` parks a record until all its predecessors have
/// been popped.
#[derive(Debug)]
struct ReorderBuffer {
    /// Delivery order (ascending owned trial indices).
    expected: Vec<usize>,
    /// Position in `expected` of the next record to deliver.
    cursor: usize,
    /// Completed records waiting for their turn, keyed by trial index.
    parked: BTreeMap<usize, TrialRecord>,
}

impl ReorderBuffer {
    /// Buffer delivering `expected` (ascending trial indices) in order.
    fn new(expected: Vec<usize>) -> ReorderBuffer {
        debug_assert!(expected.windows(2).all(|w| w[0] < w[1]));
        ReorderBuffer {
            expected,
            cursor: 0,
            parked: BTreeMap::new(),
        }
    }

    /// Accept one completed record (any order).
    fn push(&mut self, rec: TrialRecord) {
        let prev = self.parked.insert(rec.index, rec);
        debug_assert!(prev.is_none(), "trial {} pushed twice", rec.index);
    }

    /// The next in-order record, if it has arrived.
    fn pop_ready(&mut self) -> Option<TrialRecord> {
        let next = *self.expected.get(self.cursor)?;
        let rec = self.parked.remove(&next)?;
        self.cursor += 1;
        Some(rec)
    }

    /// Records delivered so far.
    fn delivered(&self) -> usize {
        self.cursor
    }

    /// Whether every expected record has been delivered.
    fn is_drained(&self) -> bool {
        self.cursor == self.expected.len()
    }
}

/// A reorder buffer wired to a [`TrialConsumer`] — borrowed ones
/// fanned out through a `Vec<&mut dyn TrialConsumer>`, or an owned one
/// ([`CampaignRun`](super::CampaignRun) owns its sinks): `push` a
/// completed trial and every record that became in-order is delivered
/// immediately (live streaming, not post-hoc).
pub struct TrialPipeline<C> {
    buffer: ReorderBuffer,
    /// Visible to [`CampaignRun`](super::CampaignRun), which reads its
    /// owned sinks' folded state back out.
    pub(super) consumers: C,
    stopped: bool,
}

impl<C: TrialConsumer> TrialPipeline<C> {
    /// Pipeline delivering `expected` (ascending trial indices) to
    /// `consumers`.
    pub fn new(expected: Vec<usize>, consumers: C) -> TrialPipeline<C> {
        TrialPipeline {
            buffer: ReorderBuffer::new(expected),
            consumers,
            stopped: false,
        }
    }

    /// Accept one completed record and deliver everything that became
    /// in-order. After a stop request, records are dropped undelivered
    /// — the delivered prefix is final.
    pub fn push(&mut self, rec: TrialRecord) {
        if self.stopped {
            return;
        }
        self.buffer.push(rec);
        self.drain_ready();
    }

    /// Accept a batch of completed records (any order) and deliver
    /// everything that became in-order, with one drain pass. Delivery
    /// order and stop position are identical to pushing the records one
    /// by one — the reorder buffer releases strictly by owned index
    /// either way — so batching is observationally invisible; it only
    /// amortizes the per-record bookkeeping (and, for callers holding a
    /// lock around the pipeline, the lock traffic).
    pub fn push_batch(&mut self, records: impl IntoIterator<Item = TrialRecord>) {
        if self.stopped {
            return;
        }
        for rec in records {
            self.buffer.push(rec);
        }
        self.drain_ready();
    }

    /// Deliver every parked record that is now in-order, stopping at
    /// the first consumer stop request.
    fn drain_ready(&mut self) {
        while !self.stopped {
            let Some(ready) = self.buffer.pop_ready() else {
                break;
            };
            if self.consumers.consume(&ready) {
                self.stopped = true;
            }
        }
    }

    /// Whether a consumer requested an early stop.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Records delivered to consumers so far.
    pub fn delivered(&self) -> usize {
        self.buffer.delivered()
    }

    /// Whether every expected record has been delivered.
    pub fn is_drained(&self) -> bool {
        self.buffer.is_drained()
    }

    /// Signal end-of-stream to every consumer.
    pub fn finish(&mut self) {
        self.consumers.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(index: usize) -> TrialRecord {
        TrialRecord {
            index,
            outcome: TestOutcome::success(true, 1, 1),
            attempts: 1,
            resumed: false,
            latency_us: 0,
            features: None,
        }
    }

    /// Consumer recording the delivery order it saw.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<usize>,
        stop_at: Option<usize>,
        finished: bool,
    }

    impl TrialConsumer for Recorder {
        fn consume(&mut self, rec: &TrialRecord) -> bool {
            self.seen.push(rec.index);
            self.stop_at == Some(rec.index)
        }
        fn finish(&mut self) {
            self.finished = true;
        }
    }

    #[test]
    fn buffer_reorders_any_completion_order() {
        let mut buf = ReorderBuffer::new(vec![0, 2, 5]);
        buf.push(rec(5));
        assert!(buf.pop_ready().is_none());
        buf.push(rec(0));
        assert_eq!(buf.pop_ready().unwrap().index, 0);
        assert!(buf.pop_ready().is_none(), "2 still missing");
        buf.push(rec(2));
        assert_eq!(buf.pop_ready().unwrap().index, 2);
        assert_eq!(buf.pop_ready().unwrap().index, 5);
        assert!(buf.is_drained());
        assert_eq!(buf.delivered(), 3);
    }

    #[test]
    fn pipeline_delivers_in_order_to_all_consumers() {
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        {
            let consumers: Vec<&mut dyn TrialConsumer> = vec![&mut a, &mut b];
            let mut p = TrialPipeline::new(vec![1, 3, 4], consumers);
            p.push(rec(4));
            p.push(rec(3));
            assert_eq!(p.delivered(), 0, "1 gates everything");
            p.push(rec(1));
            assert!(p.is_drained());
            p.finish();
        }
        assert_eq!(a.seen, vec![1, 3, 4]);
        assert_eq!(b.seen, vec![1, 3, 4]);
        assert!(a.finished && b.finished);
    }

    #[test]
    fn stop_request_freezes_the_delivered_prefix() {
        let mut a = Recorder {
            stop_at: Some(1),
            ..Recorder::default()
        };
        {
            let consumers: Vec<&mut dyn TrialConsumer> = vec![&mut a];
            let mut p = TrialPipeline::new((0..5).collect(), consumers);
            // 2 completes first but must not be delivered: the stop at 1
            // is decided before 2's turn.
            p.push(rec(2));
            p.push(rec(0));
            p.push(rec(1));
            assert!(p.stopped());
            assert_eq!(p.delivered(), 2);
            // Late completions after the stop are dropped.
            p.push(rec(3));
            assert_eq!(p.delivered(), 2);
        }
        assert_eq!(a.seen, vec![0, 1]);
    }
}
