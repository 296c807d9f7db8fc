//! The per-node state of the round/frontier engine ([`super::par`]): node
//! cells, the [`Comm`] operations node programs perform on them, and the
//! run's setup and teardown.
//!
//! The engine executes node programs in *rounds*. A round polls every node
//! on the ready frontier once — the node runs until it parks in a blocked
//! [`Comm::recv`] or finishes — with sends buffered in the sender's outbox
//! and observability records in a per-node record buffer. A barrier then
//! commits the round: outboxes are delivered to inboxes in ascending
//! node-id order (which makes the receive-queue high-water mark
//! deterministic), buffered records are flushed to the attached
//! [`TraceSink`] in the same order, and the parked nodes whose awaited
//! `(src, tag)` message has now arrived form the next frontier.
//!
//! Because a round's sends stay invisible until its barrier, the members of
//! one frontier are mutually independent: polling them in any order — or on
//! any number of threads — produces the same clocks, statistics, traces,
//! record stream and inbox peaks. That is why the engine's output does not
//! depend on its worker count; `tests/engine_diff.rs` pins one- and
//! multi-worker runs to golden digests and `tests/obs_invariants.rs`
//! compares them byte for byte.
//!
//! Nothing in this file reads a wall clock: virtual time comes from the
//! [`CostModel`] alone, so the scheduler profiler
//! ([`crate::obs::sched`]) — which *does* timestamp worker phases with
//! monotonic host time — lives entirely in the engine's worker loop and
//! barrier, outside this file. Cells stay timestamp-free and
//! byte-identical whether or not profiling is on.
//!
//! [`Comm`]: super::Comm
//! [`Comm::recv`]: super::Comm::recv

use super::engine::{NodeOutcome, RunOutcome};
use super::trace::{Trace, TraceEvent, TraceKind};
use super::{LinkModel, Tag};
use crate::address::NodeId;
use crate::cost::{CostModel, VirtualClock};
use crate::obs::metrics::{self, EngineMetrics};
use crate::obs::sink::{NodeSummary, TraceSink};
use crate::obs::{NodeMetrics, SpanLog};
use crate::stats::RunStats;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};

/// A node cell as shared between its program's task and the barrier.
pub(super) type SharedCell<K> = Arc<Mutex<NodeCell<K>>>;

/// A message buffered in the sender's outbox until the round's barrier,
/// then parked in the destination's inbox until received.
pub(super) struct SimMessage<K> {
    pub(super) src: NodeId,
    pub(super) dst: NodeId,
    pub(super) tag: Tag,
    pub(super) data: Vec<K>,
    pub(super) sent_at: f64,
    pub(super) hops: u32,
    /// Link-scheduled arrival time, stamped by the serial flush under
    /// [`LinkModel::Contended`]. NaN under [`LinkModel::Uncontended`],
    /// where the receiver prices the transfer itself — keeping that path's
    /// float operations identical to the pre-contention engine.
    pub(super) arrival: f64,
    /// Time spent queued behind busy links, µs (0 when uncontended).
    pub(super) wait: f64,
}

/// An observability record buffered in its node's cell until the barrier
/// flushes it to the sink — per-node program order is preserved, and the
/// barrier's node-id-ordered flush makes the global stream deterministic.
pub(super) enum CellRecord {
    Event(TraceEvent),
    Span { phase: Option<u16>, time: f64 },
}

/// Capacity preallocated for a node's trace buffer when tracing is on.
///
/// One step-8 pass of the fault-tolerant sort runs at most `dim` merge
/// stages of up to `dim` substages each, and every substage produces at
/// most 6 traced events per node (two protocol rounds of send + recv,
/// plus compute charges). `16·dim² + 64` therefore covers the heaviest
/// algorithm in the workspace with ≥2× slack — a buffer that overflows it
/// simply reallocates, so this is a fast path, not a correctness bound.
fn trace_capacity(dim: usize) -> usize {
    16 * dim * dim + 64
}

/// Per-node state of a frontier-scheduled run. During a round only the
/// node's own task touches its cell; at the barrier only the claimant of
/// its shard (or the serial flush) does — so every lock acquisition is
/// uncontended.
pub(super) struct NodeCell<K> {
    pub(super) clock: VirtualClock,
    pub(super) stats: RunStats,
    pub(super) trace: Option<Vec<TraceEvent>>,
    /// Observability spans ([`super::Comm::span_enter`]).
    pub(super) spans: SpanLog,
    /// Per-node utilization/communication metrics. `inbox_peak` here is
    /// exact and deterministic: the inbox length right after each
    /// barrier-ordered enqueue.
    pub(super) metrics: NodeMetrics,
    /// `Some((src, tag))` while the node is parked in a blocked `recv`.
    pub(super) waiting: Option<(NodeId, Tag)>,
    pub(super) participating: bool,
    /// Set (under the cell lock) when the node program returns.
    pub(super) done: bool,
    /// Messages delivered to this node, scanned front-to-back on `recv` so
    /// delivery stays FIFO per `(src, tag)` — the same order a channel
    /// gives.
    pub(super) inbox: Vec<SimMessage<K>>,
    /// Messages this node sent in the current round, awaiting the barrier.
    pub(super) outbox: Vec<SimMessage<K>>,
    /// Records awaiting the barrier flush (filled only when `sinking`).
    pub(super) records: Vec<CellRecord>,
    /// Whether a [`TraceSink`] is attached to the run.
    pub(super) sinking: bool,
}

impl<K> NodeCell<K> {
    fn new(dim: usize, tracing: bool, sinking: bool, participating: bool) -> Self {
        NodeCell {
            clock: VirtualClock::new(),
            stats: RunStats::new(),
            trace: (tracing && participating).then(|| Vec::with_capacity(trace_capacity(dim))),
            spans: SpanLog::new(),
            metrics: NodeMetrics::new(dim),
            waiting: None,
            participating,
            done: false,
            inbox: Vec::new(),
            outbox: Vec::new(),
            records: Vec::new(),
            sinking: sinking && participating,
        }
    }

    fn observing(&self) -> bool {
        self.trace.is_some() || self.sinking
    }

    fn emit(&mut self, ev: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(ev);
        }
        if self.sinking {
            self.records.push(CellRecord::Event(ev));
        }
    }
}

/// Builds one cell per processor address plus the static participation map
/// the send-side assert checks against.
pub(super) fn build_cells<K, I>(
    inputs: &[Option<I>],
    dim: usize,
    tracing: bool,
    sinking: bool,
) -> (Vec<SharedCell<K>>, Arc<Vec<bool>>) {
    let participation: Arc<Vec<bool>> = Arc::new(inputs.iter().map(Option::is_some).collect());
    let cells = participation
        .iter()
        .map(|&p| Arc::new(Mutex::new(NodeCell::new(dim, tracing, sinking, p))))
        .collect();
    (cells, participation)
}

/// The frontier engine's half of a [`super::NodeCtx`]: all operations act
/// on the node's own cell, so node programs of one round never contend.
pub(super) struct CellCtx<K> {
    cell: Arc<Mutex<NodeCell<K>>>,
    participation: Arc<Vec<bool>>,
    /// Live-telemetry handles, resolved once at construction (cold path);
    /// `None` — a single check per hook — whenever the process-global
    /// registry is not installed. Recording never touches clocks or
    /// payloads, so simulated output is byte-identical either way.
    metrics: Option<EngineMetrics>,
}

impl<K> CellCtx<K> {
    pub(super) fn new(cell: Arc<Mutex<NodeCell<K>>>, participation: Arc<Vec<bool>>) -> Self {
        CellCtx {
            cell,
            participation,
            metrics: metrics::global().map(|g| g.run.engine.clone()),
        }
    }

    fn cell(&self) -> std::sync::MutexGuard<'_, NodeCell<K>> {
        self.cell.lock().expect("node cell lock poisoned")
    }

    pub(super) fn send(
        &mut self,
        me: NodeId,
        dst: NodeId,
        tag: Tag,
        data: Vec<K>,
        hops: u32,
        cost: CostModel,
    ) {
        assert!(
            self.participation[dst.index()],
            "send to non-participating node {dst:?}"
        );
        if let Some(m) = &self.metrics {
            m.elements_priced.add(data.len() as u64);
            m.msg_elements.record(data.len() as u64);
        }
        let mut cell = self.cell();
        // The sender's port is busy pushing the elements onto its first link.
        cell.clock.advance(cost.transfer(data.len(), hops.min(1)));
        cell.stats.record_message(data.len(), hops);
        cell.metrics.on_send(me, dst, data.len(), hops, &cost);
        if cell.observing() {
            let ev = TraceEvent {
                time: cell.clock.now(),
                node: me,
                tag,
                kind: TraceKind::Send {
                    to: dst,
                    elements: data.len(),
                    hops,
                },
            };
            cell.emit(ev);
        }
        let sent_at = cell.clock.now();
        cell.outbox.push(SimMessage {
            src: me,
            dst,
            tag,
            data,
            sent_at,
            hops,
            arrival: f64::NAN,
            wait: 0.0,
        });
    }

    pub(super) async fn recv(
        &mut self,
        me: NodeId,
        src: NodeId,
        tag: Tag,
        cost: CostModel,
    ) -> Vec<K> {
        loop {
            {
                let mut cell = self.cell();
                if let Some(i) = cell.inbox.iter().position(|m| m.src == src && m.tag == tag) {
                    let msg = cell.inbox.remove(i);
                    cell.waiting = None;
                    let before = cell.clock.now();
                    if msg.arrival.is_nan() {
                        // Uncontended: the receiver prices the wire itself.
                        cell.clock
                            .receive(msg.sent_at, cost.transfer(msg.data.len(), msg.hops));
                    } else {
                        // Contended: the serial flush's link ledger already
                        // decided when this message lands.
                        cell.clock.receive_at(msg.arrival);
                    }
                    // Any forward jump is time spent waiting on the wire.
                    cell.metrics.blocked_us += cell.clock.now() - before;
                    cell.metrics.link_wait_us += msg.wait;
                    cell.metrics.msgs_received += 1;
                    if let Some(m) = &self.metrics {
                        if msg.wait > 0.0 {
                            m.link_wait_us.add(msg.wait as u64);
                        }
                    }
                    if cell.observing() {
                        let ev = TraceEvent {
                            time: cell.clock.now(),
                            node: me,
                            tag,
                            kind: TraceKind::Recv {
                                from: src,
                                elements: msg.data.len(),
                                wait: msg.wait,
                            },
                        };
                        cell.emit(ev);
                    }
                    return msg.data;
                }
                // Park: the barrier wakes us once the message is delivered.
                cell.waiting = Some((src, tag));
            }
            PendOnce(false).await;
        }
    }

    pub(super) fn charge_comparisons(&mut self, me: NodeId, count: usize, cost: CostModel) {
        let mut cell = self.cell();
        cell.clock.advance(cost.compare(count));
        cell.stats.record_comparisons(count);
        if cell.observing() {
            let ev = TraceEvent {
                time: cell.clock.now(),
                node: me,
                tag: Tag::new(0),
                kind: TraceKind::Compute { comparisons: count },
            };
            cell.emit(ev);
        }
    }

    pub(super) fn span_enter(&mut self, me: NodeId, phase: u16) {
        let _ = me;
        let mut cell = self.cell();
        let now = cell.clock.now();
        cell.spans.enter(phase, now);
        if cell.sinking {
            cell.records.push(CellRecord::Span {
                phase: Some(phase),
                time: now,
            });
        }
    }

    pub(super) fn span_exit(&mut self, me: NodeId) {
        let _ = me;
        let mut cell = self.cell();
        let now = cell.clock.now();
        cell.spans.exit(now);
        if cell.sinking {
            cell.records.push(CellRecord::Span {
                phase: None,
                time: now,
            });
        }
    }

    pub(super) fn charge_compute(&mut self, cost: f64) {
        self.cell().clock.advance(cost);
    }

    pub(super) fn clock(&self) -> f64 {
        self.cell().clock.now()
    }
}

/// Yields exactly once, returning control to the scheduler.
pub(super) struct PendOnce(pub(super) bool);

impl Future for PendOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            Poll::Pending
        }
    }
}

/// Drains one node's buffered trace records into the sink, in buffer
/// (program) order.
pub(super) fn flush_records(
    sink: &Arc<Mutex<dyn TraceSink>>,
    node: usize,
    recs: &mut Vec<CellRecord>,
) {
    let mut sink = sink.lock().expect("trace sink lock poisoned");
    for rec in recs.drain(..) {
        match rec {
            CellRecord::Event(ev) => sink.event(&ev),
            CellRecord::Span { phase, time } => sink.span(NodeId::from(node), phase, time),
        }
    }
}

/// Panics with the full wait map — called when unfinished nodes remain but
/// the next frontier is empty.
pub(super) fn deadlock_panic<K>(cells: &[Arc<Mutex<NodeCell<K>>>], remaining: usize) -> ! {
    let parked: Vec<String> = cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let cell = c.lock().expect("node cell lock poisoned");
            cell.waiting
                .map(|(src, tag)| format!("P{i} waits for ({src:?}, {tag:?})"))
        })
        .collect();
    panic!(
        "deadlock: no runnable node, {remaining} unfinished [{}]",
        parked.join("; ")
    );
}

/// Unwraps the cells into per-node outcomes, emits the sink footer and
/// assembles the [`RunOutcome`] — the tail of every run.
pub(super) fn collect_run<K, T>(
    cells: Vec<Arc<Mutex<NodeCell<K>>>>,
    results: Vec<Option<T>>,
    sink: &Option<Arc<Mutex<dyn TraceSink>>>,
    dim: usize,
    cost: CostModel,
    link_model: LinkModel,
) -> RunOutcome<T> {
    let mut outcomes: Vec<Option<NodeOutcome<T>>> = Vec::with_capacity(cells.len());
    let mut traces = Vec::new();
    for (i, (result, cell)) in results.into_iter().zip(cells).enumerate() {
        let cell = Arc::into_inner(cell)
            .expect("all node contexts dropped with their tasks")
            .into_inner()
            .expect("node cell lock poisoned");
        match result {
            Some(result) => {
                let clock = cell.clock.now();
                outcomes.push(Some(NodeOutcome {
                    result,
                    clock,
                    stats: cell.stats,
                    spans: cell.spans.finish(clock),
                    metrics: cell.metrics,
                }));
                traces.push(cell.trace.unwrap_or_default());
            }
            None => {
                debug_assert!(!cell.participating, "participant P{i} lost its result");
                outcomes.push(None);
            }
        }
    }
    if let Some(sink) = sink {
        let summaries: Vec<NodeSummary> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                o.as_ref().map(|o| NodeSummary {
                    node: NodeId::from(i),
                    clock: o.clock,
                    blocked_us: o.metrics.blocked_us,
                    inbox_peak: o.metrics.inbox_peak,
                })
            })
            .collect();
        sink.lock()
            .expect("trace sink lock poisoned")
            .finish(&summaries);
    }
    RunOutcome::new(outcomes, Trace::assemble(traces), dim, cost, link_model)
}
