//! Benchmark-side tracing: spans recorded around the calls the benchmark
//! makes into each layer, kept in memory and written out at the end.
//!
//! The pipeline's own nodes are wrapped in [`NodeShim`], which implements
//! `Node` by timing and forwarding every callback; `as_any` forwards to
//! the wrapped node, so `ScrubClient`/`QueryHandle` downcasts still reach
//! the real `CentralNode`/`QueryServerNode`. Replay hosts time their own
//! `log` and `on_timer` calls. Each measured step is a root span.
//!
//! A span's self time is its duration minus that of its direct children;
//! the step's self time is therefore the simulator's own work (queueing,
//! dispatch, delivery). Central ingest spans carry the batch identity
//! (host, query, seq) and point at the `agent.flush` span that shipped
//! the batch.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use scrub_server::msg::TIMER_CENTRAL_ADVANCE;
use scrub_server::ScrubMsg;
use scrub_simnet::{Context, Node, NodeId};

/// Raw spans kept for the written trace; aggregates cover every span.
const RAW_SPAN_CAP: usize = 100_000;
/// Events of captured batches kept for the codec and executor replays.
const CAPTURE_EVENT_CAP: usize = 1_500_000;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanName {
    /// One measured step: `Sim::run_until` over one step of sim time.
    Step,
    /// A replay host logging its due events through `ScrubAgent::log`.
    AgentLog,
    /// `AgentHarness::on_timer(TIMER_AGENT_FLUSH)`.
    AgentFlush,
    /// Any other replay-host callback (heartbeats, acks, installs).
    HostOther,
    /// `CentralNode::on_message` with a `Batch`.
    CentralIngest,
    /// `CentralNode::on_timer(TIMER_CENTRAL_ADVANCE)`.
    CentralAdvance,
    /// Any other `CentralNode` callback.
    CentralOther,
    /// Any `QueryServerNode` callback.
    ServerHandler,
}

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Step => "step",
            SpanName::AgentLog => "agent.log",
            SpanName::AgentFlush => "agent.flush",
            SpanName::HostOther => "host.other",
            SpanName::CentralIngest => "central.ingest",
            SpanName::CentralAdvance => "central.advance",
            SpanName::CentralOther => "central.other",
            SpanName::ServerHandler => "server.handler",
        }
    }
}

/// Identity of a shipped batch.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BatchId {
    host: String,
    query: u64,
    seq: u64,
}

#[derive(Debug, Clone)]
struct RawSpan {
    name: SpanName,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    step: u64,
    batch: Option<BatchId>,
    /// The span that caused this one (the flush that shipped a batch).
    cause: Option<usize>,
}

/// Totals per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: SpanName,
    start: Instant,
    child_ns: u64,
    raw: Option<usize>,
}

#[derive(Default)]
struct State {
    /// Spans are recorded only inside the measured interval.
    recording: bool,
    stack: Vec<Open>,
    totals: BTreeMap<SpanName, SpanTotals>,
    raw: Vec<RawSpan>,
    raw_dropped: u64,
    step: u64,
    /// Per host: flush spans whose batches have not all reached central
    /// yet, with the number still expected.
    flushes: HashMap<String, VecDeque<(Option<usize>, u64)>>,
    ingest_events: u64,
    ingest_batches: u64,
    advance_ns: Vec<u64>,
    /// Batches delivered to central, kept for the codec and executor
    /// replays.
    captured: Vec<scrub_agent::EventBatch>,
    captured_events: usize,
}

/// What central's shim saw of one delivered batch.
struct IngestSeen {
    id: BatchId,
    attempt: u32,
    len: usize,
    /// A full copy, while the capture budget lasts.
    copy: Option<scrub_agent::EventBatch>,
}

/// Shared span recorder (single-threaded, like the simulator).
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        })
    }

    /// Start or stop recording; only called between steps, when no span
    /// is open.
    pub fn set_recording(&self, on: bool) {
        let mut st = self.state.borrow_mut();
        debug_assert!(st.stack.is_empty(), "recording toggled inside a span");
        st.recording = on;
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&self, name: SpanName) {
        let start = Instant::now();
        let mut st = self.state.borrow_mut();
        if !st.recording {
            return;
        }
        let parent = st.stack.last().and_then(|o| o.raw);
        let raw = if st.raw.len() < RAW_SPAN_CAP {
            let step = st.step;
            st.raw.push(RawSpan {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
                step,
                batch: None,
                cause: None,
            });
            Some(st.raw.len() - 1)
        } else {
            st.raw_dropped += 1;
            None
        };
        st.stack.push(Open {
            name,
            start,
            child_ns: 0,
            raw,
        });
    }

    /// Close the innermost span; returns its duration and raw index, or
    /// `None` outside the measured interval.
    pub fn end(&self) -> Option<(u64, Option<usize>)> {
        let end = Instant::now();
        let mut st = self.state.borrow_mut();
        if !st.recording {
            return None;
        }
        let open = st.stack.pop().expect("end() matches a begin()");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let t = st.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.raw {
            st.raw[i].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        Some((dur, open.raw))
    }

    /// Set the step index root spans are tagged with.
    pub fn set_step(&self, step: u64) {
        self.state.borrow_mut().step = step;
    }

    /// A replay host's flush span shipped `batches` batches.
    pub fn note_flush(&self, host: &str, span: Option<usize>, batches: u64) {
        let mut st = self.state.borrow_mut();
        if st.recording && batches > 0 {
            st.flushes
                .entry(host.to_string())
                .or_default()
                .push_back((span, batches));
        }
    }

    fn wants_capture(&self) -> bool {
        let st = self.state.borrow();
        st.recording && st.captured_events < CAPTURE_EVENT_CAP
    }

    fn note_ingest(&self, span: Option<usize>, seen: IngestSeen) {
        let IngestSeen {
            id,
            attempt,
            len,
            copy,
        } = seen;
        let mut st = self.state.borrow_mut();
        if !st.recording {
            return;
        }
        st.ingest_batches += 1;
        st.ingest_events += len as u64;
        // first transmissions leave in flush order, one flush a second,
        // so the oldest flush with batches outstanding shipped this one
        let mut cause = None;
        if attempt == 0 {
            if let Some(q) = st.flushes.get_mut(&id.host) {
                if let Some(front) = q.front_mut() {
                    cause = front.0;
                    front.1 -= 1;
                    if front.1 == 0 {
                        q.pop_front();
                    }
                }
            }
        }
        if let Some(i) = span {
            st.raw[i].batch = Some(id);
            st.raw[i].cause = cause;
        }
        if let Some(batch) = copy {
            st.captured_events += len;
            st.captured.push(batch);
        }
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<SpanName, SpanTotals> {
        self.state.borrow().totals.clone()
    }

    /// (events, batches) delivered to central ingest.
    pub fn ingest_counts(&self) -> (u64, u64) {
        let st = self.state.borrow();
        (st.ingest_events, st.ingest_batches)
    }

    /// Wall durations of every central advance tick.
    pub fn advance_ns(&self) -> Vec<u64> {
        self.state.borrow().advance_ns.clone()
    }

    /// Events in the batches captured for the replays.
    pub fn captured_events(&self) -> usize {
        self.state.borrow().captured_events
    }

    /// Take the batches captured at central, in arrival order.
    pub fn take_captured(&self) -> Vec<scrub_agent::EventBatch> {
        std::mem::take(&mut self.state.borrow_mut().captured)
    }

    /// Write the raw spans as tab-separated lines: index, name, start ns,
    /// end ns, parent, step, batch host/query/seq, cause.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let st = self.state.borrow();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "# spans kept {} dropped {}\nid\tname\tstart_ns\tend_ns\tparent\tstep\tbatch_host\tbatch_query\tbatch_seq\tcause",
            st.raw.len(),
            st.raw_dropped
        )?;
        let opt = |o: Option<usize>| o.map(|i| i.to_string()).unwrap_or_else(|| "-".into());
        for (i, s) in st.raw.iter().enumerate() {
            let (h, q, seq) = match &s.batch {
                Some(b) => (b.host.as_str(), b.query.to_string(), b.seq.to_string()),
                None => ("-", "-".into(), "-".into()),
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{h}\t{q}\t{seq}\t{}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                s.step,
                opt(s.cause)
            )?;
        }
        w.flush()
    }
}

/// Times every callback of a wrapped pipeline node.
pub struct NodeShim<N> {
    inner: N,
    tracer: Rc<Tracer>,
    kind: ShimKind,
}

/// Which pipeline node a shim wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShimKind {
    Central,
    Server,
}

impl<N> NodeShim<N> {
    pub fn new(inner: N, tracer: Rc<Tracer>, kind: ShimKind) -> Self {
        NodeShim {
            inner,
            tracer,
            kind,
        }
    }

    fn other(&self) -> SpanName {
        match self.kind {
            ShimKind::Central => SpanName::CentralOther,
            ShimKind::Server => SpanName::ServerHandler,
        }
    }
}

impl<N: Node<ScrubMsg>> Node<ScrubMsg> for NodeShim<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        self.tracer.begin(self.other());
        self.inner.on_start(ctx);
        self.tracer.end();
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScrubMsg>, from: NodeId, msg: ScrubMsg) {
        match (&msg, self.kind) {
            (ScrubMsg::Batch(b), ShimKind::Central) => {
                let seen = IngestSeen {
                    id: BatchId {
                        host: b.host.clone(),
                        query: b.query_id.0,
                        seq: b.seq,
                    },
                    attempt: b.attempt,
                    len: b.len(),
                    copy: self.tracer.wants_capture().then(|| b.clone()),
                };
                self.tracer.begin(SpanName::CentralIngest);
                self.inner.on_message(ctx, from, msg);
                let raw = self.tracer.end().and_then(|(_, raw)| raw);
                self.tracer.note_ingest(raw, seen);
            }
            _ => {
                self.tracer.begin(self.other());
                self.inner.on_message(ctx, from, msg);
                self.tracer.end();
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ScrubMsg>, timer: u64) {
        if self.kind == ShimKind::Central && timer == TIMER_CENTRAL_ADVANCE {
            self.tracer.begin(SpanName::CentralAdvance);
            self.inner.on_timer(ctx, timer);
            if let Some((ns, _)) = self.tracer.end() {
                self.tracer.state.borrow_mut().advance_ns.push(ns);
            }
        } else {
            self.tracer.begin(self.other());
            self.inner.on_timer(ctx, timer);
            self.tracer.end();
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}
