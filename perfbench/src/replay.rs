//! Replay hosts: simulated application hosts that call `ScrubAgent::log`
//! for each generated event at its timestamp, embedding the real agent
//! harness for query installs, flushes, heartbeats and acks.

use std::collections::VecDeque;
use std::rc::Rc;

use scrub_core::config::ScrubConfig;
use scrub_server::msg::TIMER_AGENT_FLUSH;
use scrub_server::{AgentHarness, ScrubMsg};
use scrub_simnet::{Context, Node, NodeId, SimDuration};

use crate::fleet::FleetEvent;
use crate::trace::{SpanName, Tracer};

/// Timer id of the replay loop (below the harness's reserved range).
const TIMER_REPLAY: u64 = 1;

/// One replayed application host.
pub struct ReplayHost {
    harness: AgentHarness,
    pending: VecDeque<FleetEvent>,
    /// How long the replay loop may sleep with nothing pending: one step,
    /// which the generator's look-ahead always covers.
    poll: SimDuration,
    closed: bool,
    offered: u64,
    tracer: Option<Rc<Tracer>>,
    /// `batches_flushed` as of the previous flush (traced runs only).
    batches_seen: u64,
}

impl ReplayHost {
    pub fn new(
        name: &str,
        config: ScrubConfig,
        central: NodeId,
        poll: SimDuration,
        tracer: Option<Rc<Tracer>>,
    ) -> Self {
        ReplayHost {
            harness: AgentHarness::new(name, config, central),
            pending: VecDeque::new(),
            poll,
            closed: false,
            offered: 0,
            tracer,
            batches_seen: 0,
        }
    }

    /// The embedded harness (its agent holds the tap counters).
    pub fn harness(&self) -> &AgentHarness {
        &self.harness
    }

    /// Events handed to `ScrubAgent::log` so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Queue generated events (any order; kept sorted by timestamp).
    pub fn push(&mut self, mut events: Vec<FleetEvent>) {
        if events.is_empty() || self.closed {
            return;
        }
        events.sort_by_key(|e| e.timestamp);
        let in_order = self
            .pending
            .back()
            .is_none_or(|last| last.timestamp <= events[0].timestamp);
        self.pending.extend(events);
        if !in_order {
            self.pending.make_contiguous().sort_by_key(|e| e.timestamp);
        }
    }

    /// Stop replaying: events not yet due are never offered.
    pub fn close(&mut self) {
        self.closed = true;
        self.pending.clear();
    }

    fn replay(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        let now_ms = ctx.now.as_ms();
        let agent = self.harness.agent();
        while let Some(ev) = self.pending.front() {
            if ev.timestamp > now_ms {
                break;
            }
            agent.log(ev.type_id, ev.request_id, ev.timestamp, &ev.values);
            self.offered += 1;
            self.pending.pop_front();
        }
        if self.closed {
            return;
        }
        let delay = match self.pending.front() {
            Some(ev) => SimDuration::from_us(ev.timestamp * 1_000 - ctx.now.as_us()),
            None => self.poll,
        };
        ctx.set_timer(delay, TIMER_REPLAY);
    }
}

impl Node<ScrubMsg> for ReplayHost {
    fn on_start(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        self.harness.start(ctx);
        ctx.set_timer(self.poll, TIMER_REPLAY);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScrubMsg>, from: NodeId, msg: ScrubMsg) {
        match self.tracer.clone() {
            Some(t) => {
                t.begin(SpanName::HostOther);
                let _ = self.harness.on_message(ctx, from, msg);
                t.end();
            }
            None => {
                let _ = self.harness.on_message(ctx, from, msg);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ScrubMsg>, timer: u64) {
        let Some(t) = self.tracer.clone() else {
            if !self.harness.on_timer(ctx, timer) {
                self.replay(ctx);
            }
            return;
        };
        if timer == TIMER_REPLAY {
            t.begin(SpanName::AgentLog);
            self.replay(ctx);
            t.end();
        } else if timer == TIMER_AGENT_FLUSH {
            t.begin(SpanName::AgentFlush);
            self.harness.on_timer(ctx, timer);
            let span = t.end().and_then(|(_, raw)| raw);
            // every batch made since the previous flush (size-triggered
            // ones included) leaves in this one
            let made = self.harness.agent().stats().snapshot().batches_flushed;
            let shipped = made - std::mem::replace(&mut self.batches_seen, made);
            t.note_flush(self.harness.agent().host(), span, shipped);
        } else {
            t.begin(SpanName::HostOther);
            self.harness.on_timer(ctx, timer);
            t.end();
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
