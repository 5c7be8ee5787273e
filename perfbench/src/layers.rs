//! Per-layer metrics of a traced run, each timed from outside at calls
//! into public functions: span totals from [`crate::trace`], agent and
//! central counters, and post-run replays of the batches central received
//! through the columnar codec and a standalone executor.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use scrub_agent::{BatchPayload, EventBatch};
use scrub_central::PartitionedExecutor;
use scrub_core::columnar::ColumnarFrame;
use scrub_core::config::ScrubConfig;

use crate::report::{median, nearest_rank, sorted, Metric};
use crate::run::RunOutput;
use crate::trace::{SpanName, SpanTotals, Tracer};

/// Layers the step time splits into, by span.
const LAYERS: [(&str, &[SpanName]); 3] = [
    (
        "host",
        &[
            SpanName::AgentLog,
            SpanName::AgentFlush,
            SpanName::HostOther,
        ],
    ),
    (
        "central",
        &[
            SpanName::CentralIngest,
            SpanName::CentralAdvance,
            SpanName::CentralOther,
        ],
    ),
    ("server", &[SpanName::ServerHandler]),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of step wall time per layer (host, central, server, simnet),
/// and the largest.
pub fn layer_shares(tracer: &Tracer) -> (Vec<(&'static str, f64)>, &'static str) {
    let totals = tracer.totals();
    let get = |n: SpanName| totals.get(&n).copied().unwrap_or_default();
    let step = get(SpanName::Step);
    let mut shares: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|(layer, spans)| {
            let ns: u64 = spans.iter().map(|s| get(*s).total_ns).sum();
            (*layer, ratio(ns as f64, step.total_ns as f64))
        })
        .collect();
    shares.push(("simnet", ratio(step.self_ns as f64, step.total_ns as f64)));
    let dominant = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("four layers")
        .0;
    (shares, dominant)
}

/// Columnar decode and encode of the captured frames: (decode ns/event,
/// encode ns/event).
fn codec(captured: &[EventBatch]) -> (f64, f64) {
    let (mut dec_ns, mut enc_ns, mut events) = (0u64, 0u64, 0u64);
    for b in captured {
        let BatchPayload::Columnar(frame) = &b.payload else {
            continue;
        };
        if frame.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        let decoded = black_box(frame.decode());
        dec_ns += t0.elapsed().as_nanos() as u64;
        assert!(decoded.is_ok(), "captured frame decodes");
        let rows = b.payload.to_rows();
        let t0 = Instant::now();
        black_box(ColumnarFrame::from_events(black_box(&rows)));
        enc_ns += t0.elapsed().as_nanos() as u64;
        events += rows.len() as u64;
    }
    (
        ratio(dec_ns as f64, events as f64),
        ratio(enc_ns as f64, events as f64),
    )
}

/// The captured batches replayed, per query in arrival order, into a
/// standalone single-partition executor built from the same compiled
/// plan: ingest, with an advance to the newest timestamp every 64
/// batches and a final one closing every window. ns per event.
fn fold(captured: Vec<EventBatch>, run: &RunOutput, config: &ScrubConfig) -> f64 {
    let mut by_query: BTreeMap<u64, Vec<EventBatch>> = BTreeMap::new();
    for b in captured {
        by_query.entry(b.query_id.0).or_default().push(b);
    }
    let (mut ns, mut events) = (0u64, 0u64);
    for (qid, batches) in by_query {
        let Some(q) = run.queries.iter().find(|q| q.compiled.query_id.0 == qid) else {
            continue;
        };
        let mut exec =
            PartitionedExecutor::new(q.compiled.central.clone(), config.window_grace_ms, 1);
        events += batches.iter().map(|b| b.len() as u64).sum::<u64>();
        let mut newest = i64::MIN;
        let t0 = Instant::now();
        for (i, b) in batches.into_iter().enumerate() {
            if let Some((_, hi)) = b.payload.ts_range() {
                newest = newest.max(hi);
            }
            exec.ingest(b);
            if i % 64 == 63 {
                black_box(exec.advance(newest));
            }
        }
        black_box(exec.advance(i64::MAX / 4));
        ns += t0.elapsed().as_nanos() as u64;
    }
    ratio(ns as f64, events as f64)
}

/// Every per-layer metric of a traced run. `untraced` is the same
/// workload and extent without tracing, for the overhead.
pub fn per_layer(untraced: &RunOutput, traced: &RunOutput, tracer: &Tracer) -> Vec<Metric> {
    let config = ScrubConfig::default();
    let totals = tracer.totals();
    let get = |n: SpanName| -> SpanTotals { totals.get(&n).copied().unwrap_or_default() };
    let a = &traced.agent_delta;
    let (ingest_events, _) = tracer.ingest_counts();
    let advance = sorted(tracer.advance_ns().into_iter().map(|ns| ns as f64 / 1e6));
    let (advance_p50, advance_p99) = if advance.is_empty() {
        (0.0, 0.0)
    } else {
        (nearest_rank(&advance, 50.0), nearest_rank(&advance, 99.0))
    };
    let server = get(SpanName::ServerHandler);
    let captured = tracer.take_captured();
    let (decode, encode) = codec(&captured);
    let fold_ns = fold(captured, traced, &config);
    let (shares, _) = layer_shares(tracer);
    let share = |l: &str| shares.iter().find(|s| s.0 == l).map_or(0.0, |s| s.1);

    vec![
        Metric::new(
            "agent.log_ns_per_event",
            ratio(
                get(SpanName::AgentLog).total_ns as f64,
                traced.offered as f64,
            ),
            "ns",
        ),
        Metric::new(
            "agent.predicates_per_event",
            ratio(a.predicates_evaluated as f64, a.events_seen as f64),
            "count/event",
        ),
        Metric::new(
            "agent.match_ratio",
            ratio(a.events_matched as f64, a.events_active as f64),
            "ratio",
        ),
        Metric::new(
            "agent.flush_ns_per_batch",
            ratio(
                get(SpanName::AgentFlush).total_ns as f64,
                a.batches_flushed as f64,
            ),
            "ns",
        ),
        Metric::new("core.encode_ns_per_event", encode, "ns"),
        Metric::new("core.decode_ns_per_event", decode, "ns"),
        Metric::new(
            "simnet.wire_bytes_per_event",
            ratio(a.bytes_shipped as f64, a.events_shipped as f64),
            "bytes",
        ),
        Metric::new(
            "simnet.self_ns_per_msg",
            ratio(get(SpanName::Step).self_ns as f64, traced.sim_events as f64),
            "ns",
        ),
        Metric::new(
            "central.ingest_ns_per_event",
            ratio(
                get(SpanName::CentralIngest).total_ns as f64,
                ingest_events as f64,
            ),
            "ns",
        ),
        Metric::new("central.fold_ns_per_event", fold_ns, "ns"),
        Metric::new("central.advance_ms_p50", advance_p50, "ms"),
        Metric::new("central.advance_ms_p99", advance_p99, "ms"),
        Metric::new(
            "central.batch_age_ms_p50",
            traced.batch_age_ms.0.unwrap_or(0) as f64,
            "sim_ms",
        ),
        Metric::new(
            "central.batch_age_ms_p99",
            traced.batch_age_ms.1.unwrap_or(0) as f64,
            "sim_ms",
        ),
        Metric::new(
            "central.join_rows_held_peak",
            traced.join_rows_held_peak as f64,
            "rows",
        ),
        Metric::new(
            "central.duplicate_batches",
            traced.duplicate_batches as f64,
            "count",
        ),
        Metric::new(
            "server.handler_ns",
            ratio(server.total_ns as f64, server.count as f64),
            "ns",
        ),
        Metric::new(
            "server.submit_ms",
            median(traced.submit_ns.iter().map(|ns| *ns as f64 / 1e6)),
            "ms",
        ),
        Metric::new("layer.host_share", share("host"), "ratio"),
        Metric::new("layer.central_share", share("central"), "ratio"),
        Metric::new("layer.server_share", share("server"), "ratio"),
        Metric::new("layer.simnet_share", share("simnet"), "ratio"),
        Metric::new(
            "trace.overhead_share",
            1.0 - traced.events_per_s() / untraced.events_per_s(),
            "ratio",
        ),
    ]
}
