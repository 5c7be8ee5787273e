//! Differential test of the typed column fold kernel: every columnar
//! frame is ingested by one executor through the column path and, as the
//! rows `payload.to_rows()` materialises from the same frame, by a twin
//! executor through the row loop. After every batch the two must agree
//! exactly — closed window partials (group keys, first-seen key values,
//! row counts and every aggregate state, f64s compared by bit pattern
//! except for the payload of computed NaNs),
//! operator counters, `groups_overflow`, `late_events_dropped` and the
//! per-host estimator moments.
//!
//! The frames cover every column shape the decoder produces (typed
//! Int/Long/Float/Double/DateTime/Bool/Str columns, validity bitmaps,
//! all-null columns, mixed-variant and list columns), colliding values
//! (±0.0, NaN payloads, `Int(1)`/`Long(1)`/`Bool(true)`/`DateTime(1)`,
//! which share one group key), hand-built frames whose string dictionary
//! repeats an entry, computed group keys and arguments (the per-row
//! fallback), the request-id/timestamp slots, a central residual filter,
//! sliding windows, late events, and `max_groups` caps small enough to
//! evict mid-chunk.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scrub_agent::{BatchPayload, EventBatch};
use scrub_central::{AggState, QueryExecutor, WindowPartial};
use scrub_core::columnar::ColumnarFrame;
use scrub_core::config::ScrubConfig;
use scrub_core::event::{Event, RequestId};
use scrub_core::expr::ResolvedExpr;
use scrub_core::plan::{compile, CentralPlan, HostSampleInfo, QueryId};
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::Value;
use scrub_sketch::Welford;

const FIELDS: [(&str, FieldType); 7] = [
    ("i", FieldType::Int),
    ("l", FieldType::Long),
    ("f", FieldType::Float),
    ("d", FieldType::Double),
    ("at", FieldType::DateTime),
    ("b", FieldType::Bool),
    ("s", FieldType::Str),
];

const QUERIES: [&str; 9] = [
    "select t.l, t.s, COUNT(*) from t group by t.l, t.s window 10 s",
    "select t.i, COUNT(t.d), SUM(t.d), AVG(t.f), MIN(t.s), MAX(t.d) from t \
     group by t.i window 10 s slide 5 s",
    "select t.d, t.b, COUNT(*), TOP(3, t.s), COUNT_DISTINCT(t.l) from t \
     group by t.d, t.b window 4 s slide 2 s",
    "select t.f, t.at, SUM(t.l), AVG(t.i), MIN(t.at), MAX(t.f), COUNT(t.b) from t \
     group by t.f, t.at window 10 s",
    "select t.l % 3, t.s, COUNT(*), SUM(t.i * 2), AVG(t.l + t.d) from t \
     group by t.l % 3, t.s window 10 s",
    "select t.timestamp, COUNT(*), MIN(t.request_id), COUNT_DISTINCT(t.request_id) from t \
     group by t.timestamp window 4 s slide 1 s",
    "select t.request_id % 5, COUNT(*), SUM(t.l), MAX(t.s) from t \
     group by t.request_id % 5 window 10 s",
    "select COUNT(*), SUM(t.l), AVG(t.d), COUNT(t.s), MIN(t.i), MAX(t.i) from t \
     sample events 50% window 10 s",
    "select t.s, COUNT(*), TOP(2, t.i), COUNT_DISTINCT(t.s), MIN(t.s), MAX(t.s) from t \
     group by t.s window 10 s",
];

fn registry() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    reg.register(
        EventSchema::new(
            "t",
            FIELDS
                .iter()
                .map(|(n, t)| FieldDef::new(*n, t.clone()))
                .collect(),
        )
        .unwrap(),
    )
    .unwrap();
    reg
}

fn plan(src: &str, max_groups: usize) -> CentralPlan {
    let config = ScrubConfig {
        max_groups,
        ..ScrubConfig::default()
    };
    let mut central = compile(&parse_query(src).unwrap(), &registry(), &config, QueryId(1))
        .unwrap()
        .central;
    // a sampled fleet, so sampled ungrouped plans fold estimator moments
    central.host_info = HostSampleInfo {
        matching: 4,
        selected: 3,
    };
    central
}

/// How a batch fills one field.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Typed,
    Nullable,
    AllNull,
    /// Variants mixed within the column (tagged fallback column).
    Mixed,
    /// Lists and nested values (tagged fallback column).
    Lists,
}

fn pick<T: Clone>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())].clone()
}

/// A typed value of `field` from a small, colliding pool.
fn typed(rng: &mut StdRng, field: &str) -> Value {
    let nan2 = f64::from_bits(0x7ff8_0000_0000_0001);
    match field {
        "i" => Value::Int(rng.gen_range(-2..3)),
        "l" => pick(rng, &[-1, 0, 1, 2, 7, i64::MIN, i64::MAX]).into(),
        "f" => Value::Float(pick(rng, &[0.0, -0.0, f32::NAN, 1.5, -2.25, f32::INFINITY])),
        "d" => Value::Double(pick(rng, &[0.0, -0.0, f64::NAN, nan2, 1.5, -2.0, 1e300])),
        "at" => Value::DateTime(rng.gen_range(-1..3)),
        "b" => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::Str(pick(rng, &["a", "b", "", "a b", "é"]).into()),
    }
}

fn value(rng: &mut StdRng, field: &str, mode: Mode) -> Value {
    match mode {
        Mode::Typed => typed(rng, field),
        Mode::Nullable if rng.gen_bool(0.3) => Value::Null,
        Mode::Nullable => typed(rng, field),
        Mode::AllNull => Value::Null,
        Mode::Mixed => pick(
            rng,
            &[
                Value::Int(1),
                Value::Long(1),
                Value::Bool(true),
                Value::DateTime(1),
                Value::Double(1.0),
                Value::Float(-0.0),
                Value::Str("1".into()),
                Value::Null,
            ],
        ),
        Mode::Lists => pick(
            rng,
            &[
                Value::List(vec![Value::Int(1)]),
                Value::List(vec![]),
                Value::Nested(vec![("k".into(), Value::Long(1))]),
                Value::Long(1),
                Value::Null,
            ],
        ),
    }
}

fn batch(host: &str, seq: u64, payload: BatchPayload) -> EventBatch {
    let n = payload.len() as u64;
    EventBatch {
        seq,
        attempt: 0,
        query_id: QueryId(1),
        type_id: EventTypeId(0),
        host: host.into(),
        payload,
        matched: n * 2,
        sampled: n,
        shed: 0,
        budget_shed: 0,
        seen: n * 2,
        bytes: 0,
        spans: vec![],
    }
}

/// A computed f64 (a sum, a mean) as its bit pattern, any NaN as `NaN`:
/// Rust leaves the payload of a NaN that arithmetic produces unspecified
/// (the optimiser may commute an addition's operands), so only the fact
/// of NaN is comparable. Stored input values keep their exact bits.
fn computed(x: f64) -> String {
    if x.is_nan() {
        "NaN".into()
    } else {
        format!("{:016x}", x.to_bits())
    }
}

fn welford(w: &Welford) -> String {
    format!(
        "{} {} {}",
        w.count(),
        computed(w.mean()),
        computed(w.variance_population())
    )
}

/// Value with its floats spelled as bit patterns.
fn canon_value(v: &Value) -> String {
    match v {
        Value::Float(x) => format!("Float#{:08x}", x.to_bits()),
        Value::Double(x) => format!("Double#{:016x}", x.to_bits()),
        Value::List(vs) => format!(
            "[{}]",
            vs.iter().map(canon_value).collect::<Vec<_>>().join(",")
        ),
        Value::Nested(kv) => format!(
            "{{{}}}",
            kv.iter()
                .map(|(k, v)| format!("{k}:{}", canon_value(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
        other => format!("{other:?}"),
    }
}

fn canon_agg(a: &AggState) -> String {
    let state = match a {
        AggState::Count(c) => format!("count {c}"),
        AggState::Sum { sum, any } => format!("sum {} {any}", computed(*sum)),
        AggState::Avg(w) => format!("avg {}", welford(w)),
        AggState::Min(v) | AggState::Max(v) => {
            format!("minmax {}", v.as_ref().map(canon_value).unwrap_or_default())
        }
        // the rendered TOP list orders count ties by hash-map iteration
        // order, so compare the counters and display values sorted instead
        AggState::TopK {
            k, sketch, display, ..
        } => {
            let mut counters: Vec<_> = sketch
                .top_k(usize::MAX)
                .into_iter()
                .map(|c| (c.item, c.count, c.error))
                .collect();
            counters.sort();
            let mut shown: Vec<_> = display.iter().map(|(k, v)| (k, canon_value(v))).collect();
            shown.sort();
            return format!("top {k} {counters:?} {shown:?}");
        }
        AggState::CountDistinct(_) => String::new(),
    };
    let finished = match a.finish(1.0) {
        Value::Double(x) => computed(x),
        other => canon_value(&other),
    };
    format!("{state} => {finished}")
}

fn canon_partials(ps: &[WindowPartial]) -> Vec<String> {
    let mut out = Vec::new();
    for p in ps {
        out.push(format!(
            "window {} overflow {}",
            p.window_start_ms, p.overflow_rows
        ));
        for (key, g) in &p.groups {
            let vals: Vec<String> = g.keys.iter().map(canon_value).collect();
            let aggs: Vec<String> = g.aggs.iter().map(canon_agg).collect();
            out.push(format!("  {key:?} {vals:?} rows {} {aggs:?}", g.rows));
        }
    }
    out
}

/// Everything the two executors must agree on, besides closed partials.
fn observe(ex: &QueryExecutor) -> Vec<String> {
    let mut out = vec![format!(
        "overflow {} late {}",
        ex.groups_overflow, ex.late_events_dropped
    )];
    for op in ex.plan_profile_partial().ops {
        out.push(format!(
            "op {} {} in {} out {}",
            op.id, op.label, op.rows_in, op.rows_out
        ));
    }
    for h in ex.export_estimator_state() {
        let moments: Vec<String> = h.moments.iter().map(welford).collect();
        out.push(format!("host {} matched {} {moments:?}", h.host, h.matched));
    }
    out
}

/// Feed one columnar payload to `col` and its materialised rows to `row`,
/// optionally closing windows at `now`, and compare everything.
fn step(
    col: &mut QueryExecutor,
    row: &mut QueryExecutor,
    b: EventBatch,
    now: Option<i64>,
) -> Result<(), String> {
    let rows = BatchPayload::Rows(b.payload.to_rows());
    let twin = EventBatch {
        payload: rows,
        ..b.clone()
    };
    col.ingest(b);
    row.ingest(twin);
    if let Some(now) = now {
        let (a, r) = (col.take_closed_partials(now), row.take_closed_partials(now));
        if canon_partials(&a) != canon_partials(&r) {
            return Err(format!(
                "closed partials differ at {now}:\ncolumn {:#?}\nrow {:#?}",
                canon_partials(&a),
                canon_partials(&r)
            ));
        }
    }
    if observe(col) != observe(row) {
        return Err(format!(
            "counters differ:\ncolumn {:#?}\nrow {:#?}",
            observe(col),
            observe(row)
        ));
    }
    Ok(())
}

/// Random batches for `src` under a `max_groups` cap, built by `frame`
/// from each batch's events; returns the first disagreement.
fn run_case(
    seed: u64,
    src: &str,
    max_groups: usize,
    frame: impl Fn(&mut StdRng, &[Event]) -> ColumnarFrame,
    fields: impl Fn(&mut StdRng, &str) -> Mode,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = plan(src, max_groups);
    // The planner gives single-input plans no central residual (their
    // whole WHERE runs on the hosts), but the column path supports one:
    // filter on the first slot's nullness.
    if rng.gen_bool(0.3) {
        p.residual = Some(ResolvedExpr::IsNull {
            expr: Box::new(ResolvedExpr::Input(p.inputs[0].block_offset)),
            negated: rng.gen_bool(0.5),
        });
    }
    let projected = p.inputs[0].fields.clone();
    let mut col = QueryExecutor::new(p.clone(), 0);
    let mut row = QueryExecutor::new(p, 0);
    let mut rid = 0u64;
    let mut clock = 0i64;
    for seq in 0..rng.gen_range(1..7u64) {
        let modes: Vec<Mode> = projected.iter().map(|f| fields(&mut rng, f)).collect();
        // short events (fewer values than projected fields) read Null
        let arity = if rng.gen_bool(0.1) {
            rng.gen_range(0..projected.len() + 1)
        } else {
            projected.len()
        };
        let n = rng.gen_range(1..40usize);
        let events: Vec<Event> = (0..n)
            .map(|_| {
                rid += rng.gen_range(0..3u64);
                // mostly current, some late (behind already-closed windows)
                let ts = clock + rng.gen_range(-15_000..12_000i64);
                let values = projected
                    .iter()
                    .zip(&modes)
                    .take(arity)
                    .map(|(f, m)| value(&mut rng, f, *m))
                    .collect();
                Event::new(EventTypeId(0), RequestId(rid), ts, values)
            })
            .collect();
        let host = pick(&mut rng, &["h0", "h1", "h2"]);
        let b = batch(host, seq, BatchPayload::Columnar(frame(&mut rng, &events)));
        let now = rng
            .gen_bool(0.6)
            .then(|| clock + rng.gen_range(-4_000..8_000i64));
        step(&mut col, &mut row, b, now)?;
        clock += rng.gen_range(0..9_000i64);
    }
    let (a, r) = (
        col.take_closed_partials(i64::MAX / 4),
        row.take_closed_partials(i64::MAX / 4),
    );
    if canon_partials(&a) != canon_partials(&r) {
        return Err(format!(
            "final partials differ:\ncolumn {:#?}\nrow {:#?}",
            canon_partials(&a),
            canon_partials(&r)
        ));
    }
    Ok(())
}

fn random_mode(rng: &mut StdRng, _field: &str) -> Mode {
    pick(
        rng,
        &[
            Mode::Typed,
            Mode::Typed,
            Mode::Nullable,
            Mode::AllNull,
            Mode::Mixed,
            Mode::Lists,
        ],
    )
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// A one-chunk columnar frame of Long and Str columns whose string
/// dictionaries repeat entries: each string is listed twice and rows
/// point at either copy (the encoder never does this; the decoder
/// accepts it, and group keys must still treat both copies as one).
fn dup_dict_frame(rng: &mut StdRng, events: &[Event]) -> ColumnarFrame {
    let n = events.len();
    let arity = events[0].values.len();
    let mut body = vec![0x00, 0x02];
    put_varint(&mut body, n as u64);
    put_varint(&mut body, 0);
    put_varint(&mut body, arity as u64);
    put_varint(&mut body, n as u64);
    for e in events {
        put_varint(&mut body, e.request_id.0);
    }
    for e in events {
        put_varint(&mut body, zigzag(e.timestamp));
    }
    for c in 0..arity {
        let mut col = Vec::new();
        let tag = match &events[0].values[c] {
            Value::Long(_) => {
                for e in events {
                    let Value::Long(x) = e.values[c] else {
                        panic!("long column")
                    };
                    put_varint(&mut col, zigzag(x));
                }
                3
            }
            Value::Str(_) => {
                let mut dict: Vec<String> = Vec::new();
                for e in events {
                    let Value::Str(s) = &e.values[c] else {
                        panic!("string column")
                    };
                    if !dict.contains(s) {
                        dict.push(s.clone());
                    }
                }
                put_varint(&mut col, 2 * dict.len() as u64);
                for s in dict.iter().chain(&dict) {
                    put_varint(&mut col, s.len() as u64);
                    col.extend_from_slice(s.as_bytes());
                }
                for e in events {
                    let Value::Str(s) = &e.values[c] else {
                        unreachable!()
                    };
                    let id = dict.iter().position(|d| d == s).unwrap();
                    let copy = if rng.gen_bool(0.5) { dict.len() } else { 0 };
                    put_varint(&mut col, (id + copy) as u64);
                }
                7
            }
            other => panic!("unsupported column value {other:?}"),
        };
        body.push(tag);
        put_varint(&mut body, col.len() as u64);
        body.extend_from_slice(&col);
    }
    let (lo, hi) = events.iter().fold((i64::MAX, i64::MIN), |(lo, hi), e| {
        (lo.min(e.timestamp), hi.max(e.timestamp))
    });
    let frame = ColumnarFrame {
        bytes: body,
        count: n as u32,
        ts_min: lo,
        ts_max: hi,
    };
    let mut back = Vec::new();
    frame
        .decode_rows_into(&mut back)
        .expect("hand-built frame decodes");
    assert_eq!(back, events, "hand-built frame round-trips");
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Column path == row loop over the same frames, for every query shape
    /// and column shape, under caps from 1 group up to unbounded.
    fn kernel_matches_row_loop(
        seed in any::<u64>(),
        q in 0usize..QUERIES.len(),
        cap in prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(65_536)],
    ) {
        let res = run_case(seed, QUERIES[q], cap, |_, evs| ColumnarFrame::from_events(evs), random_mode);
        prop_assert!(res.is_ok(), "seed {seed} query {q} cap {cap}: {}", res.unwrap_err());
    }

    /// String dictionaries that list a string twice: both copies are one
    /// group key, one COUNT_DISTINCT value and one TOP item.
    fn repeated_dictionary_strings_are_one_key(
        seed in any::<u64>(),
        cap in prop_oneof![Just(2usize), Just(65_536)],
    ) {
        let src = "select t.s, t.l, COUNT(*), COUNT(t.s), TOP(2, t.s), COUNT_DISTINCT(t.s), \
                   MIN(t.s), MAX(t.s), SUM(t.l) from t group by t.s, t.l window 10 s slide 5 s";
        let res = run_case(seed, src, cap, dup_dict_frame, |_, _| Mode::Typed);
        prop_assert!(res.is_ok(), "seed {seed} cap {cap}: {}", res.unwrap_err());
    }
}
