//! Criterion microbenchmarks of the host tap — the numbers behind the
//! agent cost model (`scrub_agent::CostModel`) and the paper's claim that
//! an idle Scrub is nearly free on the hosts.

#![allow(clippy::field_reassign_with_default)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use scrub_agent::ScrubAgent;
use scrub_core::config::ScrubConfig;
use scrub_core::event::RequestId;
use scrub_core::plan::{compile, QueryId};
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::Value;

fn registry() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    reg.register(
        EventSchema::new(
            "bid",
            vec![
                FieldDef::new("user_id", FieldType::Long),
                FieldDef::new("exchange_id", FieldType::Long),
                FieldDef::new("bid_price", FieldType::Double),
                FieldDef::new("country", FieldType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    // a second type (id 1) for the needle-style benches: integer and
    // string fields plus the list field `contains` searches
    reg.register(
        EventSchema::new(
            "auction",
            vec![
                FieldDef::new("user_id", FieldType::Long),
                FieldDef::new("line_item_id", FieldType::Long),
                FieldDef::new("country", FieldType::Str),
                FieldDef::new("line_item_ids", FieldType::List(Box::new(FieldType::Long))),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    reg
}

fn agent_with(queries: &[&str]) -> ScrubAgent {
    agent_with_trace_rate(queries, 0.0)
}

fn agent_with_trace_rate(queries: &[&str], trace_rate: f64) -> ScrubAgent {
    let reg = registry();
    let mut config = ScrubConfig::default();
    config.agent_batch_events = usize::MAX; // avoid flush noise in the bench
    config.trace_sample_rate = trace_rate;
    let agent = ScrubAgent::new("bench-host", config);
    for (i, q) in queries.iter().enumerate() {
        let spec = parse_query(q).unwrap();
        let cq = compile(&spec, &reg, &ScrubConfig::default(), QueryId(i as u64 + 1)).unwrap();
        agent.install(cq.host_plans[0].clone()).unwrap();
    }
    agent
}

fn values() -> Vec<Value> {
    vec![
        Value::Long(123_456),
        Value::Long(2),
        Value::Double(0.97),
        Value::Str("us".into()),
    ]
}

/// An `auction` tuple: an eight-entry line-item list, as the ad
/// server's auctions carry.
fn auction_values() -> Vec<Value> {
    vec![
        Value::Long(123_456),
        Value::Long(1011),
        Value::Str("us".into()),
        Value::List((1000..1008).map(Value::Long).collect()),
    ]
}

fn bench_tap(c: &mut Criterion) {
    let mut g = c.benchmark_group("tap");

    // reference loop with the tap call removed: what the disabled fast
    // path must stay within noise of. The gap between this and
    // `disabled_event_type` is the whole cost an idle Scrub (plus its
    // self-observability counters) imposes per log call.
    let vals = values();
    g.bench_function("noop_baseline", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            criterion::black_box((EventTypeId(0), RequestId(i), i as i64, &vals));
        })
    });

    // the disabled fast path: one atomic load
    let idle = agent_with(&[]);
    g.bench_function("disabled_event_type", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            idle.log(EventTypeId(0), RequestId(i), i as i64, &vals);
        })
    });

    // one active query whose predicate rejects the event
    let nomatch = agent_with(&["select COUNT(*) from bid where bid.exchange_id = 99"]);
    g.bench_function("active_predicate_no_match", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            nomatch.log(EventTypeId(0), RequestId(i), i as i64, &vals);
        })
    });

    // one active query matching + projecting one field; this is also the
    // tracing-disabled guard — trace_sample_rate is 0 here, so compare
    // this number across commits to prove lifecycle tracing added nothing
    // to the default matched-event path (the only new work is one integer
    // compare against a precomputed threshold of 0)
    g.bench_function("active_match_project_1_field", |b| {
        b.iter_batched(
            || agent_with(&["select bid.user_id, COUNT(*) from bid group by bid.user_id"]),
            |agent| {
                for i in 0..1000u64 {
                    agent.log(EventTypeId(0), RequestId(i), i as i64, &vals);
                }
                agent
            },
            BatchSize::SmallInput,
        )
    });

    // the tracing-enabled twin: what a 5% lifecycle-trace rate costs on
    // the same matched path (hash + compare per event; span pushes for
    // the sampled 5%)
    g.bench_function("active_match_project_1_field_tracing_5pct", |b| {
        b.iter_batched(
            || {
                agent_with_trace_rate(
                    &["select bid.user_id, COUNT(*) from bid group by bid.user_id"],
                    0.05,
                )
            },
            |agent| {
                for i in 0..1000u64 {
                    agent.log(EventTypeId(0), RequestId(i), i as i64, &vals);
                }
                agent
            },
            BatchSize::SmallInput,
        )
    });

    // eight concurrent queries on the same event type (fresh agent per
    // batch so buffered-batch growth does not distort the per-event cost)
    let mix_queries = [
        "select COUNT(*) from bid where bid.exchange_id = 1",
        "select bid.user_id, COUNT(*) from bid group by bid.user_id",
        "select AVG(bid.bid_price) from bid",
        "select COUNT(*) from bid where bid.bid_price > 2.0",
        "select COUNT_DISTINCT(bid.user_id) from bid",
        "select MIN(bid.bid_price), MAX(bid.bid_price) from bid",
        "select COUNT(*) from bid where bid.country = 'de'",
        "select bid.exchange_id, COUNT(*) from bid group by bid.exchange_id",
    ];
    g.bench_function("active_8_queries_per_1k_events", |b| {
        b.iter_batched(
            || agent_with(&mix_queries),
            |agent| {
                for i in 0..1000u64 {
                    agent.log(EventTypeId(0), RequestId(i), i as i64, &vals);
                }
                agent
            },
            BatchSize::SmallInput,
        )
    });

    // list membership that scans the whole list and finds nothing
    let auction = auction_values();
    let contains =
        agent_with(&["select COUNT(*) from auction where contains(auction.line_item_ids, 2010)"]);
    g.bench_function("active_contains_list_no_match", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            contains.log(EventTypeId(1), RequestId(i), i as i64, &auction);
        })
    });

    // the selective needle mix: ten queries on one type, none matching —
    // integer equality, a string-equality conjunction and list contains
    let needle_queries = [
        "select COUNT(*) from auction where auction.user_id = 10000000",
        "select COUNT(*) from auction where auction.user_id = 10000001",
        "select COUNT(*) from auction where auction.user_id = 10000002",
        "select COUNT(*) from auction where auction.user_id = 10000003",
        "select COUNT(*) from auction where auction.line_item_id = 2020 and auction.country = 'de'",
        "select COUNT(*) from auction where auction.line_item_id = 1011 and auction.country = 'de'",
        "select COUNT(*) from auction where auction.line_item_id = 2022 and auction.country = 'us'",
        "select COUNT(*) from auction where contains(auction.line_item_ids, 2010)",
        "select COUNT(*) from auction where contains(auction.line_item_ids, 2011)",
        "select COUNT(*) from auction where contains(auction.line_item_ids, 2012)",
    ];
    let needle = agent_with(&needle_queries);
    g.bench_function("active_needle_10_queries", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            needle.log(EventTypeId(1), RequestId(i), i as i64, &auction);
        })
    });

    g.finish();
}

criterion_group!(benches, bench_tap);
criterion_main!(benches);
