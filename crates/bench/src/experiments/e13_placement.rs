//! E13 — ablation: operator placement (§2/§4 — the paper's thesis).
//!
//! Why does Scrub restrict hosts to selection + projection and centralize
//! group-by/aggregation? Because host-side work must be *bounded and
//! predictable* under strict SLOs. Selection + projection is O(1) per
//! event with zero state. Host-side group-by carries per-query state whose
//! size is the group cardinality — unbounded, memory-hungry, and
//! increasingly cache-hostile as it grows. This ablation measures (real
//! wall clock) the per-event cost and resident state of both policies as
//! group cardinality rises.

use std::collections::HashMap;
use std::time::Instant;

use scrub_core::expr::{row_slots, BinOp, Expr, FieldRef, ResolvedExpr, SlotBinder};
use scrub_core::plan::AggSpec;
use scrub_core::ql::ast::AggFn;
use scrub_core::value::{GroupKey, Value};

use crate::{Report, Table};

fn predicate() -> ResolvedExpr {
    let mut binder = SlotBinder::new();
    binder.push(FieldRef::bare("user_id"));
    binder.push(FieldRef::bare("exchange_id"));
    binder.push(FieldRef::bare("price"));
    Expr::Binary {
        op: BinOp::Ge,
        lhs: Box::new(Expr::Field(FieldRef::bare("exchange_id"))),
        rhs: Box::new(Expr::Literal(Value::Long(0))),
    }
    .resolve(&binder)
    .unwrap()
}

fn rows(cardinality: u64) -> Vec<Vec<Value>> {
    (0..8192u64)
        .map(|i| {
            vec![
                Value::Long((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % cardinality) as i64),
                Value::Long((i % 5) as i64),
                Value::Double((i % 50) as f64 * 0.02),
            ]
        })
        .collect()
}

/// Scrub policy: select + project, no state. Returns ns/event.
fn measure_select_project(iters: u64) -> f64 {
    let pred = predicate();
    let data = rows(1 << 20);
    let start = Instant::now();
    for i in 0..iters {
        let row = &data[(i % 8192) as usize];
        if pred.eval_bool(&row_slots(row)) {
            std::hint::black_box(row[0].clone());
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Pushdown policy: select + host-side group-by + COUNT/AVG state.
/// Returns (ns/event, resident groups, approx state bytes).
fn measure_pushdown(iters: u64, cardinality: u64) -> (f64, usize, u64) {
    let pred = predicate();
    let data = rows(cardinality);
    let specs = [
        AggSpec {
            func: AggFn::Count,
            arg: None,
        },
        AggSpec {
            func: AggFn::Avg,
            arg: None,
        },
    ];
    let mut groups: HashMap<GroupKey, Vec<scrub_central::AggState>> = HashMap::new();
    let start = Instant::now();
    for i in 0..iters {
        // spread accesses across the whole key space, not just 8192 rows
        let key_val = (i.wrapping_mul(0x2545_F491_4F6C_DD1D)) % cardinality;
        let row = &data[(i % 8192) as usize];
        if pred.eval_bool(&row_slots(row)) {
            let key = Value::Long(key_val as i64).group_key();
            let states = groups
                .entry(key)
                .or_insert_with(|| specs.iter().map(scrub_central::AggState::new).collect());
            states[0].update(None);
            states[1].update(Some(&row[2]));
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    // key (enum+i64) + 2 agg states + hashmap slot overhead
    let approx_bytes = groups.len() as u64 * 176;
    (ns, groups.len(), approx_bytes)
}

/// Run E13.
pub fn run(quick: bool) -> Report {
    let iters = if quick { 2_000_000 } else { 8_000_000 };
    let scrub_ns = measure_select_project(iters);

    let mut t = Table::new(&[
        "policy",
        "group_cardinality",
        "ns_per_event",
        "host_state_bytes",
    ]);
    t.row(vec![
        "Scrub (select+project)".into(),
        "-".into(),
        format!("{scrub_ns:.1}"),
        "0".into(),
    ]);

    let mut worst_ns = 0.0f64;
    let mut worst_bytes = 0u64;
    for card in [1u64 << 7, 1 << 14, 1 << 21] {
        let (ns, groups, bytes) = measure_pushdown(iters, card);
        worst_ns = worst_ns.max(ns);
        worst_bytes = worst_bytes.max(bytes);
        t.row(vec![
            "pushdown (host group-by)".into(),
            format!("{card} ({groups} groups)"),
            format!("{ns:.1}"),
            bytes.to_string(),
        ]);
    }

    let cpu_ratio = worst_ns / scrub_ns.max(1e-9);
    // per-query host state at high cardinality, times a realistic query load
    let state_mb_8q = worst_bytes as f64 * 8.0 / 1e6;
    let pass = cpu_ratio > 2.0 && worst_bytes > 50_000_000;
    Report {
        id: "E13",
        title: "Ablation: operator placement (§2/§4)",
        paper: "host work must be bounded: selection+projection is O(1)/event with \
                zero state, while host-side group-by carries unbounded per-query \
                state and degrades as cardinality grows — hence ScrubCentral",
        body: t.to_string(),
        pass,
        verdict: format!(
            "at 2M groups, host group-by costs {cpu_ratio:.1}x Scrub's per-event \
             work and {:.0} MB of host memory per query ({state_mb_8q:.0} MB under \
             8 queries) vs 0 for Scrub",
            worst_bytes as f64 / 1e6
        ),
    }
}
