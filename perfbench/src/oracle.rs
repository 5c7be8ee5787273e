//! Output check: every unsampled query's rows must equal
//! `scrub_baseline::run_batch` over the same generated events, and the
//! sampled query must satisfy the loss-ledger identity at its nominal
//! sampling rate. A speed-up can therefore not come from dropping work.
//!
//! The oracle regenerates the stream from the seed rather than keeping
//! it: it checks the regenerated digest against the run's, then feeds
//! each query the events of its target hosts one window at a time
//! (windows are tumbling, so a window's rows depend only on its own
//! events), keeping only events that pass the query's host-side
//! selection — which `run_batch` would drop anyway.

use std::collections::{BTreeMap, HashMap};

use scrub_baseline::run_batch;
use scrub_central::ResultRow;
use scrub_core::event::Event;
use scrub_core::plan::HostPlan;
use scrub_core::value::{GroupKey, Value};
use scrub_server::QueryState;

use crate::fleet::{self, Fleet, FleetEvent};
use crate::run::{QueryOutcome, RunOutput};

/// Generation slice of the regeneration (ms of arrivals).
const REGEN_SLICE_MS: i64 = 1_000;

/// What the check covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Queries whose rows were compared with the batch oracle.
    pub exact_queries: usize,
    /// Rows compared.
    pub rows_compared: usize,
    /// Sampled queries checked against the ledger identity.
    pub sampled_queries: usize,
}

/// Canonical row set: window start plus values, with doubles rounded to
/// nine significant digits (summation order differs between the live
/// pipeline and the oracle), sorted.
pub fn canon(rows: &[ResultRow]) -> Vec<(i64, Vec<GroupKey>)> {
    let mut v: Vec<(i64, Vec<GroupKey>)> = rows
        .iter()
        .map(|r| {
            let vals = r
                .values
                .iter()
                .map(|x| match x {
                    Value::Double(d) if d.abs() < 1e-9 => Value::Double(0.0).group_key(),
                    Value::Double(d) => {
                        let scale = 10f64.powi(9 - d.abs().log10().ceil() as i32);
                        Value::Double((d * scale).round() / scale).group_key()
                    }
                    other => other.group_key(),
                })
                .collect();
            (r.window_start_ms, vals)
        })
        .collect();
    v.sort();
    v
}

struct Exact<'a> {
    q: &'a QueryOutcome,
    hosts: Vec<bool>,
    window_ms: i64,
    /// Window start → selected events of that window.
    pending: BTreeMap<i64, Vec<Event>>,
    rows: Vec<ResultRow>,
    matched: u64,
}

impl Exact<'_> {
    fn flush_before(&mut self, horizon_ms: i64) {
        while let Some(entry) = self.pending.first_entry() {
            if entry.key() + self.window_ms > horizon_ms {
                break;
            }
            let events = entry.remove();
            let (rows, summary) = run_batch(&self.q.compiled, &events);
            self.rows.extend(rows);
            self.matched += summary.total_matched;
        }
    }
}

/// Check a run's outputs; `Err` describes the first failure.
pub fn check(run: &RunOutput) -> Result<OracleReport, String> {
    let mut report = OracleReport::default();
    for q in &run.queries {
        if q.state != QueryState::Done {
            return Err(format!(
                "query {} ended {:?}, not Done",
                q.spec.name, q.state
            ));
        }
        if let Some(r) = q.rows.iter().find(|r| r.degraded) {
            return Err(format!(
                "query {} emitted a degraded row for window {}",
                q.spec.name, r.window_start_ms
            ));
        }
        let ledger = q
            .ledger
            .as_ref()
            .ok_or_else(|| format!("query {} has no loss ledger", q.spec.name))?;
        if !ledger.reconciles() {
            return Err(format!("query {} ledger does not reconcile", q.spec.name));
        }
    }

    let host_names: Vec<String> = fleet::hosts(&run.params)
        .into_iter()
        .map(|h| h.name)
        .collect();
    let index: HashMap<&str, usize> = host_names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut exact: Vec<Exact> = Vec::new();
    for q in &run.queries {
        if let Some(rate) = q.spec.sampled_events {
            check_sampled(q, rate)?;
            report.sampled_queries += 1;
            continue;
        }
        let c = &q.compiled.central;
        if c.slide_ms != c.window_ms {
            return Err(format!("query {} is not tumbling", q.spec.name));
        }
        let mut hosts = vec![false; host_names.len()];
        for h in &q.hosts {
            let i = index
                .get(h.as_str())
                .ok_or_else(|| format!("query {} ran on unknown host {h}", q.spec.name))?;
            hosts[*i] = true;
        }
        exact.push(Exact {
            q,
            hosts,
            window_ms: c.window_ms,
            pending: BTreeMap::new(),
            rows: Vec::new(),
            matched: 0,
        });
    }

    // two threads, each regenerating the stream for half of the queries
    let (mut left, mut right): (Vec<Exact>, Vec<Exact>) = (Vec::new(), Vec::new());
    for (i, x) in exact.into_iter().enumerate() {
        if i % 2 == 0 {
            left.push(x);
        } else {
            right.push(x);
        }
    }
    let hosts = host_names.len();
    let digests = std::thread::scope(|scope| {
        let other = scope.spawn(|| replay(run, hosts, &mut right));
        let mine = replay(run, hosts, &mut left);
        (mine, other.join().expect("oracle thread completes"))
    });
    for digest in [digests.0, digests.1] {
        if digest != run.digest {
            return Err(format!(
                "regenerated stream digest {digest:016x} != replayed {:016x}",
                run.digest
            ));
        }
    }

    for x in left.into_iter().chain(right) {
        let live = canon(&x.q.rows);
        let oracle = canon(&x.rows);
        if live != oracle {
            let first = live
                .iter()
                .zip(&oracle)
                .position(|(a, b)| a != b)
                .unwrap_or(live.len().min(oracle.len()));
            return Err(format!(
                "query {}: {} live rows != {} oracle rows (first difference at sorted row {first}: live {:?} oracle {:?})",
                x.q.spec.name,
                live.len(),
                oracle.len(),
                live.get(first),
                oracle.get(first)
            ));
        }
        if x.q.total_matched != Some(x.matched) {
            return Err(format!(
                "query {}: live total_matched {:?} != oracle {}",
                x.q.spec.name, x.q.total_matched, x.matched
            ));
        }
        report.exact_queries += 1;
        report.rows_compared += live.len();
    }
    Ok(report)
}

/// Regenerate the run's stream and fold every event each query selects
/// into its windows; returns the stream digest.
fn replay(run: &RunOutput, hosts: usize, exact: &mut [Exact]) -> u64 {
    // (host, event type) → the (query, host plan) pairs it is offered to
    let types = exact
        .iter()
        .flat_map(|x| &x.q.compiled.host_plans)
        .map(|p| p.type_id.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut routes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); hosts * types];
    for (qi, x) in exact.iter().enumerate() {
        for (pi, plan) in x.q.compiled.host_plans.iter().enumerate() {
            for (h, _) in x.hosts.iter().enumerate().filter(|(_, on)| **on) {
                routes[h * types + plan.type_id.0 as usize].push((qi, pi));
            }
        }
    }

    let mut fleet = Fleet::new(run.params, run.seed, run.fleet_start_ms);
    let mut buf: Vec<Vec<FleetEvent>> = vec![Vec::new(); hosts];
    let mut until = run.fleet_start_ms;
    while until < run.generated_until_ms {
        until = (until + REGEN_SLICE_MS).min(run.generated_until_ms);
        fleet.generate_until(until, &mut buf);
        for (h, events) in buf.iter_mut().enumerate() {
            for ev in events.drain(..) {
                let t = ev.type_id.0 as usize;
                if ev.timestamp > run.stop_ms || t >= types {
                    continue;
                }
                for &(qi, pi) in &routes[h * types + t] {
                    let x = &mut exact[qi];
                    if selects(&x.q.compiled.host_plans[pi], &ev) {
                        let w = ev.timestamp.div_euclid(x.window_ms) * x.window_ms;
                        x.pending.entry(w).or_default().push(ev.to_event());
                    }
                }
            }
        }
        // every event of a window is generated once arrivals pass its end
        for x in exact.iter_mut() {
            x.flush_before(until);
        }
    }
    for x in exact.iter_mut() {
        x.flush_before(i64::MAX / 4);
    }
    fleet.digest()
}

/// Does `plan`'s host-side selection keep `ev`? (The predicate half of
/// `scrub_baseline::apply_host_plan`, without building the projection.)
fn selects(plan: &HostPlan, ev: &FleetEvent) -> bool {
    plan.predicate.as_ref().is_none_or(|pred| {
        pred.eval_bool_by(&|slot| {
            if slot < plan.arity {
                ev.values.get(slot).cloned().unwrap_or(Value::Null)
            } else if slot == plan.arity {
                Value::Long(ev.request_id.0 as i64)
            } else {
                Value::DateTime(ev.timestamp)
            }
        })
    })
}

/// A sampled query loses nothing but its sampled-out share, which must
/// sit near `1 - rate` (five binomial standard deviations plus 0.5%),
/// and runs on a strict subset of its matching hosts.
fn check_sampled(q: &QueryOutcome, rate: f64) -> Result<(), String> {
    let ledger = q.ledger.as_ref().expect("checked above");
    let tapped = ledger.total(|h| h.tapped);
    let delivered = ledger.total(|h| h.delivered);
    let sampled_out = ledger.total(|h| h.sampled_out);
    if tapped < 100 {
        return Err(format!(
            "sampled query {} tapped only {tapped} events",
            q.spec.name
        ));
    }
    if tapped != delivered + sampled_out {
        return Err(format!(
            "sampled query {}: tapped {tapped} != delivered {delivered} + sampled out {sampled_out}",
            q.spec.name
        ));
    }
    let share = sampled_out as f64 / tapped as f64;
    let nominal = 1.0 - rate;
    let tol = 5.0 * (rate * nominal / tapped as f64).sqrt() + 0.005;
    if (share - nominal).abs() > tol {
        return Err(format!(
            "sampled query {}: sampled-out share {share:.4} is not within {tol:.4} of {nominal:.2}",
            q.spec.name
        ));
    }
    if q.hosts.is_empty() || q.hosts.len() >= q.matching_hosts {
        return Err(format!(
            "sampled query {} ran on {} of {} matching hosts",
            q.spec.name,
            q.hosts.len(),
            q.matching_hosts
        ));
    }
    Ok(())
}
