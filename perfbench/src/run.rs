//! One benchmark run: deploy the real Scrub pipeline inside the
//! simulator, replay the generated fleet through it in fixed simulated
//! steps, time each step, then cancel every query and collect what the
//! pipeline produced.

use std::collections::HashSet;
use std::rc::Rc;
use std::time::Instant;

use adplatform::events::platform_registry;
use scrub_agent::StatsSnapshot;
use scrub_bench::sum_stats;
use scrub_central::ResultRow;
use scrub_core::config::ScrubConfig;
use scrub_core::plan::CompiledQuery;
use scrub_obs::LossLedger;
use scrub_server::{
    inventory_from_sim, meta_inventory_from_sim, CentralNode, QueryHandle, QueryServerNode,
    QueryState, ScrubClient, ScrubDeployment, ScrubMsg, SCRUB_CENTRAL_SERVICE,
    SCRUB_SERVER_SERVICE,
};
use scrub_simnet::{Node, NodeId, NodeMeta, Sim, SimDuration, SimTime, Topology};

use crate::fleet::{self, Fleet, FleetEvent, FleetParams};
use crate::replay::ReplayHost;
use crate::trace::{NodeShim, ShimKind, SpanName, Tracer};
use crate::workload::{QuerySpec, Workload, STEP_MS};

/// Simulated time between the last submission and the first generated
/// request: every query's install reaches its hosts (the WAN is 60 ms).
const SETTLE_MS: i64 = 1_000;
/// Simulated time of fleet traffic after which `peak_rss_kib` is read.
/// The query server keeps every result row, so memory grows with the
/// simulated time a run covers; reading it at a fixed simulated time
/// keeps a faster pipeline from reading as a larger one.
pub const RSS_AT_SIM_MS: i64 = 30_000;
/// Simulated time of fleet traffic generated at once.
const GENERATE_AHEAD_MS: i64 = 1_000;
/// Simulated time allowed for cancelled queries to drain and report.
const DRAIN_LIMIT_MS: i64 = 120_000;

/// How long the measured interval lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Extent {
    /// Step until the summed step wall time reaches this many seconds.
    WallSeconds(f64),
    /// Exactly this many steps (to repeat another run's extent).
    Steps(u64),
}

/// A deployed pipeline with its queries admitted and dispatched.
pub struct Deployment {
    pub sim: Sim<ScrubMsg>,
    pub scrub: ScrubDeployment,
    pub hosts: Vec<NodeId>,
    pub queries: Vec<(QuerySpec, QueryHandle)>,
    /// Wall time of each `ScrubClient::submit`, in query order.
    pub submit_ns: Vec<u64>,
    /// Sim time (ms) the first generated request arrives.
    pub fleet_start_ms: i64,
}

/// Deployment phase (µs) within the first step, from the seed: hosts'
/// flush timers and central's advance ticks start at an arbitrary
/// offset from window boundaries, as in a real deployment.
fn phase_us(seed: u64, step_ms: i64) -> i64 {
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
    (h % (step_ms as u64 * 1_000)) as i64
}

/// Deploy central, the hosts and the query server, then admit and
/// dispatch every query of the workload. This is what `setup_s` times.
pub fn deploy(
    workload: Workload,
    seed: u64,
    tracer: Option<Rc<Tracer>>,
) -> Result<Deployment, String> {
    let params = workload.fleet();
    let config = ScrubConfig::default();
    let step_ms = STEP_MS;
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), seed);
    sim.run_until(SimTime(phase_us(seed, step_ms)));
    let (registry, _) = platform_registry();

    let central_node = CentralNode::<ScrubMsg>::new(config.clone(), registry.clone());
    let central = sim.add_node(
        NodeMeta::new("scrub-central", SCRUB_CENTRAL_SERVICE, fleet::DCS[0]),
        shim(central_node, &tracer, ShimKind::Central),
    );
    let poll = SimDuration::from_ms(step_ms);
    let specs = fleet::hosts(&params);
    let hosts: Vec<NodeId> = specs
        .iter()
        .enumerate()
        .map(|(i, h)| {
            // hosts come up spread over one flush interval, so their
            // flushes and heartbeats do not all land in the same step
            let stagger_us = config.agent_flush_interval_ms * 1_000 * i as i64 / specs.len() as i64;
            sim.run_until(SimTime(phase_us(seed, step_ms) + stagger_us));
            sim.add_node(
                NodeMeta::new(h.name.clone(), h.service, h.dc),
                Box::new(ReplayHost::new(
                    &h.name,
                    config.clone(),
                    central,
                    poll,
                    tracer.clone(),
                )),
            )
        })
        .collect();
    let mut server_node =
        QueryServerNode::<ScrubMsg>::new(registry, config, central, inventory_from_sim(&sim));
    server_node.set_meta_inventory(meta_inventory_from_sim(&sim));
    let server = sim.add_node(
        NodeMeta::new("scrub-server", SCRUB_SERVER_SERVICE, fleet::DCS[0]),
        shim(server_node, &tracer, ShimKind::Server),
    );
    let scrub = ScrubDeployment { server, central };

    let client = ScrubClient::new(&scrub);
    let mut queries = Vec::new();
    let mut submit_ns = Vec::new();
    for q in workload.queries(&specs) {
        let t0 = Instant::now();
        let handle = client
            .submit(&mut sim, &q.src)
            .map_err(|e| format!("query {} was not admitted: {e}", q.name))?;
        submit_ns.push(t0.elapsed().as_nanos() as u64);
        queries.push((q, handle));
    }
    let fleet_start_ms = sim.now().as_ms() + SETTLE_MS;
    sim.run_until(SimTime::from_ms(fleet_start_ms));
    for (q, h) in &queries {
        if h.state(&sim) != Some(QueryState::Running) {
            return Err(format!("query {} was not dispatched", q.name));
        }
    }
    Ok(Deployment {
        sim,
        scrub,
        hosts,
        queries,
        submit_ns,
        fleet_start_ms,
    })
}

fn shim<N: Node<ScrubMsg>>(
    node: N,
    tracer: &Option<Rc<Tracer>>,
    kind: ShimKind,
) -> Box<dyn Node<ScrubMsg>> {
    match tracer {
        Some(t) => Box::new(NodeShim::new(node, t.clone(), kind)),
        None => Box::new(node),
    }
}

/// What one query produced.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub spec: QuerySpec,
    pub compiled: CompiledQuery,
    /// Names of the hosts the query ran on (after target resolution and
    /// host sampling).
    pub hosts: Vec<String>,
    pub matching_hosts: usize,
    pub state: QueryState,
    pub rows: Vec<ResultRow>,
    pub total_matched: Option<u64>,
    pub ledger: Option<LossLedger>,
}

/// Everything a run measured and produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub workload: Workload,
    pub seed: u64,
    pub params: FleetParams,
    pub step_ms: i64,
    pub fleet_start_ms: i64,
    /// Sim time (ms) the measured interval ended at; the fleet offered
    /// exactly the generated events with timestamps up to here.
    pub stop_ms: i64,
    /// Arrival horizon the generator reached.
    pub generated_until_ms: i64,
    pub digest: u64,
    pub step_ns: Vec<u64>,
    /// Events offered to `ScrubAgent::log` during the measured steps.
    pub offered: u64,
    /// Answer delay (sim ms) of every window whose rows became visible
    /// during the measured interval.
    pub answer_delay_ms: Vec<i64>,
    /// Peak RSS once the fleet has run `RSS_AT_SIM_MS` (or, in a run
    /// too short for that, at the end of the measured interval), and the
    /// simulated ms of fleet traffic it was read at.
    pub peak_rss_kib: Option<u64>,
    pub rss_at_sim_ms: i64,
    /// Agent counters summed over hosts, over the measured interval.
    pub agent_delta: StatsSnapshot,
    /// Agent counters summed over hosts at the end of the run.
    pub agent_final: StatsSnapshot,
    /// Simulator events processed during the measured steps.
    pub sim_events: u64,
    pub join_rows_held_peak: u64,
    pub duplicate_batches: u64,
    pub batch_age_ms: (Option<i64>, Option<i64>),
    pub submit_ns: Vec<u64>,
    pub queries: Vec<QueryOutcome>,
}

impl RunOutput {
    pub fn measured_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }

    pub fn events_per_s(&self) -> f64 {
        self.offered as f64 / (self.measured_ns() as f64 / 1e9)
    }
}

fn agent_totals(sim: &Sim<ScrubMsg>, hosts: &[NodeId]) -> StatsSnapshot {
    let per_host: Vec<(String, StatsSnapshot)> = hosts
        .iter()
        .map(|id| {
            let agent = sim
                .node_as::<ReplayHost>(*id)
                .expect("replay host")
                .harness()
                .agent();
            (agent.host().to_string(), agent.stats().snapshot())
        })
        .collect();
    sum_stats(&per_host)
}

fn offered(sim: &Sim<ScrubMsg>, hosts: &[NodeId]) -> u64 {
    hosts
        .iter()
        .map(|id| {
            sim.node_as::<ReplayHost>(*id)
                .expect("replay host")
                .offered()
        })
        .sum()
}

fn central<'a>(sim: &'a Sim<ScrubMsg>, d: &Deployment) -> &'a CentralNode<ScrubMsg> {
    sim.node_as::<CentralNode<ScrubMsg>>(d.scrub.central)
        .expect("central node")
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Replay the fleet through a deployed pipeline for `extent`, then
/// cancel every query and wait for it to finish. `between` runs after
/// every step, outside the timing, with the number of steps so far.
pub fn measure(
    mut d: Deployment,
    workload: Workload,
    seed: u64,
    extent: Extent,
    tracer: Option<Rc<Tracer>>,
    between: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<RunOutput, String> {
    let params = workload.fleet();
    let step_ms = STEP_MS;
    let mut fleet = Fleet::new(params, seed, d.fleet_start_ms);
    let mut buf: Vec<Vec<FleetEvent>> = vec![Vec::new(); d.hosts.len()];
    let windows: Vec<i64> = d
        .queries
        .iter()
        .map(|(_, h)| {
            h.record(&d.sim)
                .expect("admitted query")
                .compiled
                .central
                .window_ms
        })
        .collect();
    let mut rows_seen = vec![0usize; d.queries.len()];
    let mut windows_seen: Vec<HashSet<i64>> = vec![HashSet::new(); d.queries.len()];
    let mut answer_delay_ms = Vec::new();
    let mut step_ns = Vec::new();
    let mut join_peak = 0u64;
    let mut measured = 0u64;
    let mut peak_rss = None;

    let agent_before = agent_totals(&d.sim, &d.hosts);
    let offered_before = offered(&d.sim, &d.hosts);
    let sim_events_before = d.sim.events_processed();
    let mut t = d.fleet_start_ms;
    let mut horizon = t;
    if let Some(tr) = &tracer {
        tr.set_recording(true);
    }
    loop {
        let done = match extent {
            Extent::WallSeconds(s) => measured as f64 >= s * 1e9,
            Extent::Steps(n) => step_ns.len() as u64 >= n,
        };
        if done {
            break;
        }
        // keep at least two steps of look-ahead queued at every host (see
        // `ReplayHost::poll`), generated a second at a time so that
        // generation, which is not measured, seldom runs between steps
        if horizon < t + 2 * step_ms {
            horizon = t + GENERATE_AHEAD_MS;
            fleet.generate_until(horizon, &mut buf);
            for (id, evs) in d.hosts.iter().zip(buf.iter_mut()) {
                d.sim
                    .node_as_mut::<ReplayHost>(*id)
                    .expect("replay host")
                    .push(std::mem::take(evs));
            }
        }

        t += step_ms;
        let ns = match &tracer {
            Some(tr) => {
                tr.set_step(step_ns.len() as u64);
                tr.begin(SpanName::Step);
                d.sim.run_until(SimTime::from_ms(t));
                tr.end().expect("recording inside the measured interval").0
            }
            None => {
                let t0 = Instant::now();
                d.sim.run_until(SimTime::from_ms(t));
                t0.elapsed().as_nanos() as u64
            }
        };
        step_ns.push(ns);
        measured += ns;

        // poll every query for windows whose rows just became visible
        for (i, (_, h)) in d.queries.iter().enumerate() {
            let rows = h.results(&d.sim);
            for r in &rows[rows_seen[i]..] {
                if windows_seen[i].insert(r.window_start_ms) {
                    answer_delay_ms.push(t - (r.window_start_ms + windows[i]));
                }
            }
            rows_seen[i] = rows.len();
        }
        if peak_rss.is_none() && t - d.fleet_start_ms >= RSS_AT_SIM_MS {
            peak_rss = peak_rss_kib();
        }
        between(step_ns.len())?;
        if tracer.is_some() {
            let c = central(&d.sim, &d);
            let held: u64 = d
                .queries
                .iter()
                .filter_map(|(_, h)| c.profile(h.id()).map(|p| p.join_rows_held))
                .sum();
            join_peak = join_peak.max(held);
        }
    }
    if let Some(tr) = &tracer {
        tr.set_recording(false);
    }
    let rss_at_sim_ms = (t - d.fleet_start_ms).min(RSS_AT_SIM_MS);
    let peak_rss = peak_rss.or_else(peak_rss_kib);
    let agent_after = agent_totals(&d.sim, &d.hosts);
    let offered_total = offered(&d.sim, &d.hosts) - offered_before;
    let sim_events = d.sim.events_processed() - sim_events_before;
    let hist = central(&d.sim, &d)
        .metrics(t)
        .histograms
        .get("central.ingest_latency_ms")
        .map(|h| (h.quantile(0.5), h.quantile(0.99)))
        .unwrap_or((None, None));

    // end of the fleet: nothing past the stop time is ever offered
    for id in &d.hosts {
        d.sim
            .node_as_mut::<ReplayHost>(*id)
            .expect("replay host")
            .close();
    }
    for (_, h) in &d.queries {
        h.stop(&mut d.sim);
    }
    let deadline = t + DRAIN_LIMIT_MS;
    while d.sim.now().as_ms() < deadline
        && d.queries
            .iter()
            .any(|(_, h)| h.state(&d.sim) != Some(QueryState::Done))
    {
        let next = d.sim.now() + SimDuration::from_secs(1);
        d.sim.run_until(next);
    }

    let c = central(&d.sim, &d);
    let metas = d.sim.metas();
    let queries = d
        .queries
        .iter()
        .map(|(spec, h)| {
            let rec = h.record(&d.sim).expect("admitted query");
            QueryOutcome {
                spec: spec.clone(),
                compiled: rec.compiled.clone(),
                hosts: rec
                    .hosts
                    .iter()
                    .map(|id| metas[id.0 as usize].name.clone())
                    .collect(),
                matching_hosts: rec.matching_hosts,
                state: rec.state,
                rows: rec.rows.clone(),
                total_matched: rec.summary.as_ref().map(|s| s.total_matched),
                ledger: c.ledger(h.id()),
            }
        })
        .collect();

    Ok(RunOutput {
        workload,
        seed,
        params,
        step_ms,
        fleet_start_ms: d.fleet_start_ms,
        stop_ms: t,
        generated_until_ms: horizon,
        digest: fleet.digest(),
        step_ns,
        offered: offered_total,
        answer_delay_ms,
        peak_rss_kib: peak_rss,
        rss_at_sim_ms,
        agent_delta: agent_after.since(&agent_before),
        agent_final: agent_totals(&d.sim, &d.hosts),
        sim_events,
        join_rows_held_peak: join_peak,
        duplicate_batches: c.duplicate_batches,
        batch_age_ms: hist,
        submit_ns: std::mem::take(&mut d.submit_ns),
        queries,
    })
}
