//! `scrub-perfbench --workload <usecases|firehose|needle> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run over the same
//! simulated extent as an untraced one. The last stdout line is the
//! result object; the line before it carries provenance. Exit code 0
//! only when every output matched the batch oracle.

use std::process::ExitCode;
use std::time::Instant;

use scrub_perfbench::layers::{layer_shares, per_layer};
use scrub_perfbench::oracle::{self, OracleReport};
use scrub_perfbench::report::{
    beyond, core_signals_json, git_sha, json_str, median, nearest_rank, result_line, sorted,
    source_digest, tail, Metric,
};
use scrub_perfbench::run::{deploy, measure, Extent, RunOutput};
use scrub_perfbench::trace::Tracer;
use scrub_perfbench::workload::Workload;

/// `--trace 0` measures the same simulated extent this many times, each
/// on a fresh deployment of the same seed, and times every step by its
/// fastest replay: a co-tenant slowing the host for a few seconds then
/// lengthens one replay's steps, not the reported ones.
const REPLAYS: usize = 20;
/// Untimed deployments before the first replay, to warm the allocator.
const WARMUP_SETUPS: usize = 5;
/// Each replay times its own deployment and one more every
/// `SETUP_EVERY_STEPS` steps (outside the step timing); like a step, the
/// k-th setup of the replays is timed by its fastest replay, and
/// `setup_s` is the median over k.
const SETUP_EVERY_STEPS: usize = 200;
/// `--trace 1` runs untraced for this share of `--seconds`, then traced
/// for as many steps; the traced steps, the span analysis and the output
/// check take about the rest.
const TRACED_SHARE: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark's failed-operation count: events a query tapped that
/// neither reached a result nor were sampled out by design, summed over
/// queries from the loss ledger. `(attempted, failed)`.
fn ledger_totals(run: &RunOutput) -> (u64, u64) {
    let mut tapped = 0;
    let mut lost = 0;
    for q in &run.queries {
        if let Some(l) = &q.ledger {
            tapped += l.total(|h| h.tapped);
            lost += l.total(|h| h.tapped.saturating_sub(h.delivered + h.sampled_out));
        }
    }
    (tapped, lost)
}

fn provenance(
    args: &Args,
    run: &RunOutput,
    oracle: &Result<OracleReport, String>,
    extra: &str,
) -> String {
    let (attempted, failed) = ledger_totals(run);
    let oracle = match oracle {
        Ok(r) => format!(
            "{{\"ok\": true, \"exact_queries\": {}, \"rows_compared\": {}, \"sampled_queries\": {}}}",
            r.exact_queries, r.rows_compared, r.sampled_queries
        ),
        Err(e) => format!("{{\"ok\": false, \"error\": {}}}", json_str(e)),
    };
    let p = run.params;
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"git_sha\": {}, \
         \"source_digest\": \"{}\", \"step_ms\": {}, \"steps\": {}, \"measured_s\": {}, \
         \"sim_s\": {}, \"events_offered\": {}, \"stream_digest\": \"{:016x}\", \
         \"fleet\": {{\"requests_per_sec\": {}, \"n_users\": {}, \"zipf_alpha\": {}, \
         \"hosts_per_dc\": {:?}, \"win_rate\": {}}}, \"queries\": {}, \
         \"lost_event_share\": {}, \"tapped\": {}, \"lost\": {}, \"cores\": {}, \
         \"oracle\": {}{}}}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        json_str(&git_sha()),
        source_digest(),
        run.step_ms,
        run.step_ns.len(),
        run.measured_ns() as f64 / 1e9,
        (run.stop_ms - run.fleet_start_ms) as f64 / 1e3,
        run.offered,
        run.digest,
        p.requests_per_sec,
        p.n_users,
        p.zipf_alpha,
        p.hosts_per_dc,
        p.win_rate,
        run.queries.len(),
        failed as f64 / attempted.max(1) as f64,
        attempted,
        failed,
        core_signals_json(),
        oracle,
        extra
    )
}

fn end_to_end(args: &Args) -> Result<(RunOutput, Vec<Metric>, String), String> {
    for _ in 0..WARMUP_SETUPS {
        deploy(args.workload, args.seed, None)?;
    }
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let d = deploy(args.workload, args.seed, None)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok::<_, String>(d)
    };
    // the first replay runs for its share of `--seconds`; the others
    // repeat exactly its steps on fresh deployments of the same seed
    let mut first: Option<RunOutput> = None;
    let mut best_ns: Vec<u64> = Vec::new();
    let mut best_setup_s: Vec<f64> = Vec::new();
    let mut measured_ns = 0u64;
    for _ in 0..REPLAYS {
        let mut setups: Vec<f64> = Vec::new();
        let d = timed_setup(&mut setups)?;
        let extent = match &first {
            None => Extent::WallSeconds(args.seconds / REPLAYS as f64),
            Some(f) => Extent::Steps(f.step_ns.len() as u64),
        };
        let run = measure(d, args.workload, args.seed, extent, None, &mut |step| {
            if step % SETUP_EVERY_STEPS == 0 {
                timed_setup(&mut setups)?;
            }
            Ok(())
        })?;
        measured_ns += run.measured_ns();
        match &first {
            None => {
                best_ns = run.step_ns.clone();
                best_setup_s = setups;
                first = Some(run);
            }
            Some(f) => {
                same_replay(f, &run)?;
                for (b, ns) in best_ns.iter_mut().zip(&run.step_ns) {
                    *b = (*b).min(*ns);
                }
                for (b, s) in best_setup_s.iter_mut().zip(&setups) {
                    *b = b.min(*s);
                }
            }
        }
    }
    let run = first.expect("at least one replay");
    let steps = sorted(best_ns.iter().map(|ns| *ns as f64 / 1e6));
    let best_s = best_ns.iter().sum::<u64>() as f64 / 1e9;
    let delays = sorted(run.answer_delay_ms.iter().map(|d| *d as f64));
    if delays.is_empty() {
        return Err("no window became visible during the measured interval".into());
    }
    let (tail_p, tail_v, tail_beyond) = tail(&delays);
    let rss_kib = run
        .peak_rss_kib
        .ok_or("peak RSS unavailable (/proc/self/status)")?;
    let metrics = vec![
        Metric::new("setup_s", median(best_setup_s.iter().copied()), "s"),
        Metric::new("events_per_s", run.offered as f64 / best_s, "events/s"),
        Metric::new("step_ms_p50", nearest_rank(&steps, 50.0), "ms"),
        Metric::new("step_ms_p99", nearest_rank(&steps, 99.0), "ms"),
        Metric::new("answer_delay_ms_p50", nearest_rank(&delays, 50.0), "sim_ms"),
        Metric::new("answer_delay_ms_tail", tail_v, "sim_ms"),
        Metric::new("peak_rss_mb", rss_kib as f64 / 1024.0, "MiB"),
    ];
    let extra = format!(
        ", \"replays\": {REPLAYS}, \"measured_s_all_replays\": {}, \"best_step_sum_s\": {best_s}, \
         \"samples\": {{\"setups\": {}, \"steps\": {}, \"steps_beyond_p99\": {}, \
         \"windows\": {}, \"answer_delay_tail_percentile\": {}, \"windows_beyond_tail\": {}}}, \
         \"peak_rss_at_sim_s\": {}",
        measured_ns as f64 / 1e9,
        best_setup_s.len(),
        steps.len(),
        beyond(steps.len(), 99.0),
        delays.len(),
        tail_p,
        tail_beyond,
        run.rss_at_sim_ms as f64 / 1e3
    );
    Ok((run, metrics, extra))
}

/// Replays of one seed do the same work: a replay whose stream, rows,
/// agent counters or answer delays differ from the first one's fails the
/// run.
fn same_replay(first: &RunOutput, other: &RunOutput) -> Result<(), String> {
    if first.digest != other.digest || first.offered != other.offered {
        return Err("a replay's generated stream differs from the first replay's".into());
    }
    for (a, b) in first.queries.iter().zip(&other.queries) {
        if a.rows != b.rows || a.total_matched != b.total_matched {
            return Err(format!(
                "a replay's rows of {} differ from the first replay's",
                a.spec.name
            ));
        }
    }
    if first.agent_final != other.agent_final || first.answer_delay_ms != other.answer_delay_ms {
        return Err("a replay's agent counters or answer delays differ from the first's".into());
    }
    Ok(())
}

fn traced(args: &Args) -> Result<(RunOutput, Vec<Metric>, String), String> {
    let d = deploy(args.workload, args.seed, None)?;
    let untraced = measure(
        d,
        args.workload,
        args.seed,
        Extent::WallSeconds(args.seconds * TRACED_SHARE),
        None,
        &mut |_| Ok(()),
    )?;
    let tracer = Tracer::new();
    let d = deploy(args.workload, args.seed, Some(tracer.clone()))?;
    let steps = untraced.step_ns.len() as u64;
    let run = measure(
        d,
        args.workload,
        args.seed,
        Extent::Steps(steps),
        Some(tracer.clone()),
        &mut |_| Ok(()),
    )?;
    // the shims change timing only: outputs must be identical
    for (a, b) in untraced.queries.iter().zip(&run.queries) {
        if a.rows != b.rows {
            return Err(format!(
                "traced rows of {} differ from untraced",
                a.spec.name
            ));
        }
    }
    if untraced.agent_final != run.agent_final {
        return Err("traced agent counters differ from untraced".into());
    }
    let metrics = per_layer(&untraced, &run, &tracer);
    let (shares, dominant) = layer_shares(&tracer);
    let out_dir = std::path::Path::new("perfbench/out");
    let trace_file = out_dir.join(format!("trace-{}-{}.tsv", args.workload.name(), args.seed));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| tracer.write_tsv(&trace_file))
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    let shares: Vec<String> = shares
        .iter()
        .map(|(l, s)| format!("\"{l}\": {s}"))
        .collect();
    let extra = format!(
        ", \"untraced_events_per_s\": {}, \"traced_events_per_s\": {}, \
         \"layer_shares\": {{{}}}, \"dominant_layer\": \"{dominant}\", \"trace_file\": {}, \
         \"samples\": {{\"steps\": {}, \"advance_ticks\": {}, \"batches_ingested\": {}, \
         \"batches_replayed_events\": {}}}",
        untraced.events_per_s(),
        run.events_per_s(),
        shares.join(", "),
        json_str(&trace_file.to_string_lossy()),
        run.step_ns.len(),
        tracer.advance_ns().len(),
        tracer.ingest_counts().1,
        tracer.captured_events()
    );
    Ok((run, metrics, extra))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scrub-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let measured = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let (run, metrics, extra) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("scrub-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let t0 = Instant::now();
    let checked = oracle::check(&run);
    eprintln!("oracle check took {:.2} s", t0.elapsed().as_secs_f64());
    println!("{}", provenance(&args, &run, &checked, &extra));
    for m in &metrics {
        eprintln!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if let Err(e) = &checked {
        eprintln!("scrub-perfbench: output check FAILED: {e}");
    }
    let (attempted, failed) = ledger_totals(&run);
    println!(
        "{}",
        result_line(checked.is_ok(), attempted.max(1), failed, &metrics)
    );
    if checked.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
