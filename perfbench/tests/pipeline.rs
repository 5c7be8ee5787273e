//! The benchmark's own checks on short runs: seeded determinism, tracing
//! that changes timing only, and agreement with the batch oracle.

use scrub_perfbench::oracle::{canon, check};
use scrub_perfbench::run::{deploy, measure, Extent, RunOutput};
use scrub_perfbench::trace::Tracer;
use scrub_perfbench::workload::Workload;

/// 400 steps of 20 ms: eight simulated seconds of fleet traffic.
const STEPS: u64 = 400;

fn short_run(workload: Workload, seed: u64, traced: bool) -> RunOutput {
    let tracer = traced.then(Tracer::new);
    let d = deploy(workload, seed, tracer.clone()).expect("deploys");
    measure(d, workload, seed, Extent::Steps(STEPS), tracer, &mut |_| {
        Ok(())
    })
    .expect("runs")
}

fn rows(run: &RunOutput) -> Vec<Vec<scrub_central::ResultRow>> {
    run.queries.iter().map(|q| q.rows.clone()).collect()
}

#[test]
fn same_seed_same_stream_and_rows_other_seed_differs() {
    let a = short_run(Workload::Usecases, 11, false);
    let b = short_run(Workload::Usecases, 11, false);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.offered, b.offered);
    assert_eq!(rows(&a), rows(&b));
    assert!(a.queries.iter().any(|q| !q.rows.is_empty()));
    let c = short_run(Workload::Usecases, 12, false);
    assert_ne!(a.digest, c.digest);
    assert_ne!(
        a.queries.iter().map(|q| canon(&q.rows)).collect::<Vec<_>>(),
        c.queries.iter().map(|q| canon(&q.rows)).collect::<Vec<_>>()
    );
}

/// Every workload, traced and untraced: identical rows and agent
/// counters, and both agree with the oracle.
#[test]
fn traced_runs_match_untraced_and_the_oracle() {
    for w in Workload::ALL {
        let plain = short_run(w, 3, false);
        let traced = short_run(w, 3, true);
        assert_eq!(plain.digest, traced.digest, "{}", w.name());
        assert_eq!(rows(&plain), rows(&traced), "{}", w.name());
        assert_eq!(plain.agent_final, traced.agent_final, "{}", w.name());
        let report = check(&plain).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(
            report.exact_queries + report.sampled_queries,
            plain.queries.len()
        );
        assert!(report.rows_compared > 0, "{}", w.name());
    }
}

/// The check is not vacuous: a dropped row or an altered value fails it.
#[test]
fn oracle_rejects_altered_output() {
    let run = short_run(Workload::Firehose, 5, false);
    check(&run).expect("unaltered run passes");

    let mut dropped = run.clone();
    let q = dropped
        .queries
        .iter_mut()
        .find(|q| !q.rows.is_empty())
        .expect("some rows");
    q.rows.pop();
    assert!(check(&dropped).is_err());

    let mut altered = run.clone();
    let q = altered
        .queries
        .iter_mut()
        .find(|q| !q.rows.is_empty())
        .expect("some rows");
    let v = q.rows[0].values.last_mut().expect("a value");
    *v = scrub_core::value::Value::Long(-1);
    assert!(check(&altered).is_err());
}
