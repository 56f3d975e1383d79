//! `sim-crowd`: whole queries through `Platform::run_query` on the
//! demo's simulated crowd, sharded over every core.

use crate::gen::{self, Job};
use crate::oracle::{self, Answer};
use crate::run::{self, closed_loop, timed, Opts, Outcome, Phase, Sample};
use crate::stats;
use crate::trace::Tracer;
use edgelet_core::util::Result;
use edgelet_core::Platform;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Nearest-rank percentile `query_tail_ms` reports (≥ 100 queries a run).
pub const TAIL: f64 = 0.9;

/// Queries the oracle checks per phase, chosen among the first
/// [`CHECK_WINDOW`] of the phase (all of which run).
const CHECKS: usize = 4;
const CHECK_WINDOW: usize = 16;

/// Specs the width references time at one shard and at N.
const WIDTH_SAMPLE: usize = 6;

/// Upper bound on the query rate, sizing the pre-generated job pool.
const MAX_RATE: f64 = 25.0;

fn pool_size(o: &Opts) -> usize {
    (o.seconds * MAX_RATE).ceil() as usize + CHECK_WINDOW
}

/// References for the jobs at `offset + sample(...)`, keyed by index.
fn references(
    reference: &mut Platform,
    jobs: &[Job],
    seed: u64,
    offset: usize,
) -> Result<HashMap<usize, Answer>> {
    let window = CHECK_WINDOW.min(jobs.len().saturating_sub(offset));
    oracle::sample(seed ^ offset as u64, window, CHECKS)
        .into_iter()
        .map(|i| Ok((offset + i, oracle::reference(reference, &jobs[offset + i])?)))
        .collect()
}

/// Runs the workload.
pub fn run(o: &Opts) -> Result<Outcome> {
    let n = crate::host::parallelism();
    let build = |shards: usize| Platform::build(gen::sim_crowd_config(o.scale, shards));
    let mut platform = None;
    let before = run::setup_batch(|| {
        drop(platform.take());
        let (p, secs) = timed(|| build(n));
        platform = Some(p);
        Ok(secs)
    })?;
    let mut platform = platform.expect("a set-up batch builds at least once");
    let jobs_total = pool_size(o) * if o.trace { 2 } else { 1 } + WIDTH_SAMPLE;
    let jobs = gen::sim_crowd_jobs(&mut platform, o.seed, o.scale, jobs_total);
    // The reference host: the same crowd at one shard, which also pins
    // shard parity. It is built for each phase's references and dropped
    // before the phase, so the measured phase holds one crowd.
    let refs_at = |offset: usize| references(&mut build(1), &jobs, o.seed, offset);
    let platform = Mutex::new(platform);

    let phase = |offset: usize, refs: &HashMap<usize, Answer>, tracer: Option<&Tracer>| {
        let limit = jobs.len() - WIDTH_SAMPLE;
        closed_loop(1, o.seconds, o.trace && tracer.is_none(), |_, i| {
            let idx = offset + i;
            let job = jobs[..limit].get(idx)?;
            let mut p = platform.lock().expect("single client");
            let started = Instant::now();
            let root = tracer.map(|t| t.query_root(idx as u64 + 1));
            if let Some(t) = tracer {
                let _s = t.span("query.plan");
                p.plan_query(&job.spec, &job.privacy, &job.resilience).ok();
            }
            let result = {
                let _s = tracer.map(|t| t.span("sim.run_query"));
                p.run_query(&job.spec, &job.privacy, &job.resilience)
            };
            drop(root);
            let latency = started.elapsed().as_nanos() as u64;
            Some(match result {
                Ok(r) => Sample::ran(latency, &r.report, r.plan.n, false, refs.get(&idx)),
                Err(_) => Sample::refused(latency, run::Refusal::Failed),
            })
        })
    };

    let untraced = phase(0, &refs_at(0)?, None);
    let mut out = Outcome::default();
    run::end_to_end(&mut out, &untraced, TAIL);
    // Dropping each platform is left out of its time, as in the batch
    // before the phase.
    let after = run::setup_batch(|| Ok(timed(|| build(n)).1))?;
    run::setup_time(&mut out, &before, &after);
    let builds: Vec<f64> = before.iter().chain(&after).copied().collect();
    out.values
        .set("core.build_ms", stats::median(&builds) * 1e3);
    let (mut checked, mut mismatches) = untraced.checks();

    if o.trace {
        let tracer = Tracer::new();
        let offset = untraced.samples.len();
        let traced = phase(offset, &refs_at(offset)?, Some(&tracer));
        let (c, m) = traced.checks();
        checked += c;
        mismatches += m;
        layers(&mut out, &untraced, &traced, &tracer);
        let platform = platform.into_inner().expect("single client");
        width_reference(
            &mut out,
            &jobs[jobs.len() - WIDTH_SAMPLE..],
            platform,
            build(1),
        )?;
        run::write_spans(&tracer, o, "sim-crowd")?;
    }
    out.checked = checked;
    out.mismatches = mismatches;
    Ok(out)
}

fn layers(out: &mut Outcome, untraced: &Phase, traced: &Phase, tracer: &Tracer) {
    run::common_layers(out, untraced, traced, tracer);
    let spans = tracer.spans();
    let queries = traced.samples.len().max(1) as f64;
    let run_ms = run::span_ms(&spans, "sim.run_query");
    let msgs: f64 = traced
        .samples
        .iter()
        .filter_map(|s| s.cost)
        .map(|c| c.msgs as f64)
        .sum();
    out.values.set("sim.run_query_ms", run_ms / queries);
    out.values
        .set("sim.msgs_per_s", stats::ratio(msgs, run_ms / 1e3));
}

/// `sim.width1_ratio`: time at one shard over time at N shards, on a
/// fixed sample of specs (above 1: the N-shard engine is faster).
fn width_reference(
    out: &mut Outcome,
    sample: &[Job],
    mut wide: Platform,
    mut narrow: Platform,
) -> Result<()> {
    let (mut t1, mut tn) = (0.0, 0.0);
    for (i, job) in sample.iter().enumerate() {
        let time =
            |p: &mut Platform| timed(|| p.run_query(&job.spec, &job.privacy, &job.resilience)).1;
        // Alternate which width runs first.
        if i % 2 == 0 {
            t1 += time(&mut narrow);
            tn += time(&mut wide);
        } else {
            tn += time(&mut wide);
            t1 += time(&mut narrow);
        }
    }
    out.values.set("sim.width1_ratio", stats::ratio(t1, tn));
    out.facts
        .push(("width1_shards1_ms", format!("{}", t1 * 1e3)));
    out.facts
        .push(("width1_shardsN_ms", format!("{}", tn * 1e3)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_passes_the_oracle_traced_and_untraced() {
        let dir = std::path::Path::new(".bench_out").join("test-sim-crowd");
        std::fs::create_dir_all(&dir).unwrap();
        for trace in [false, true] {
            let out = run(&Opts {
                seed: 2,
                seconds: 0.3,
                trace,
                scale: gen::Scale::Tiny,
                out_dir: dir.clone(),
            })
            .expect("tiny sim-crowd run");
            assert!(out.attempted > 0 && out.failed == 0, "{out:?}");
            assert!(out.checked > 0 && out.mismatches == 0);
            if trace {
                assert!(dir.join("spans-sim-crowd-seed2.json").exists());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
