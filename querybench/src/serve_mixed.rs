//! `serve-mixed`: N concurrent clients submitting distinct
//! Grouping-Sets specs to an in-process `QueryService`, as `edgelet
//! serve` runs without `--listen`.

use crate::gen::{self, Job};
use crate::oracle::{self, Answer};
use crate::run::{self, closed_loop, timed, Opts, Outcome, Phase, Refusal, Sample};
use crate::stats;
use crate::trace::Tracer;
use crate::wrap::TracedTransport;
use edgelet_core::exec::finish_report;
use edgelet_core::sim::Duration as SimDuration;
use edgelet_core::util::Result;
use edgelet_core::wire::Transport;
use edgelet_core::Platform;
use edgelet_live::{
    prepare_live_query, run_live_query, LiveRunOptions, PreparedQuery, QueryService, ServiceConfig,
    StripedTransport,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Nearest-rank percentile `query_tail_ms` reports.
pub const TAIL: f64 = 0.99;

/// Queries the oracle checks per client and phase, chosen among the
/// client's first [`CHECK_WINDOW`] of the phase.
const CHECKS: usize = 4;
const CHECK_WINDOW: usize = 24;

/// Specs the width references time at one worker and at N.
const WIDTH_SAMPLE: usize = 8;

/// Upper bound on one client's query rate, sizing its job pool.
const MAX_RATE: f64 = 100.0;

/// The CLI's default per-lane mailbox capacity.
const MAILBOX: usize = 4096;

type Refs = HashMap<(usize, usize), Answer>;

/// References for each client's jobs at `offsets[c] + sample(...)`.
fn references(
    reference: &mut Platform,
    lists: &[Vec<Job>],
    seed: u64,
    offsets: &[usize],
) -> Result<Refs> {
    let mut refs = Refs::new();
    for (c, list) in lists.iter().enumerate() {
        let offset = offsets[c];
        let window = CHECK_WINDOW.min(list.len().saturating_sub(offset + WIDTH_SAMPLE));
        for i in oracle::sample(seed ^ ((c as u64) << 32) ^ offset as u64, window, CHECKS) {
            refs.insert(
                (c, offset + i),
                oracle::reference(reference, &list[offset + i])?,
            );
        }
    }
    Ok(refs)
}

/// Runs the workload.
pub fn run(o: &Opts) -> Result<Outcome> {
    let n = crate::host::parallelism();
    let config = ServiceConfig {
        workers: n,
        max_concurrent: n,
        mailbox_capacity: MAILBOX,
    };
    let per_client = (o.seconds * MAX_RATE).ceil() as usize * if o.trace { 2 } else { 1 }
        + CHECK_WINDOW
        + WIDTH_SAMPLE;
    let build = || Platform::build(gen::serve_mixed_config(o.scale));
    // The inputs and the oracle's references come from a reference host
    // with the same crowd, dropped before the measured phase.
    let mut reference = build();
    let lists = gen::serve_mixed_jobs(&mut reference, o.seed, n, per_client);
    let refs = references(&mut reference, &lists, o.seed, &vec![0; n])?;
    drop(reference);
    let start = || {
        let (platform, build_s) = timed(build);
        let (service, start_s) = timed(|| QueryService::new(platform, config.clone()));
        (service, build_s, start_s)
    };
    let mut service = None;
    let before = run::setup_batch(|| {
        if let Some(s) = service.take() {
            QueryService::shutdown(&s);
        }
        let (s, build_s, start_s) = start();
        service = Some(s);
        Ok((build_s, start_s))
    })?;
    let service = service.expect("a set-up batch starts at least once");
    let limit = |c: usize| lists[c].len() - WIDTH_SAMPLE;

    let untraced = closed_loop(n, o.seconds, o.trace, |c, i| {
        let job = lists[c][..limit(c)].get(i)?;
        let started = Instant::now();
        let result = service.submit(
            &job.spec,
            &job.privacy,
            &job.resilience,
            Some(run::WALL_DEADLINE),
        );
        let latency = started.elapsed().as_nanos() as u64;
        Some(match result {
            Ok(out) => Sample::ran(
                latency,
                &out.run.report,
                out.run.plan.n,
                out.wall_aborted,
                refs.get(&(c, i)),
            ),
            Err(e) => Sample::refused(latency, Refusal::of(&e)),
        })
    });
    let mut out = Outcome::default();
    run::end_to_end(&mut out, &untraced, TAIL);
    let after = run::setup_batch(|| {
        let (s, build_s, start_s) = start();
        s.shutdown();
        Ok((build_s, start_s))
    })?;
    let total = |batch: &[(f64, f64)]| batch.iter().map(|(b, s)| b + s).collect::<Vec<_>>();
    run::setup_time(&mut out, &total(&before), &total(&after));
    let builds: Vec<f64> = before.iter().chain(&after).map(|(b, _)| *b).collect();
    out.values
        .set("core.build_ms", stats::median(&builds) * 1e3);
    let (mut checked, mut mismatches) = untraced.checks();
    out.values.set(
        "live.at_capacity",
        untraced
            .samples
            .iter()
            .filter(|s| s.refusal == Some(Refusal::AtCapacity))
            .count() as f64,
    );

    if o.trace {
        let tracer = Tracer::new();
        let offsets = untraced.per_client.clone();
        let refs = references(&mut build(), &lists, o.seed, &offsets)?;
        let traced = traced_phase(o, &service, &lists, &offsets, &refs, &tracer, n);
        let (c, m) = traced.checks();
        checked += c;
        mismatches += m;
        layers(&mut out, &untraced, &traced, &tracer);
        let sample: Vec<&Job> = lists[0][limit(0)..].iter().collect();
        width_reference(&mut out, service.platform(), &sample, n)?;
        run::write_spans(&tracer, o, "serve-mixed")?;
    }
    service.shutdown();
    out.checked = checked;
    out.mismatches = mismatches;
    Ok(out)
}

/// The same clients and fresh specs, run through the sequence
/// `QueryService::run_epoch` performs — register the epoch, prepare,
/// run, finish the report, retire the epoch — over a traced transport.
fn traced_phase(
    o: &Opts,
    service: &QueryService,
    lists: &[Vec<Job>],
    offsets: &[usize],
    refs: &Refs,
    tracer: &Arc<Tracer>,
    n: usize,
) -> Phase {
    let striped = Arc::new(StripedTransport::new(MAILBOX));
    let transport: Arc<dyn Transport> =
        Arc::new(TracedTransport::new(striped.clone(), tracer.clone()));
    let next_epoch = AtomicU64::new(1);
    let platform = service.platform();
    closed_loop(n, o.seconds, false, |c, i| {
        let idx = offsets[c] + i;
        let job = lists[c][..lists[c].len() - WIDTH_SAMPLE].get(idx)?;
        let epoch = next_epoch.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let root = tracer.query_root(job.spec.id.raw());
        {
            let _s = tracer.span("query.plan");
            platform
                .plan_query(&job.spec, &job.privacy, &job.resilience)
                .ok();
        }
        {
            let _s = tracer.span("live.register");
            striped.register_epoch(epoch, n);
        }
        let opts = LiveRunOptions::new(n, epoch);
        let prepared = {
            let _s = tracer.span("live.prepare");
            prepare_live_query(
                platform,
                &job.spec,
                &job.privacy,
                &job.resilience,
                transport.clone(),
                &opts,
            )
        };
        let result = prepared.and_then(
            |PreparedQuery {
                 plan,
                 mut engine,
                 assembly,
             }| {
                let deadline = engine.now() + SimDuration::from_secs_f64(plan.spec.deadline_secs);
                let abort = AtomicBool::new(false);
                {
                    let _s = tracer.span("live.run");
                    engine.run_until(deadline, Some(&abort));
                }
                let _s = tracer.span("live.finish");
                let report = finish_report(
                    &plan,
                    &assembly.sliced_queries,
                    &assembly.record,
                    &assembly.ledger,
                    engine.metrics(),
                )?;
                Ok((report, plan.n))
            },
        );
        {
            let _s = tracer.span("live.retire");
            striped.retire_epoch(epoch);
        }
        drop(root);
        let latency = started.elapsed().as_nanos() as u64;
        Some(match result {
            Ok((report, plan_n)) => {
                Sample::ran(latency, &report, plan_n, false, refs.get(&(c, idx)))
            }
            Err(_) => Sample::refused(latency, Refusal::Failed),
        })
    })
}

fn layers(out: &mut Outcome, untraced: &Phase, traced: &Phase, tracer: &Tracer) {
    run::common_layers(out, untraced, traced, tracer);
    let spans = tracer.spans();
    let q = traced.samples.len().max(1) as f64;
    let v = &mut out.values;
    v.set("live.prepare_ms", run::span_ms(&spans, "live.prepare") / q);
    v.set("live.run_ms", run::span_ms(&spans, "live.run") / q);
    v.set("live.finish_ms", run::span_ms(&spans, "live.finish") / q);
    let w = &tracer.wire;
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    v.set("wire.submit_calls", get(&w.submit_calls) / q);
    v.set("wire.submit_ms", get(&w.submit_ns) / 1e6 / q);
    v.set("wire.envelopes", get(&w.envelopes) / q);
    v.set("wire.payload_bytes", get(&w.payload_bytes) / q);
    v.set(
        "wire.envelopes_per_call",
        stats::ratio(get(&w.envelopes), get(&w.submit_calls)),
    );
    v.set("wire.drain_calls", get(&w.drain_calls) / q);
    v.set("wire.drain_ms", get(&w.drain_ns) / 1e6 / q);
    v.set(
        "wire.useful_drain_ratio",
        stats::ratio(get(&w.useful_drains), get(&w.drain_calls)),
    );
    v.set("wire.pending_calls", get(&w.pending_calls) / q);
    v.set("wire.rejected", get(&w.rejected));
}

/// `live.width1_ratio`: time at one worker over time at N workers, on a
/// fixed sample of specs run one at a time (above 1: N workers win).
fn width_reference(
    out: &mut Outcome,
    platform: &Platform,
    sample: &[&Job],
    n: usize,
) -> Result<()> {
    let transport = Arc::new(StripedTransport::new(MAILBOX));
    let mut epoch = 0;
    let mut time = |job: &Job, workers: usize| -> Result<f64> {
        epoch += 1;
        transport.register_epoch(epoch, workers);
        let opts = LiveRunOptions::new(workers, epoch);
        let (run, secs) = timed(|| {
            run_live_query(
                platform,
                &job.spec,
                &job.privacy,
                &job.resilience,
                transport.clone(),
                &opts,
                None,
            )
        });
        transport.retire_epoch(epoch);
        run?;
        Ok(secs)
    };
    let (mut t1, mut tn) = (0.0, 0.0);
    for (i, job) in sample.iter().enumerate() {
        if i % 2 == 0 {
            t1 += time(job, 1)?;
            tn += time(job, n)?;
        } else {
            tn += time(job, n)?;
            t1 += time(job, 1)?;
        }
    }
    out.values.set("live.width1_ratio", stats::ratio(t1, tn));
    out.facts
        .push(("width1_workers1_ms", format!("{}", t1 * 1e3)));
    out.facts
        .push(("width1_workersN_ms", format!("{}", tn * 1e3)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Scale;

    #[test]
    fn tiny_run_passes_the_oracle_traced_and_untraced() {
        let dir = std::path::Path::new(".bench_out").join("test-serve-mixed");
        std::fs::create_dir_all(&dir).unwrap();
        for trace in [false, true] {
            let out = run(&Opts {
                seed: 4,
                seconds: 0.3,
                trace,
                scale: Scale::Tiny,
                out_dir: dir.clone(),
            })
            .expect("tiny serve-mixed run");
            assert!(out.attempted > 0 && out.failed == 0, "{out:?}");
            assert!(out.checked > 0 && out.mismatches == 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_transport_leaves_answers_unchanged() {
        let mut p = Platform::build(gen::serve_mixed_config(Scale::Tiny));
        let lists = gen::serve_mixed_jobs(&mut p, 6, 1, 4);
        let tracer = Tracer::new();
        for job in &lists[0] {
            let mut answers = Vec::new();
            for traced in [false, true] {
                let striped = Arc::new(StripedTransport::new(MAILBOX));
                let transport: Arc<dyn Transport> = if traced {
                    Arc::new(TracedTransport::new(striped.clone(), tracer.clone()))
                } else {
                    striped.clone()
                };
                striped.register_epoch(1, 2);
                let opts = LiveRunOptions::new(2, 1);
                let run = run_live_query(
                    &p,
                    &job.spec,
                    &job.privacy,
                    &job.resilience,
                    transport,
                    &opts,
                    None,
                )
                .expect("live run");
                answers.push((Answer::of(&run.report), run.report.messages_sent));
            }
            assert_eq!(answers[0], answers[1]);
        }
        let envelopes = tracer.wire.envelopes.load(Ordering::Relaxed);
        assert!(envelopes > 0);
    }
}
