//! What every workload shares: options, the closed-loop load
//! generator, per-query samples, and the metrics computed from them.

use crate::gen::Scale;
use crate::host::{self, Usage};
use crate::oracle::Answer;
use crate::stats;
use crate::trace::{self, Tracer};
use edgelet_core::exec::ExecutionReport;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Untimed set-ups at the start of each set-up batch. The first few
/// pay the allocator's first-touch page faults and took up to 3× a
/// warm set-up.
pub const SETUP_WARMUP: usize = 3;

/// Least timed set-ups in a batch.
pub const SETUP_BATCH: usize = 8;

/// Least wall time a batch's timed set-ups span. The host's speed for
/// allocation-heavy work moved by 1.5× over a second or two, so a batch
/// that spans longer sees more than one such phase.
pub const SETUP_BATCH_SECONDS: f64 = 1.0;

/// Runs one set-up batch: [`SETUP_WARMUP`] untimed calls of `once`,
/// then timed ones until there are at least [`SETUP_BATCH`] and they
/// span at least [`SETUP_BATCH_SECONDS`]. `once` returns what it timed.
/// A run makes one batch before its measured phase and one after it,
/// so `setup_s` samples the host at two times half a minute apart.
pub fn setup_batch<T>(
    mut once: impl FnMut() -> edgelet_core::util::Result<T>,
) -> edgelet_core::util::Result<Vec<T>> {
    for _ in 0..SETUP_WARMUP {
        once()?;
    }
    let started = Instant::now();
    let mut timed = Vec::new();
    while timed.len() < SETUP_BATCH || started.elapsed().as_secs_f64() < SETUP_BATCH_SECONDS {
        timed.push(once()?);
    }
    Ok(timed)
}

/// Wall-clock deadline each live submission arms its watchdog with.
/// Far above any query's run time, so it fires only on a hang.
pub const WALL_DEADLINE: Duration = Duration::from_secs(60);

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Make the traced run instead of the untraced one.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Where reports, span files and scratch directories go.
    pub out_dir: PathBuf,
}

/// What a query cost, from its execution report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// `messages_sent`.
    pub msgs: u64,
    /// `bytes_sent`.
    pub bytes: u64,
    /// `messages_dropped`.
    pub dropped: u64,
    /// `crashes`.
    pub crashes: u64,
    /// The plan's partition quota `n`.
    pub plan_n: u64,
    /// `partitions_complete`.
    pub partitions_complete: u64,
}

impl Cost {
    /// The cost of a run whose plan asked for `plan_n` partitions.
    pub fn of(report: &ExecutionReport, plan_n: u64) -> Cost {
        Cost {
            msgs: report.messages_sent,
            bytes: report.bytes_sent,
            dropped: report.messages_dropped,
            crashes: report.crashes,
            plan_n,
            partitions_complete: report.partitions_complete,
        }
    }
}

/// Why the service refused a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// `SubmitError::AtCapacity`.
    AtCapacity,
    /// `SubmitError::ReadOnly`.
    ReadOnly,
    /// `SubmitError::ShuttingDown`.
    ShuttingDown,
    /// Planning or execution returned an error.
    Failed,
}

impl Refusal {
    /// Classifies a service error.
    pub fn of(e: &edgelet_live::SubmitError) -> Refusal {
        match e {
            edgelet_live::SubmitError::AtCapacity { .. } => Refusal::AtCapacity,
            edgelet_live::SubmitError::ReadOnly { .. } => Refusal::ReadOnly,
            edgelet_live::SubmitError::ShuttingDown => Refusal::ShuttingDown,
            edgelet_live::SubmitError::Failed(_) => Refusal::Failed,
        }
    }
}

/// One query as its client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Submit to outcome, wall time.
    pub latency_ns: u64,
    /// Completed, valid, not wall-aborted.
    pub ok: bool,
    /// Set when the query never ran.
    pub refusal: Option<Refusal>,
    /// Set when the query ran.
    pub cost: Option<Cost>,
    /// `Some(matches)` when the oracle checked the answer.
    pub checked: Option<bool>,
    /// When the client's cycle for this query began, ns since the phase
    /// began: its previous outcome, or the phase start (set by
    /// [`closed_loop`]).
    pub start_ns: u64,
    /// When the outcome arrived, ns since the phase began (set by
    /// [`closed_loop`]).
    pub done_ns: u64,
}

impl Sample {
    /// A query that ran. `expected` is the oracle's reference when this
    /// query is one the oracle checks.
    pub fn ran(
        latency_ns: u64,
        report: &ExecutionReport,
        plan_n: u64,
        wall_aborted: bool,
        expected: Option<&Answer>,
    ) -> Sample {
        Sample {
            latency_ns,
            ok: report.completed && report.valid && !wall_aborted,
            refusal: None,
            cost: Some(Cost::of(report, plan_n)),
            checked: expected.map(|e| Answer::of(report) == *e),
            start_ns: 0,
            done_ns: 0,
        }
    }

    /// A query the service refused or could not run.
    pub fn refused(latency_ns: u64, refusal: Refusal) -> Sample {
        Sample {
            latency_ns,
            ok: false,
            refusal: Some(refusal),
            cost: None,
            checked: None,
            start_ns: 0,
            done_ns: 0,
        }
    }

    /// Counts against `failed`: not ok, or a wrong answer.
    pub fn failed(&self) -> bool {
        !self.ok || self.checked == Some(false)
    }
}

/// How often the steal timeline samples `/proc/stat`.
const STEAL_PERIOD: Duration = Duration::from_millis(20);

/// A query counts as calm when the hypervisor stole at most this share
/// of the machine's CPU time around it (see [`Phase::steal_share`]).
pub const CALM_STEAL: f64 = 0.05;

/// How far back from a query's outcome its steal share looks: longer
/// than almost every query, so whether a query counts as calm does not
/// depend on how long it ran.
const CALM_WINDOW_NS: u64 = 1_000_000_000;

/// Cumulative `(ns since phase start, steal ticks, total ticks)`
/// samples of the machine's CPU time, taken every [`STEAL_PERIOD`].
#[derive(Debug, Default)]
pub struct StealTimeline(pub Vec<(u64, u64, u64)>);

impl StealTimeline {
    /// Cumulative `(steal, total)` ticks at `t_ns`, interpolated.
    fn at(&self, t_ns: u64) -> (f64, f64) {
        let v = &self.0;
        let i = v.partition_point(|&(t, _, _)| t <= t_ns);
        match (i.checked_sub(1).map(|j| v[j]), v.get(i)) {
            (Some((t0, s0, a0)), Some(&(t1, s1, a1))) => {
                let f = (t_ns - t0) as f64 / (t1 - t0).max(1) as f64;
                (
                    s0 as f64 + (s1 - s0) as f64 * f,
                    a0 as f64 + (a1 - a0) as f64 * f,
                )
            }
            (Some((_, s, a)), None) | (None, Some(&(_, s, a))) => (s as f64, a as f64),
            (None, None) => (0.0, 0.0),
        }
    }

    /// Share of the machine's CPU time stolen between the two instants.
    pub fn share(&self, from_ns: u64, to_ns: u64) -> f64 {
        let (s0, a0) = self.at(from_ns);
        let (s1, a1) = self.at(to_ns);
        stats::ratio(s1 - s0, a1 - a0)
    }
}

/// One measured phase of a closed loop.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every query, in client order.
    pub samples: Vec<Sample>,
    /// Jobs each client consumed, in client order.
    pub per_client: Vec<usize>,
    /// Phase start to the last client's last outcome.
    pub wall_ns: u64,
    /// Process resource usage over the phase.
    pub usage: Usage,
    /// Most threads seen at once (0 unless watched).
    pub threads_peak: u64,
    /// A client ran out of pre-generated jobs before the time was up.
    pub exhausted: bool,
    /// Hypervisor steal over the phase.
    pub steal: StealTimeline,
}

impl Phase {
    fn clients(&self) -> usize {
        self.per_client.len().max(1)
    }

    /// Share of CPU time stolen in the [`CALM_WINDOW_NS`] before `s`'s
    /// outcome, or over its whole cycle when that is longer.
    pub fn steal_share(&self, s: &Sample) -> f64 {
        let from = s.start_ns.min(s.done_ns.saturating_sub(CALM_WINDOW_NS));
        self.steal.share(from, s.done_ns)
    }

    /// Share of CPU time stolen over the whole phase.
    pub fn steal_ratio(&self) -> f64 {
        self.steal.share(0, self.wall_ns)
    }

    /// The steal share at or below which a query is calm: [`CALM_STEAL`],
    /// raised to the median of the queries' shares when fewer than half
    /// of them are that calm.
    pub fn calm_threshold(&self) -> f64 {
        let mut shares: Vec<f64> = self.samples.iter().map(|s| self.steal_share(s)).collect();
        shares.sort_by(f64::total_cmp);
        CALM_STEAL.max(stats::percentile(&shares, 0.5))
    }

    /// The queries the hypervisor disturbed least; the end-to-end timings
    /// are taken over these (see [`Phase::calm_threshold`]).
    pub fn calm(&self) -> Vec<&Sample> {
        let limit = self.calm_threshold();
        self.samples
            .iter()
            .filter(|s| self.steal_share(s) <= limit)
            .collect()
    }

    /// Queries that ended ok with a correct answer per wall second, over
    /// the calm cycles: with no steal this is the plain count over the
    /// phase's length, because each client's cycles tile its time.
    pub fn queries_per_s(&self) -> f64 {
        let calm = self.calm();
        let good = calm.iter().filter(|s| !s.failed()).count();
        let busy_ns: u64 = calm.iter().map(|s| s.done_ns - s.start_ns).sum();
        stats::ratio((good * self.clients()) as f64, busy_ns as f64 / 1e9)
    }

    /// Latencies of the calm queries in ms, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .calm()
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn costs(&self) -> impl Iterator<Item = &Cost> {
        self.samples.iter().filter_map(|s| s.cost.as_ref())
    }

    /// Mean of `f` over the queries that ran.
    pub fn mean_cost(&self, f: impl Fn(&Cost) -> f64) -> f64 {
        stats::mean(self.costs().map(f))
    }

    /// Oracle comparisons made and mismatches found.
    pub fn checks(&self) -> (usize, usize) {
        let checked = self.samples.iter().filter_map(|s| s.checked);
        checked.fold((0, 0), |(n, bad), ok| (n + 1, bad + usize::from(!ok)))
    }
}

/// Runs `clients` closed-loop clients for `seconds`: each calls
/// `run(client, i)` for its `i`-th query as soon as the previous one
/// returned, until the time is up or `run` has no more jobs (`None`).
/// With `watch_threads`, a sampler records the peak thread count.
pub fn closed_loop<F>(clients: usize, seconds: f64, watch_threads: bool, run: F) -> Phase
where
    F: Fn(usize, usize) -> Option<Sample> + Sync,
{
    let limit = Duration::from_secs_f64(seconds);
    let results: Mutex<Vec<(usize, Vec<Sample>, bool)>> = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);
    let mut threads_peak = 0;
    let mut timeline = Vec::new();
    let before = host::usage();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let stealer = scope.spawn(|| {
            let mut tl = Vec::new();
            loop {
                let (steal, total) = host::cpu_ticks();
                tl.push((start.elapsed().as_nanos() as u64, steal, total));
                if done.load(Ordering::Acquire) {
                    return tl;
                }
                std::thread::sleep(STEAL_PERIOD);
            }
        });
        let watcher = watch_threads.then(|| {
            scope.spawn(|| {
                let mut peak = 0;
                while !done.load(Ordering::Acquire) {
                    peak = peak.max(host::threads());
                    std::thread::sleep(Duration::from_millis(10));
                }
                peak
            })
        });
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (run, results) = (&run, &results);
                scope.spawn(move || {
                    let mut samples: Vec<Sample> = Vec::new();
                    let mut exhausted = false;
                    while start.elapsed() < limit {
                        match run(c, samples.len()) {
                            Some(mut s) => {
                                s.start_ns = samples.last().map_or(0, |p| p.done_ns);
                                s.done_ns = start.elapsed().as_nanos() as u64;
                                samples.push(s);
                            }
                            None => {
                                exhausted = true;
                                break;
                            }
                        }
                    }
                    results
                        .lock()
                        .expect("client thread panicked")
                        .push((c, samples, exhausted));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }
        done.store(true, Ordering::Release);
        timeline = stealer.join().expect("steal sampler panicked");
        if let Some(w) = watcher {
            threads_peak = w.join().expect("thread sampler panicked");
        }
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let usage = host::usage().since(&before);
    let mut results = results.into_inner().expect("client thread panicked");
    results.sort_by_key(|(c, _, _)| *c);
    let mut phase = Phase {
        wall_ns,
        usage,
        threads_peak,
        steal: StealTimeline(timeline),
        ..Phase::default()
    };
    for (_, samples, exhausted) in results {
        phase.per_client.push(samples.len());
        phase.exhausted |= exhausted;
        phase.samples.extend(samples);
    }
    phase
}

/// Times `f`, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("msgs_per_query", "msgs"),
    ("bytes_per_query", "B"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order. Every traced run
/// reports all of them; a layer that does not run in a workload reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.build_ms", "ms"),
    ("query.plan_ms", "ms"),
    ("sim.run_query_ms", "ms"),
    ("sim.msgs_per_s", "msgs/s"),
    ("sim.width1_ratio", "ratio"),
    ("live.prepare_ms", "ms"),
    ("live.run_ms", "ms"),
    ("live.finish_ms", "ms"),
    ("live.at_capacity", "count"),
    ("live.width1_ratio", "ratio"),
    ("wire.submit_calls", "calls/query"),
    ("wire.submit_ms", "ms"),
    ("wire.envelopes", "envelopes/query"),
    ("wire.payload_bytes", "B/query"),
    ("wire.envelopes_per_call", "envelopes/call"),
    ("wire.drain_calls", "calls/query"),
    ("wire.drain_ms", "ms"),
    ("wire.useful_drain_ratio", "ratio"),
    ("wire.pending_calls", "calls/query"),
    ("wire.rejected", "count"),
    ("exec.useful_partition_ratio", "ratio"),
    ("exec.dropped_per_query", "msgs"),
    ("exec.crashes_per_query", "devices"),
    ("net.try_run_ms", "ms"),
    ("net.world_build_ms", "ms"),
    ("net.world_builds_per_query", "builds/query"),
    ("net.relay_ms", "ms"),
    ("net.remote_ratio", "ratio"),
    ("net.register_ms", "ms"),
    ("net.registrations", "count"),
    ("net.rejections", "count"),
    ("store.append_calls", "calls/query"),
    ("store.append_bytes", "B/query"),
    ("store.append_ms", "ms"),
    ("store.sync_calls", "calls/query"),
    ("store.sync_ms", "ms"),
    ("store.records_per_sync", "records/sync"),
    ("store.checkpoint_calls", "calls/query"),
    ("store.checkpoint_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("proc.cpu_util", "ratio"),
    ("proc.cpu_ms_per_query", "ms"),
    ("proc.vol_csw_per_query", "csw/query"),
    ("proc.invol_csw_per_query", "csw/query"),
    ("proc.threads_peak", "threads"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Metric values by name, filled by a workload and emitted in the
/// order of [`END_TO_END`] or [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` (which must be listed in the matching table).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The listed metrics in table order; unset ones read 0.
    pub fn emit(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    /// Names set that no table lists (a bug in a workload).
    pub fn unlisted(&self) -> Vec<&'static str> {
        self.0
            .keys()
            .copied()
            .filter(|n| !END_TO_END.iter().chain(&PER_LAYER).any(|(m, _)| m == n))
            .collect()
    }
}

/// Everything a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Queries attempted in the phase(s) the output describes.
    pub attempted: usize,
    /// Of which failed (not ok, refused, or a wrong answer).
    pub failed: usize,
    /// Oracle comparisons made, across every phase of the run.
    pub checked: usize,
    /// Oracle mismatches, across every phase of the run.
    pub mismatches: usize,
    /// Metric values.
    pub values: Values,
    /// Extra facts for the report, as JSON values.
    pub facts: Vec<(&'static str, String)>,
}

/// Fills `setup_s` from the two set-up batches, in seconds per set-up:
/// the median over samples that each average the i-th set-up before the
/// phase with the i-th after it. The host ran allocation-heavy work at
/// one of two speeds 1.5–1.8× apart, switching every second or so and
/// spending about half its time at each. Single set-ups took one speed
/// or the other, so their median jumped between the two from run to
/// run; a sample that spans the run mixes them.
pub fn setup_time(out: &mut Outcome, before: &[f64], after: &[f64]) {
    let pairs: Vec<f64> = before
        .iter()
        .zip(after)
        .map(|(b, a)| (b + a) / 2.0)
        .collect();
    out.values.set("setup_s", stats::median(&pairs));
    let ms = |v: &[f64]| (stats::median(v) * 1e3).to_string();
    out.facts.extend([
        ("setup_count", (before.len() + after.len()).to_string()),
        ("setup_before_ms", ms(before)),
        ("setup_after_ms", ms(after)),
    ]);
}

/// Fills the end-to-end values other than `setup_s` from the untraced
/// phase. Timings come from the calm queries; counts, costs and failures
/// from all of them.
pub fn end_to_end(out: &mut Outcome, phase: &Phase, tail: f64) {
    let lat = phase.latencies_ms();
    let v = &mut out.values;
    v.set("queries_per_s", phase.queries_per_s());
    v.set("query_p50_ms", stats::percentile(&lat, 0.5));
    v.set("query_tail_ms", stats::percentile(&lat, tail));
    let failed = phase.samples.iter().filter(|s| s.failed()).count();
    let attempted = phase.samples.len();
    v.set(
        "ok_ratio",
        1.0 - stats::ratio(failed as f64, attempted as f64),
    );
    v.set("msgs_per_query", phase.mean_cost(|c| c.msgs as f64));
    v.set("bytes_per_query", phase.mean_cost(|c| c.bytes as f64));
    v.set("peak_rss_mib", host::peak_rss_mib());
    out.attempted = attempted;
    out.failed = failed;
    let beyond = stats::beyond(tail, lat.len());
    let facts = [
        ("samples", attempted.to_string()),
        ("steal_ratio", phase.steal_ratio().to_string()),
        ("calm_threshold", phase.calm_threshold().to_string()),
        ("calm_samples", lat.len().to_string()),
        ("tail_percentile", tail.to_string()),
        ("tail_beyond", beyond.to_string()),
        (
            "tail_rule_percentile",
            stats::tail_percentile(lat.len()).map_or("null".into(), |p| p.to_string()),
        ),
        (
            "cpu_ms_per_query",
            (phase.usage.cpu_ns as f64 / 1e6 / attempted.max(1) as f64).to_string(),
        ),
        ("jobs_exhausted", phase.exhausted.to_string()),
    ];
    out.facts.extend(facts);
    if beyond < stats::MIN_BEYOND {
        eprintln!(
            "querybench: only {beyond} calm samples beyond p{}; the tail is not steady",
            tail * 100.0
        );
    }
}

/// Fills the per-layer values every workload shares: failure, process
/// and tracing figures, and the execution-report ratios.
pub fn common_layers(out: &mut Outcome, untraced: &Phase, traced: &Phase, tracer: &Tracer) {
    let spans = tracer.spans();
    let queries = traced.samples.len().max(1) as f64;
    let v = &mut out.values;
    let failed = traced.samples.iter().filter(|s| s.failed()).count();
    v.set(
        "failed_ratio",
        stats::ratio(failed as f64, traced.samples.len() as f64),
    );
    v.set(
        "exec.useful_partition_ratio",
        traced.mean_cost(|c| stats::ratio(c.plan_n as f64, c.partitions_complete as f64)),
    );
    v.set(
        "exec.dropped_per_query",
        traced.mean_cost(|c| c.dropped as f64),
    );
    v.set(
        "exec.crashes_per_query",
        traced.mean_cost(|c| c.crashes as f64),
    );
    let n = untraced.samples.len().max(1) as f64;
    let wall_s = untraced.wall_ns as f64 / 1e9;
    let u = &untraced.usage;
    v.set(
        "proc.cpu_util",
        stats::ratio(u.cpu_ns as f64 / 1e9, wall_s * host::parallelism() as f64),
    );
    v.set("proc.cpu_ms_per_query", u.cpu_ns as f64 / 1e6 / n);
    v.set("proc.vol_csw_per_query", u.vol_csw as f64 / n);
    v.set("proc.invol_csw_per_query", u.invol_csw as f64 / n);
    v.set("proc.threads_peak", untraced.threads_peak as f64);
    v.set(
        "trace.overhead_ratio",
        stats::ratio(traced.queries_per_s(), untraced.queries_per_s()),
    );
    let roots: Vec<&trace::Span> = spans.iter().filter(|s| s.name == "query").collect();
    v.set(
        "trace.unattributed_ratio",
        stats::mean(roots.iter().map(|r| {
            stats::ratio(
                trace::self_time_ns(r, &spans, |_| true) as f64,
                r.duration_ns() as f64,
            )
        })),
    );
    v.set("query.plan_ms", span_ms(&spans, "query.plan") / queries);
    out.facts
        .push(("traced_queries", traced.samples.len().to_string()));
    out.facts.push(("spans", spans.len().to_string()));
}

/// Writes the traced run's spans to `spans-<workload>-seed<n>.json` in
/// the output directory.
pub fn write_spans(tracer: &Tracer, o: &Opts, workload: &str) -> edgelet_core::util::Result<()> {
    let path = o
        .out_dir
        .join(format!("spans-{workload}-seed{}.json", o.seed));
    tracer.write_spans(&path).map_err(|e| {
        edgelet_core::util::Error::InvalidConfig(format!("write {}: {e}", path.display()))
    })
}

/// Total milliseconds spent in spans named `name` that belong to a query.
pub fn span_ms(spans: &[trace::Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.query != trace::NO_QUERY)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum()
}

/// Calls of spans named `name` that belong to a query.
pub fn span_count(spans: &[trace::Span], name: &str) -> usize {
    spans
        .iter()
        .filter(|s| s.name == name && s.query != trace::NO_QUERY)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_fails_the_query() {
        let mut p = edgelet_core::Platform::build(crate::gen::serve_mixed_config(Scale::Tiny));
        let job = crate::gen::serve_mixed_jobs(&mut p, 7, 1, 1)
            .remove(0)
            .remove(0);
        let report = p
            .run_query(&job.spec, &job.privacy, &job.resilience)
            .unwrap()
            .report;
        assert!(report.completed && report.valid);
        let right = Answer::of(&report);
        let mut wrong = right.clone();
        wrong.ledger.push(0);
        assert!(!Sample::ran(1, &report, 4, false, Some(&right)).failed());
        assert!(Sample::ran(1, &report, 4, false, Some(&wrong)).failed());
        assert!(Sample::ran(1, &report, 4, true, None).failed());
        let mut samples = vec![
            Sample::ran(1, &report, 4, false, Some(&right)),
            Sample::ran(1, &report, 4, false, Some(&wrong)),
            Sample::refused(1, Refusal::AtCapacity),
        ];
        for (i, s) in samples.iter_mut().enumerate() {
            s.start_ns = i as u64 * 1_000_000_000;
            s.done_ns = (i as u64 + 1) * 1_000_000_000;
        }
        let phase = Phase {
            samples,
            per_client: vec![3],
            wall_ns: 3_000_000_000,
            ..Phase::default()
        };
        assert_eq!(phase.checks(), (2, 1));
        assert_eq!(phase.queries_per_s(), 1.0 / 3.0);
        let mut out = Outcome::default();
        end_to_end(&mut out, &phase, 0.9);
        setup_time(&mut out, &[0.5, 0.3, 0.1], &[0.9, 0.7]);
        assert_eq!((out.attempted, out.failed), (3, 2));
        let ok = out.values.emit(&END_TO_END);
        assert!(ok
            .iter()
            .any(|m| m.name == "ok_ratio" && (m.value - 1.0 / 3.0).abs() < 1e-12));
        assert!(ok
            .iter()
            .any(|m| m.name == "setup_s" && (m.value - 0.6).abs() < 1e-12));
    }

    #[test]
    fn setup_batch_skips_the_warm_up_and_spans_its_time() {
        let mut calls = 0;
        let started = Instant::now();
        let timed = setup_batch(|| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(50));
            Ok(calls)
        })
        .unwrap();
        assert!(started.elapsed().as_secs_f64() >= SETUP_BATCH_SECONDS);
        assert!(timed.len() >= SETUP_BATCH);
        assert_eq!(timed[0], SETUP_WARMUP + 1);
    }

    fn sample_at(start_s: u64, done_s: u64) -> Sample {
        Sample {
            latency_ns: (done_s - start_s) * 1_000_000_000,
            ok: true,
            refusal: None,
            cost: None,
            checked: None,
            start_ns: start_s * 1_000_000_000,
            done_ns: done_s * 1_000_000_000,
        }
    }

    #[test]
    fn steal_filter_keeps_the_calm_queries() {
        // 100 ticks a second; the hypervisor steals half of second 2.
        let timeline = StealTimeline(vec![
            (0, 0, 0),
            (1_000_000_000, 0, 100),
            (2_000_000_000, 50, 200),
            (3_000_000_000, 50, 300),
            (4_000_000_000, 50, 400),
        ]);
        assert_eq!(timeline.share(1_000_000_000, 2_000_000_000), 0.5);
        assert_eq!(timeline.share(1_500_000_000, 2_500_000_000), 0.25);
        assert_eq!(timeline.share(3_000_000_000, 9_000_000_000), 0.0);
        let phase = Phase {
            samples: (0..4).map(|i| sample_at(i, i + 1)).collect(),
            per_client: vec![4],
            wall_ns: 4_000_000_000,
            steal: timeline,
            ..Phase::default()
        };
        assert_eq!(phase.calm_threshold(), CALM_STEAL);
        // Only the query that ended in the stolen second is dropped.
        assert_eq!(phase.calm().len(), 3);
        assert_eq!(phase.queries_per_s(), 1.0);
        assert_eq!(phase.latencies_ms(), vec![1000.0; 3]);
    }
}
