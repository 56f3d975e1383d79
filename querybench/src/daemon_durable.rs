//! `daemon-durable`: the `serve --listen` deployment inside one
//! process. A `Daemon` on a Unix socket coordinates N socket workers on
//! `run_worker` threads for a durable `QueryService`; one client
//! submits the daemon's canonical world over the socket, again and
//! again. The host loop checks each outcome against the oracle and
//! hands the client its sample before it replies on the socket.

use crate::gen::{self, Job};
use crate::oracle::{self, Answer};
use crate::run::{self, closed_loop, timed, Opts, Outcome, Phase, Refusal, Sample};
use crate::stats;
use crate::trace::{self, Tracer, NO_QUERY};
use crate::wrap::{TracedBackend, TracedBuilder, TracedRemote};
use edgelet_core::store::{DurableBackend, FileBackend};
use edgelet_core::util::{Error, Result};
use edgelet_core::Platform;
use edgelet_live::{
    DurabilityConfig, LiveRunOptions, PreparedQuery, QueryService, RemoteExecutor, ServiceConfig,
};
use edgelet_net::{
    run_worker, Addr, CollectorTransport, Daemon, MsgStream, NetConfig, NetMsg, Role, Stream,
    WorkerConfig, WorldBuilder,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Nearest-rank percentile `query_tail_ms` reports.
pub const TAIL: f64 = 0.9;

/// How long set-up waits for every worker to register.
const REGISTER_TIMEOUT: Duration = Duration::from_secs(30);

/// A client's wait for the daemon's reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// The canonical world: its crowd and its one query.
type World = (Platform, Job);

/// Rebuilds the canonical world from its spec bytes, as the daemon and
/// every worker do for each epoch.
struct BenchWorld;

impl WorldBuilder for BenchWorld {
    fn build(&self, spec: &[u8], epoch: u64, workers: usize) -> Result<PreparedQuery> {
        let (platform, job) = gen::daemon_world(spec)?;
        let workers = workers.max(1);
        edgelet_live::prepare_live_query(
            &platform,
            &job.spec,
            &job.privacy,
            &job.resilience,
            Arc::new(CollectorTransport::new(workers)),
            &LiveRunOptions::new(workers, epoch),
        )
    }
}

// ---- the deployment ----

/// Which calls the deployment's trait objects are wrapped for.
struct Wiring {
    tracer: Option<Arc<Tracer>>,
}

impl Wiring {
    fn builder(&self) -> Arc<dyn WorldBuilder> {
        match &self.tracer {
            Some(t) => Arc::new(TracedBuilder::new(Arc::new(BenchWorld), t.clone())),
            None => Arc::new(BenchWorld),
        }
    }

    fn backend(&self, b: FileBackend) -> Arc<dyn DurableBackend> {
        match &self.tracer {
            Some(t) => Arc::new(TracedBackend::new(Arc::new(b), t.clone())),
            None => Arc::new(b),
        }
    }

    fn remote(&self, d: &Arc<Daemon>) -> Arc<dyn RemoteExecutor> {
        match &self.tracer {
            Some(t) => Arc::new(TracedRemote::new(d.clone(), t.clone())),
            None => d.clone(),
        }
    }
}

/// A running deployment: service, daemon, workers and the host loop
/// that feeds socket submissions to the service.
struct Deployment {
    service: Arc<QueryService>,
    /// The host loop's sample of the submission it last answered.
    outcome: Arc<Mutex<Option<Sample>>>,
    daemon: Arc<Daemon>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    host: Option<JoinHandle<()>>,
    addr: Addr,
}

/// Set-up timings of one deployment start.
struct SetupTimes {
    total_s: f64,
    build_s: f64,
    recover_s: f64,
    register_s: f64,
}

impl Deployment {
    fn start(
        dir: &Path,
        world_spec: &[u8],
        expected: &Answer,
        wiring: &Wiring,
        n: usize,
    ) -> Result<(Deployment, SetupTimes)> {
        let started = Instant::now();
        let (world, build_s) = timed(|| gen::daemon_world(world_spec));
        let (platform, job) = world?;
        let backend = FileBackend::open(dir.join("wal"))
            .map_err(|e| Error::InvalidConfig(format!("open WAL: {}", e.message())))?;
        let ((service, recovery), recover_s) = timed(|| {
            QueryService::with_durability(
                platform,
                ServiceConfig {
                    workers: n,
                    max_concurrent: n,
                    mailbox_capacity: 4096,
                },
                wiring.backend(backend),
                // The CLI's defaults: checkpoint every 8 completions, no
                // commit window, 4 MiB segments.
                DurabilityConfig {
                    checkpoint_every: 8,
                    commit_window: Duration::ZERO,
                    segment_bytes: 4 << 20,
                    crash_at: None,
                    crash_handler: None,
                },
            )
        });
        if let Some(reason) = recovery.drained {
            return Err(Error::InvalidConfig(format!(
                "service came up drained: {reason}"
            )));
        }
        let service = Arc::new(service);
        let register_started = Instant::now();
        let addr = Addr::Uds(dir.join("d.sock"));
        let daemon = Arc::new(Daemon::start(
            &addr,
            NetConfig {
                expected_workers: n,
                world_spec: world_spec.to_vec(),
                ..NetConfig::default()
            },
            wiring.builder(),
        )?);
        service.set_remote(wiring.remote(&daemon));
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..n)
            .map(|_| {
                let (addr, stop, builder) = (addr.clone(), stop.clone(), wiring.builder());
                std::thread::spawn(move || {
                    // Ends when `stop` is raised and the daemon closes.
                    let _ = run_worker(&WorkerConfig::new(addr), builder, &stop);
                })
            })
            .collect();
        let outcome = Arc::new(Mutex::new(None));
        let host = {
            let (daemon, service, stop) = (daemon.clone(), service.clone(), stop.clone());
            let (spec, expected, tracer) =
                (world_spec.to_vec(), expected.clone(), wiring.tracer.clone());
            let outcome = outcome.clone();
            std::thread::spawn(move || {
                let host = Host {
                    daemon: &daemon,
                    service: &service,
                    world_spec: &spec,
                    job: &job,
                    expected: &expected,
                    outcome: &outcome,
                    tracer: tracer.as_deref(),
                };
                host.serve(&stop)
            })
        };
        let mut d = Deployment {
            service,
            outcome,
            daemon,
            stop,
            workers,
            host: Some(host),
            addr,
        };
        if !d.daemon.wait_workers(REGISTER_TIMEOUT) {
            d.stop();
            return Err(Error::Protocol("workers did not register in time".into()));
        }
        let register_s = register_started.elapsed().as_secs_f64();
        let times = SetupTimes {
            total_s: started.elapsed().as_secs_f64(),
            build_s,
            recover_s,
            register_s,
        };
        Ok((d, times))
    }

    /// One client submission over the socket: the host loop's sample of
    /// it, once the daemon's reply has arrived.
    fn submit(&self, world_spec: &[u8]) -> Result<Sample> {
        let mut stream = MsgStream::new(Stream::connect(&self.addr)?);
        stream.send(&NetMsg::hello(Role::Client))?;
        stream.send(&NetMsg::SubmitReq {
            spec: world_spec.to_vec(),
        })?;
        match stream.recv(Some(REPLY_TIMEOUT))? {
            NetMsg::SubmitResp { .. } => self
                .outcome
                .lock()
                .expect("outcome slot")
                .take()
                .ok_or_else(|| Error::Protocol("reply without an outcome".into())),
            NetMsg::Reject { reason } => Err(Error::Protocol(reason)),
            other => Err(Error::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Stops the host loop, drains the service, closes the daemon and
    /// joins every thread.
    fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.host.take() {
            h.join().expect("daemon host loop panicked");
        }
        self.service.shutdown();
        self.daemon.shutdown();
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if self.host.is_some() || !self.workers.is_empty() {
            self.stop();
        }
    }
}

/// The `serve --listen` host loop's view of the deployment.
struct Host<'a> {
    daemon: &'a Daemon,
    service: &'a QueryService,
    world_spec: &'a [u8],
    job: &'a Job,
    expected: &'a Answer,
    outcome: &'a Mutex<Option<Sample>>,
    tracer: Option<&'a Tracer>,
}

impl Host<'_> {
    /// Takes each socket submission, checks it names this daemon's
    /// world, runs it through the service, and replies. The sample goes
    /// to the outcome slot before the reply, so the client finds it
    /// there; a query the service ran in-process after a failed remote
    /// run counts as failed, because the deployment under test is the
    /// remote one.
    fn serve(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::Acquire) {
            let Some(sub) = self.daemon.next_submission(Duration::from_millis(20)) else {
                continue;
            };
            if sub.spec != self.world_spec {
                sub.reject("world spec does not match this daemon's canonical world".into());
                continue;
            }
            let fallbacks = self.service.remote_fallbacks();
            let result = {
                let _s = self.tracer.map(|t| t.span("service.submit"));
                self.service.submit(
                    &self.job.spec,
                    &self.job.privacy,
                    &self.job.resilience,
                    Some(run::WALL_DEADLINE),
                )
            };
            let mut sample = match result {
                Ok(out) => Sample::ran(
                    0,
                    &out.run.report,
                    out.run.plan.n,
                    out.wall_aborted,
                    Some(self.expected),
                ),
                Err(e) => Sample::refused(0, Refusal::of(&e)),
            };
            sample.ok &= self.service.remote_fallbacks() == fallbacks;
            *self.outcome.lock().expect("outcome slot") = Some(sample);
            sub.respond(Vec::new());
        }
    }
}

/// A scratch directory inside the output directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path, tag: &str) -> Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir.join(format!(
            "tmp-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::InvalidConfig(format!("create {}: {e}", dir.display())))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload.
pub fn run(o: &Opts) -> Result<Outcome> {
    let n = crate::host::parallelism();
    let world_spec = gen::daemon_world_spec(o.seed);
    // The oracle's reference: the simulator host's run of the world.
    let expected = {
        let (mut platform, job) = gen::daemon_world(&world_spec)?;
        oracle::reference(&mut platform, &job)?
    };
    let untraced_wiring = Wiring { tracer: None };
    let start =
        |dir: &Scratch| Deployment::start(&dir.0, &world_spec, &expected, &untraced_wiring, n);
    let scratch = Scratch::new(&o.out_dir, "daemon")?;
    let mut deployment = None;
    let before = run::setup_batch(|| {
        if let Some(mut d) = deployment.take() {
            Deployment::stop(&mut d);
        }
        let (d, t) = start(&scratch)?;
        deployment = Some(d);
        Ok(t)
    })?;
    let mut deployment = deployment.expect("a set-up batch starts at least once");

    // A traced phase also plans each query once more on `world`, the
    // canonical world as the service holds it, to time planning alone.
    let phase = |d: &Deployment, traced: Option<(&Tracer, &World)>, watch: bool, base: u64| {
        let tracer = traced.map(|(t, _)| t);
        closed_loop(1, o.seconds, watch, |_, i| {
            let query = base + i as u64 + 1;
            let started = Instant::now();
            let root = traced.map(|(t, (platform, job))| {
                t.set_current_query(query);
                let root = t.query_root(query);
                let _s = t.span("query.plan");
                platform
                    .plan_query(&job.spec, &job.privacy, &job.resilience)
                    .ok();
                root
            });
            let sample = d.submit(&world_spec);
            drop(root);
            if let Some(t) = tracer {
                t.set_current_query(NO_QUERY);
            }
            let latency = started.elapsed().as_nanos() as u64;
            Some(match sample {
                Ok(sample) => Sample {
                    latency_ns: latency,
                    ..sample
                },
                Err(_) => Sample::refused(latency, Refusal::Failed),
            })
        })
    };

    let untraced = phase(&deployment, None, o.trace, 0);
    let fallbacks = deployment.service.remote_fallbacks();
    deployment.stop();
    drop(deployment);
    let mut out = Outcome::default();
    run::end_to_end(&mut out, &untraced, TAIL);
    out.facts.push(("remote_fallbacks", fallbacks.to_string()));
    // After the phase, over a WAL as fresh as the first batch's.
    let after_scratch = Scratch::new(&o.out_dir, "daemon-after")?;
    let after = run::setup_batch(|| {
        let (mut d, t) = start(&after_scratch)?;
        d.stop();
        Ok(t)
    })?;
    drop(after_scratch);
    let total = |batch: &[SetupTimes]| batch.iter().map(|t| t.total_s).collect::<Vec<_>>();
    run::setup_time(&mut out, &total(&before), &total(&after));
    let ms = |f: fn(&SetupTimes) -> f64| {
        stats::median(&before.iter().chain(&after).map(f).collect::<Vec<_>>()) * 1e3
    };
    out.values.set("core.build_ms", ms(|t| t.build_s));
    out.values.set("store.recover_ms", ms(|t| t.recover_s));
    out.values.set("net.register_ms", ms(|t| t.register_s));
    let (mut checked, mut mismatches) = untraced.checks();

    if o.trace {
        // A second deployment with every trait object wrapped, on a
        // fresh WAL so the traced phase starts where the untraced did.
        let tracer = Tracer::new();
        let traced_scratch = Scratch::new(&o.out_dir, "daemon-traced")?;
        let wiring = Wiring {
            tracer: Some(tracer.clone()),
        };
        let (mut d, _) = Deployment::start(&traced_scratch.0, &world_spec, &expected, &wiring, n)?;
        let world = gen::daemon_world(&world_spec)?;
        let traced = phase(
            &d,
            Some((&tracer, &world)),
            false,
            untraced.samples.len() as u64,
        );
        let (c, m) = traced.checks();
        checked += c;
        mismatches += m;
        let (registrations, rejections) =
            (d.daemon.total_registrations(), d.daemon.total_rejections());
        d.stop();
        layers(&mut out, &untraced, &traced, &tracer);
        out.values.set("net.registrations", registrations as f64);
        out.values.set("net.rejections", rejections as f64);
        run::write_spans(&tracer, o, "daemon-durable")?;
    }
    out.facts.push(("socket", "\"uds\"".into()));
    out.checked = checked;
    out.mismatches = mismatches;
    Ok(out)
}

fn layers(out: &mut Outcome, untraced: &Phase, traced: &Phase, tracer: &Tracer) {
    run::common_layers(out, untraced, traced, tracer);
    let spans = tracer.spans();
    let q = traced.samples.len().max(1) as f64;
    let c = &tracer.calls;
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    let v = &mut out.values;
    v.set("net.try_run_ms", run::span_ms(&spans, "net.try_run") / q);
    let builds = run::span_count(&spans, "net.world_build") as f64;
    v.set(
        "net.world_build_ms",
        stats::ratio(run::span_ms(&spans, "net.world_build"), builds),
    );
    v.set("net.world_builds_per_query", builds / q);
    let relay_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "net.try_run")
        .map(|s| trace::self_time_ns(s, &spans, |n| n == "net.world_build"))
        .sum();
    v.set("net.relay_ms", relay_ns as f64 / 1e6 / q);
    v.set(
        "net.remote_ratio",
        stats::ratio(get(&c.remote_ok), get(&c.try_runs)),
    );
    let appends = run::span_count(&spans, "store.append") as f64;
    let syncs = run::span_count(&spans, "store.sync") as f64;
    v.set("store.append_calls", appends / q);
    v.set("store.append_bytes", get(&c.append_bytes) / q);
    v.set("store.append_ms", run::span_ms(&spans, "store.append") / q);
    v.set("store.sync_calls", syncs / q);
    v.set("store.sync_ms", run::span_ms(&spans, "store.sync") / q);
    v.set(
        "store.records_per_sync",
        stats::ratio(get(&c.append_records), syncs),
    );
    let checkpoints = run::span_count(&spans, "store.checkpoint") as f64;
    v.set("store.checkpoint_calls", checkpoints / q);
    v.set(
        "store.checkpoint_ms",
        stats::ratio(run::span_ms(&spans, "store.checkpoint"), checkpoints),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> Scratch {
        Scratch::new(Path::new(".bench_out"), tag).expect("scratch dir")
    }

    #[test]
    fn tiny_run_passes_the_oracle_traced_and_untraced() {
        for trace in [false, true] {
            let dir = scratch("tiny-daemon");
            let out = run(&Opts {
                seed: 3,
                seconds: 0.3,
                trace,
                scale: gen::Scale::Tiny,
                out_dir: dir.0.clone(),
            })
            .expect("tiny daemon-durable run");
            assert!(out.attempted > 0 && out.failed == 0, "{out:?}");
            assert!(out.checked >= out.attempted && out.mismatches == 0);
        }
    }

    #[test]
    fn wrappers_leave_answers_and_wal_bytes_unchanged() {
        let spec = gen::daemon_world_spec(5);
        let expected = {
            let (mut platform, job) = gen::daemon_world(&spec).unwrap();
            oracle::reference(&mut platform, &job).unwrap()
        };
        let mut seen = Vec::new();
        for tracer in [None, Some(Tracer::new())] {
            let dir = scratch("wrap-daemon");
            let wiring = Wiring { tracer };
            let (mut d, _) =
                Deployment::start(&dir.0, &spec, &expected, &wiring, 2).expect("deployment");
            let samples: Vec<(bool, Option<bool>, u64)> = (0..2)
                .map(|_| {
                    let s = d.submit(&spec).expect("reply");
                    (s.ok, s.checked, s.cost.expect("ran").msgs)
                })
                .collect();
            assert!(
                samples.iter().all(|s| s.0 && s.1 == Some(true)),
                "{samples:?}"
            );
            d.stop();
            let wal = FileBackend::open(dir.0.join("wal"))
                .unwrap()
                .read_wal()
                .unwrap();
            if let Some(t) = &wiring.tracer {
                assert!(t.calls.world_builds.load(Ordering::Relaxed) >= 2);
                assert_eq!(t.calls.remote_ok.load(Ordering::Relaxed), 2);
            }
            seen.push((samples, wal));
        }
        assert!(!seen[0].1.is_empty());
        assert_eq!(seen[0], seen[1]);
    }
}
