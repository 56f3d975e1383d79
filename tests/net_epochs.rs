//! Multi-epoch parity: one daemon serves many consecutive epochs from
//! a coordinator view it builds once per deployment.
//!
//! A fleet (a daemon plus two worker loops over a real Unix domain
//! socket) runs several epochs with distinct ids back to back, on a
//! Grouping-Sets and on a K-Means world. Every epoch must be
//! byte-identical to the simulator and to the in-process live runtime
//! at the same epoch: result payload, liability ledger, trace digest
//! and state CRC. Counting `WorldBuilder` wrappers pin who builds what:
//! the daemon builds its world exactly once across all epochs, and
//! every worker builds its own once per epoch.
//!
//! A daemon whose first build fails must not cache the failure: that
//! epoch falls back to an in-process rerun with the same bytes, and the
//! next epoch builds the view and runs distributed.

use edgelet_chaos::{ChaosScenario, FaultPlan};
use edgelet_live::{
    prepare_live_query, run_live_query, state_crc, LiveRun, LiveRunOptions, PreparedQuery,
    QueryService, RemoteExecutor, ServiceConfig, StripedTransport,
};
use edgelet_net::{
    run_worker, Addr, CollectorTransport, Daemon, NetConfig, WorkerConfig, WorldBuilder,
};
use edgelet_util::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker processes per fleet.
const FLEET: usize = 2;

/// Epoch ids one fleet runs back to back: distinct and not contiguous.
const EPOCHS: [u64; 5] = [3, 4, 17, 18, 1_000_003];

// ---- canonical world-spec bytes ----

fn spec_bytes(scenario: ChaosScenario, seed: u64) -> Vec<u8> {
    format!("net-epochs/1 scenario={} seed={seed}", scenario.name()).into_bytes()
}

/// Rebuilds a chaos-scenario world from [`spec_bytes`].
struct ScenarioBuilder;

impl WorldBuilder for ScenarioBuilder {
    fn build(&self, spec: &[u8], epoch: u64, workers: usize) -> Result<PreparedQuery> {
        let text = std::str::from_utf8(spec)
            .map_err(|_| Error::InvalidConfig("world spec is not UTF-8".into()))?;
        let mut scenario = None;
        let mut seed = None;
        for field in text.split_whitespace().skip(1) {
            match field.split_once('=') {
                Some(("scenario", name)) => scenario = ChaosScenario::from_name(name),
                Some(("seed", n)) => seed = n.parse::<u64>().ok(),
                _ => {}
            }
        }
        let (scenario, seed) = scenario.zip(seed).ok_or_else(|| {
            Error::InvalidConfig(format!("unparseable net-epochs world spec: {text:?}"))
        })?;
        let (platform, qspec, privacy, resilience) =
            scenario.open(seed, FaultPlan::new()).into_parts();
        prepare_live_query(
            &platform,
            &qspec,
            &privacy,
            &resilience,
            Arc::new(CollectorTransport::new(workers)),
            &LiveRunOptions::new(workers, epoch),
        )
    }
}

/// Counts `build` calls; the first `fail_first` calls fail.
struct Counting {
    builds: Arc<AtomicU64>,
    fail_first: u64,
}

impl Counting {
    fn new(fail_first: u64) -> (Counting, Arc<AtomicU64>) {
        let builds = Arc::new(AtomicU64::new(0));
        let counting = Counting {
            builds: builds.clone(),
            fail_first,
        };
        (counting, builds)
    }
}

impl WorldBuilder for Counting {
    fn build(&self, spec: &[u8], epoch: u64, workers: usize) -> Result<PreparedQuery> {
        let call = self.builds.fetch_add(1, Ordering::AcqRel);
        if call < self.fail_first {
            return Err(Error::InvalidConfig(format!(
                "injected build failure {call}"
            )));
        }
        ScenarioBuilder.build(spec, epoch, workers)
    }
}

// ---- fleet harness ----

/// A daemon plus `FLEET` worker loops over a fresh UDS, each with its
/// own build counter and stop flag.
struct Fleet {
    daemon: Arc<Daemon>,
    daemon_builds: Arc<AtomicU64>,
    addr: Addr,
    worker_builds: Vec<Arc<AtomicU64>>,
    workers: Vec<(Arc<AtomicBool>, std::thread::JoinHandle<()>)>,
    path: std::path::PathBuf,
}

impl Fleet {
    fn start(world_spec: Vec<u8>, daemon_failures: u64, tag: &str) -> Fleet {
        let path =
            std::path::PathBuf::from(format!("/tmp/edgelet-ne-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let addr = Addr::Uds(path.clone());
        let (builder, daemon_builds) = Counting::new(daemon_failures);
        let daemon = Arc::new(
            Daemon::start(
                &addr,
                NetConfig {
                    expected_workers: FLEET,
                    world_spec,
                    ..NetConfig::default()
                },
                Arc::new(builder),
            )
            .expect("daemon binds a fresh UDS path"),
        );
        let mut fleet = Fleet {
            daemon,
            daemon_builds,
            addr,
            worker_builds: Vec::new(),
            workers: Vec::new(),
            path,
        };
        for _ in 0..FLEET {
            fleet.spawn_worker();
        }
        assert!(
            fleet.daemon.wait_workers(Duration::from_secs(30)),
            "both workers must register within the handshake window"
        );
        fleet
    }

    /// Starts one worker loop with a fresh build counter.
    fn spawn_worker(&mut self) {
        let (builder, builds) = Counting::new(0);
        self.worker_builds.push(builds);
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, flag) = (self.addr.clone(), stop.clone());
        let handle = std::thread::spawn(move || {
            run_worker(&WorkerConfig::new(addr), Arc::new(builder), &flag)
                .expect("worker session ends cleanly");
        });
        self.workers.push((stop, handle));
    }

    /// Stops worker `index` without any goodbye message: its socket
    /// just dies, as after `kill -9`.
    fn sever_worker(&mut self, index: usize) {
        let (stop, handle) = self.workers.remove(index);
        stop.store(true, Ordering::Release);
        handle.join().expect("worker thread");
    }

    /// Runs one epoch distributed; panics if the daemon declines or
    /// fails.
    fn run(&self, scenario: ChaosScenario, seed: u64, epoch: u64) -> LiveRun {
        let (_, qspec, privacy, resilience) = scenario.open(seed, FaultPlan::new()).into_parts();
        let abort = AtomicBool::new(false);
        self.daemon
            .try_run(epoch, &qspec, &privacy, &resilience, &abort)
            .expect("fleet is complete, the daemon must not decline")
            .expect("distributed epoch completes")
    }

    fn daemon_builds(&self) -> u64 {
        self.daemon_builds.load(Ordering::Acquire)
    }

    fn worker_builds(&self) -> Vec<u64> {
        self.worker_builds
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for (stop, _) in &self.workers {
            stop.store(true, Ordering::Release);
        }
        self.daemon.shutdown();
        for (_, handle) in self.workers.drain(..) {
            handle.join().expect("worker thread");
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

// ---- references ----

/// The in-process live run of `epoch`.
fn live_run(scenario: ChaosScenario, seed: u64, epoch: u64) -> LiveRun {
    let session = scenario.open(seed, FaultPlan::new());
    let transport = Arc::new(StripedTransport::new(4096));
    transport.register_epoch(epoch, FLEET);
    run_live_query(
        session.platform(),
        session.spec(),
        session.privacy(),
        session.resilience(),
        transport,
        &LiveRunOptions::new(FLEET, epoch),
        None,
    )
    .expect("in-process live execution")
}

/// Asserts `run` carries the simulator's bytes and `live`'s state CRC.
fn assert_matches(run: &LiveRun, sim: &edgelet_core::RunResult, live: &LiveRun, ctx: &str) {
    assert_eq!(
        run.report.result_payload, sim.report.result_payload,
        "result payload bytes diverged from sim ({ctx})"
    );
    assert_eq!(
        run.report.ledger.entries(),
        sim.report.ledger.entries(),
        "liability ledger diverged from sim ({ctx})"
    );
    assert_eq!(
        run.trace_digest, sim.trace_digest,
        "trace digest diverged from sim ({ctx})"
    );
    assert_eq!(run.report.completed, sim.report.completed, "{ctx}");
    assert_eq!(run.report.valid, sim.report.valid, "{ctx}");
    assert_eq!(run.report.messages_sent, sim.report.messages_sent, "{ctx}");
    assert_eq!(
        state_crc(run),
        state_crc(live),
        "state CRC diverged ({ctx})"
    );
}

// ---- many epochs, one daemon build ----

fn assert_epochs_share_one_daemon_build(scenario: ChaosScenario, seed: u64) {
    let sim = scenario
        .open(seed, FaultPlan::new())
        .run()
        .expect("simulator execution")
        .result;
    let fleet = Fleet::start(spec_bytes(scenario, seed), 0, scenario.name());
    for (i, &epoch) in EPOCHS.iter().enumerate() {
        let ctx = format!("scenario={} seed={seed} epoch={epoch}", scenario.name());
        let live = live_run(scenario, seed, epoch);
        assert_matches(&live, &sim, &live, &format!("live {ctx}"));
        let net = fleet.run(scenario, seed, epoch);
        assert_matches(&net, &sim, &live, &format!("net {ctx}"));
        assert_eq!(
            fleet.daemon_builds(),
            1,
            "the daemon builds its view once per deployment ({ctx})"
        );
        assert_eq!(
            fleet.worker_builds(),
            vec![i as u64 + 1; FLEET],
            "each worker builds once per epoch ({ctx})"
        );
    }
}

#[test]
fn grouping_fleet_serves_many_epochs_from_one_daemon_build() {
    assert_epochs_share_one_daemon_build(ChaosScenario::Grouping, 2);
}

#[test]
fn kmeans_fleet_serves_many_epochs_from_one_daemon_build() {
    assert_epochs_share_one_daemon_build(ChaosScenario::KMeans, 3);
}

// ---- a failed build is not cached ----

#[test]
fn failed_daemon_build_falls_back_then_the_next_epoch_builds_the_view() {
    let scenario = ChaosScenario::Grouping;
    let seed = 1;
    let sim = scenario
        .open(seed, FaultPlan::new())
        .run()
        .expect("simulator execution")
        .result;
    let (platform, qspec, privacy, resilience) = scenario.open(seed, FaultPlan::new()).into_parts();
    let service = QueryService::new(
        platform,
        ServiceConfig {
            workers: FLEET,
            max_concurrent: 1,
            mailbox_capacity: 4096,
        },
    );
    let fleet = Fleet::start(spec_bytes(scenario, seed), 1, "fail-first");
    service.set_remote(fleet.daemon.clone());
    let deadline = Some(Duration::from_secs(300));

    // Epoch 1: the daemon's build fails, the epoch reruns in-process.
    let first = service
        .submit(&qspec, &privacy, &resilience, deadline)
        .expect("fallback submission");
    assert!(first.succeeded(), "fallback epoch must complete");
    assert_eq!(service.remote_fallbacks(), 1, "a failed build falls back");
    assert_eq!(fleet.daemon_builds(), 1);
    let live = live_run(scenario, seed, first.epoch);
    assert_matches(&first.run, &sim, &live, "fallback epoch");

    // The failed epoch dropped the worker links; wait for the
    // reconnects, then every later epoch runs distributed.
    for n in 0..3 {
        assert!(
            fleet.daemon.wait_workers(Duration::from_secs(30)),
            "workers re-register after the failed epoch"
        );
        let out = service
            .submit(&qspec, &privacy, &resilience, deadline)
            .expect("distributed submission");
        assert!(out.succeeded(), "distributed epoch must complete");
        assert_ne!(out.epoch, first.epoch);
        assert_eq!(
            service.remote_fallbacks(),
            1,
            "epoch {} must run distributed",
            out.epoch
        );
        assert_eq!(
            fleet.daemon_builds(),
            2,
            "the retry builds the view once, then it is cached (after {n} reuses)"
        );
        let live = live_run(scenario, seed, out.epoch);
        assert_matches(&out.run, &sim, &live, &format!("epoch {}", out.epoch));
    }

    drop(fleet);
    service.shutdown();
}

// ---- a dead worker frees its slot ----

/// A worker that dies between epochs must not keep its registry slot:
/// the liveness probe drops the dead link, the epoch declines, and a
/// replacement worker registers in the freed slot and serves the next
/// epoch distributed, from the view the daemon already built.
#[test]
fn replacement_worker_takes_the_dead_workers_slot() {
    let scenario = ChaosScenario::KMeans;
    let seed = 0;
    let mut fleet = Fleet::start(spec_bytes(scenario, seed), 0, "replace");
    let before = fleet.run(scenario, seed, 5);

    fleet.sever_worker(0);
    let (_, qspec, privacy, resilience) = scenario.open(seed, FaultPlan::new()).into_parts();
    let abort = AtomicBool::new(false);
    assert!(
        fleet
            .daemon
            .try_run(6, &qspec, &privacy, &resilience, &abort)
            .is_none(),
        "an incomplete fleet declines the epoch"
    );
    assert_eq!(
        fleet.daemon.registered_workers(),
        FLEET - 1,
        "the probe frees the dead worker's slot"
    );

    fleet.spawn_worker();
    assert!(
        fleet.daemon.wait_workers(Duration::from_secs(30)),
        "the replacement registers in the freed slot"
    );
    let after = fleet.run(scenario, seed, 7);
    assert_eq!(after.report.result_payload, before.report.result_payload);
    assert_eq!(state_crc(&after), state_crc(&before));
    assert_eq!(fleet.daemon_builds(), 1);
}
