//! Parity across the calendar queue's far-event horizon.
//!
//! The simulator's calendar queue keeps cells within a fixed span of
//! lookaheads (its near tier) in a map and parks everything later, such
//! as hour-scale churn toggles and long timers, in one far heap that
//! migrates into cells as virtual time approaches. These tests run a
//! small world long past that span and pin that crossing it changes
//! nothing: digests and metrics agree at every shard count, under both
//! the windowed executor and the sequential fallback.

use edgelet_core::sim::{
    Actor, Availability, Context, CrashPlan, DeviceConfig, Duration, FaultAction, FaultPlan,
    FaultRule, NetworkModel, SimConfig, SimTime, Simulation, TimerToken,
};
use edgelet_core::util::ids::DeviceId;

/// Network latency; with a reliable network it is also the lookahead,
/// so the calendar cell width.
const LATENCY_MS: u64 = 10;
/// Virtual time the queue's near tier spans from the start: 1024 cells
/// of one lookahead each.
const NEAR_SPAN_S: f64 = 1024.0 * LATENCY_MS as f64 / 1e3;
const DEVICES: u64 = 24;
/// Well past the near span, so the run migrates several horizons.
const DEADLINE_S: u64 = 120;

/// Ticks every ~2 s, pinging a random peer, and sets one long timer at
/// start that lands well past the initial horizon.
struct Ticker {
    peers: Vec<DeviceId>,
    ticks_left: u32,
    long: Option<TimerToken>,
}

impl Actor for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let jitter = ctx.rng().range(0..500u64);
        ctx.set_timer(Duration::from_millis(2_000 + jitter));
        let late = ctx.rng().range(30_000..50_000u64);
        self.long = Some(ctx.set_timer(Duration::from_millis(late)));
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, payload: &[u8]) {
        ctx.observe("recv", 1.0);
        let hops = payload.first().copied().unwrap_or(0);
        if hops < 2 {
            ctx.send(from, vec![hops + 1]);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        let peer = *ctx.rng().pick(&self.peers);
        ctx.send(peer, vec![0u8]);
        if Some(token) == self.long {
            ctx.observe("late_timer_s", ctx.now().as_secs_f64());
            return;
        }
        if self.ticks_left > 0 {
            self.ticks_left -= 1;
            let jitter = ctx.rng().range(0..500u64);
            ctx.set_timer(Duration::from_millis(2_000 + jitter));
        }
    }
}

fn world(shards: usize, plan: Option<FaultPlan>) -> Simulation {
    let mut sim = Simulation::new(
        SimConfig {
            network: NetworkModel::reliable(Duration::from_millis(LATENCY_MS)),
            trace_capacity: 1 << 16,
            shards,
            ..SimConfig::default()
        },
        7,
    );
    if let Some(plan) = plan {
        sim.set_fault_plan(plan);
    }
    let devices: Vec<DeviceId> = (0..DEVICES)
        .map(|_| {
            sim.add_device(DeviceConfig {
                availability: Availability::Intermittent {
                    mean_up: Duration::from_secs(3_600),
                    mean_down: Duration::from_secs(20 * 60),
                    start_up: true,
                },
                crash: CrashPlan::Never,
            })
        })
        .collect();
    for &d in &devices {
        sim.install_actor(
            d,
            Box::new(Ticker {
                peers: devices.clone(),
                ticks_left: 40,
                long: None,
            }),
        );
    }
    sim
}

/// Digest, total trace records and the full metrics of one run.
fn run(shards: usize, plan: Option<FaultPlan>) -> (u64, u64, String) {
    let mut sim = world(shards, plan);
    sim.run_until(SimTime::from_micros(DEADLINE_S * 1_000_000));
    let m = sim.metrics();
    // Every long timer was set at start for 30 s or later, past the
    // initial horizon; each firing is an event that migrated out of the
    // far tier.
    let late = &m.observations["late_timer_s"];
    assert_eq!(late.count(), DEVICES, "shards={shards}");
    assert!(late.mean() > 2.0 * NEAR_SPAN_S, "shards={shards}");
    // Protocol work kept going across several near spans.
    assert!(m.events_processed > 40 * DEVICES, "shards={shards}");
    let last = sim.trace().records().last().map(|r| r.at.as_secs_f64());
    assert!(last > Some(4.0 * NEAR_SPAN_S), "shards={shards}: {last:?}");
    (
        sim.trace().digest(),
        sim.trace().total_recorded(),
        format!("{m:?}"),
    )
}

/// A `limit` rule depends on global occurrence order, so it forces the
/// sequential fallback executor.
fn fallback_plan(delay_ms: u64) -> FaultPlan {
    FaultPlan::new().rule(
        FaultRule::new(FaultAction::Delay(Duration::from_millis(delay_ms)))
            .skip(5)
            .limit(20),
    )
}

#[test]
fn windowed_executor_is_shard_invariant_across_the_horizon() {
    let baseline = run(1, None);
    for shards in [2usize, 4] {
        assert_eq!(run(shards, None), baseline, "shards={shards}");
    }
}

#[test]
fn sequential_fallback_is_shard_invariant_across_the_horizon() {
    let plan = fallback_plan(700);
    assert!(!plan.is_window_safe());
    let baseline = run(1, Some(plan.clone()));
    // The rule really fired, so the run differs from the fault-free one.
    assert_ne!(baseline, run(1, None));
    for shards in [2usize, 4] {
        assert_eq!(run(shards, Some(plan.clone())), baseline, "shards={shards}");
    }
}

/// With a `limit` rule that never fires, the fallback must reproduce the
/// windowed executor exactly, migrations included.
#[test]
fn fallback_and_windowed_executors_agree_across_the_horizon() {
    let inert = FaultPlan::new().rule(
        FaultRule::new(FaultAction::Drop)
            .after(SimTime::from_micros(100 * DEADLINE_S * 1_000_000))
            .limit(1),
    );
    assert!(!inert.is_window_safe());
    for shards in [1usize, 2, 4] {
        assert_eq!(
            run(shards, Some(inert.clone())),
            run(shards, None),
            "shards={shards}"
        );
    }
}
