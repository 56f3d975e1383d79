//! Inputs generated from the workload seed: the crowd and the query
//! specs. The program sees only what these functions return.

use edgelet_core::prelude::*;
use edgelet_core::sim::{Availability, Duration};

/// SplitMix64: a small, fixed generator, so the inputs for a seed do
/// not depend on the program's own RNG.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Input size: the benchmark's own, or a tiny one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are defined at.
    Full,
    /// Small crowds, for the benchmark's tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// One query submission: the spec and the knobs that shape its plan.
#[derive(Debug, Clone)]
pub struct Job {
    /// The query.
    pub spec: QuerySpec,
    /// Privacy knobs (horizontal cap, vertical separation).
    pub privacy: PrivacyConfig,
    /// Resilience strategy.
    pub resilience: ResilienceConfig,
}

/// The crowd seed for a workload seed (the daemon's world).
pub fn crowd_seed(seed: u64) -> u64 {
    Rng::new(seed).next_u64()
}

/// Seed of the crowd `sim-crowd` and `serve-mixed` query. The crowd
/// stays the same for every workload seed, as the demo's does; the
/// seed chooses the query stream. A crowd drawn per seed moved
/// throughput by more than the run-to-run noise.
const DEMO_CROWD: u64 = 2023;

/// Gives the specs fresh query ids from a seed-chosen base, so no two
/// seeds share an id (the id also salts each query's crash draws).
fn renumber(jobs: &mut [&mut Job], seed: u64) {
    let base = (Rng::new(seed ^ 0x4944_5321).next_u64() >> 24) + 1;
    for (k, job) in jobs.iter_mut().enumerate() {
        job.spec.id = QueryId::new(base + k as u64);
    }
}

fn over65() -> Predicate {
    Predicate::cmp("age", CmpOp::Gt, Value::Int(65))
}

fn resilience(strategy: Strategy) -> ResilienceConfig {
    ResilienceConfig {
        strategy,
        failure_probability: 0.1,
        ..ResilienceConfig::default()
    }
}

// ---- sim-crowd ----

/// The demo's simulated crowd: intermittently connected contributors
/// that may also crash, and a network that drops 5% of messages.
/// Processors do not crash here: an Overcollection K-Means plan has one
/// combiner, and its crash voids the query (1 of 280 K-Means queries
/// failed at a 5% processor crash rate).
pub fn sim_crowd_config(scale: Scale, shards: usize) -> PlatformConfig {
    let (contributors, processors) = match scale {
        Scale::Full => (20_000, 1_500),
        Scale::Tiny => (1_500, 120),
    };
    PlatformConfig {
        seed: DEMO_CROWD,
        contributors,
        processors,
        network: NetworkProfile::Lossy {
            drop_probability: 0.05,
        },
        contributor_availability: Availability::Intermittent {
            mean_up: Duration::from_secs(2 * 3_600),
            mean_down: Duration::from_secs(15 * 60),
            start_up: true,
        },
        contributor_crash_probability: 0.05,
        shards,
        ..PlatformConfig::default()
    }
}

/// Grouping-Sets shapes: grouping sets, cardinality, cap.
const SIM_GROUPING: [(&[&[&str]], usize, usize); 4] = [
    (&[&["sex"], &["gir"], &[]], 400, 100),
    (&[&["sex"], &[]], 300, 75),
    (&[&["gir"], &[]], 500, 125),
    (&[&["sex", "gir"], &[]], 400, 100),
];

/// K-Means+Group-By shapes: k, features, heartbeats, cardinality.
const SIM_KMEANS: [(usize, &[&str], usize, usize); 4] = [
    (3, &["age", "bmi", "systolic_bp"], 3, 400),
    (4, &["bmi", "systolic_bp"], 2, 300),
    (3, &["age", "bmi"], 2, 500),
    (2, &["age", "systolic_bp"], 3, 400),
];

fn card(scale: Scale, full: usize) -> usize {
    match scale {
        Scale::Full => full,
        Scale::Tiny => full / 2,
    }
}

/// `count` distinct specs alternating Grouping-Sets and
/// K-Means+Group-By. Shapes are dealt in blocks of eight (every shape
/// once per block, order shuffled by the seed) so the mix, and with it
/// the mean cost, is the same for every seed.
pub fn sim_crowd_jobs(platform: &mut Platform, seed: u64, scale: Scale, count: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0x5157_4352);
    let mut jobs = Vec::with_capacity(count);
    let mut order = [0usize, 1, 2, 3];
    let mut korder = [0usize, 1, 2, 3];
    while jobs.len() < count {
        rng.shuffle(&mut order);
        rng.shuffle(&mut korder);
        for i in 0..4 {
            let (sets, c, cap) = SIM_GROUPING[order[i]];
            let spec = platform.grouping_query(
                over65(),
                card(scale, c),
                sets,
                vec![
                    AggSpec::count_star(),
                    AggSpec::over(AggKind::Avg, "bmi"),
                    AggSpec::over(AggKind::Avg, "systolic_bp"),
                ],
            );
            jobs.push(Job {
                spec,
                privacy: PrivacyConfig::none().with_max_tuples(card(scale, cap)),
                resilience: resilience(Strategy::Overcollection),
            });
            let (k, features, heartbeats, c) = SIM_KMEANS[korder[i]];
            let spec = platform.kmeans_query(
                over65(),
                card(scale, c),
                k,
                features,
                heartbeats,
                vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "gir")],
            );
            jobs.push(Job {
                spec,
                privacy: PrivacyConfig::none().with_max_tuples(card(scale, 100)),
                resilience: resilience(Strategy::Overcollection),
            });
        }
    }
    jobs.truncate(count);
    renumber(&mut jobs.iter_mut().collect::<Vec<_>>(), seed);
    jobs
}

// ---- serve-mixed ----

/// The demo-size crowd on a loss-free internet-latency network.
/// Devices stay connected (the live runtime hosts no churn model);
/// processors may crash. Message loss is left out because Backup plans
/// do not survive it: at 5% loss about half of them end invalid.
pub fn serve_mixed_config(scale: Scale) -> PlatformConfig {
    let (contributors, processors) = match scale {
        Scale::Full => (2_000, 150),
        Scale::Tiny => (1_500, 120),
    };
    PlatformConfig {
        seed: DEMO_CROWD,
        contributors,
        processors,
        network: NetworkProfile::Internet,
        processor_crash_probability: 0.05,
        ..PlatformConfig::default()
    }
}

/// Grouping sets the serve-mixed specs cycle through.
const SERVE_SETS: [&[&[&str]]; 4] = [
    &[&["sex"], &["gir"], &[]],
    &[&["sex"], &[]],
    &[&["gir"], &[]],
    &[&["sex", "gir"], &[]],
];

/// `clients` lists of `per_client` distinct Grouping-Sets specs that
/// vary cardinality, grouping sets, cap and vertical separation. Each
/// block of eight holds six Overcollection and two Backup specs, and
/// every (sets, cardinality, separation) shape once, in a seeded order.
pub fn serve_mixed_jobs(
    platform: &mut Platform,
    seed: u64,
    clients: usize,
    per_client: usize,
) -> Vec<Vec<Job>> {
    let mut rng = Rng::new(seed ^ 0x5345_5256);
    let mut lists: Vec<Vec<Job>> = (0..clients).map(|_| Vec::new()).collect();
    let mut next = 0usize;
    let mut shapes: Vec<usize> = (0..8).collect();
    let mut strategies = [
        Strategy::Overcollection,
        Strategy::Overcollection,
        Strategy::Overcollection,
        Strategy::Overcollection,
        Strategy::Overcollection,
        Strategy::Overcollection,
        Strategy::Backup,
        Strategy::Backup,
    ];
    while lists.iter().any(|l| l.len() < per_client) {
        rng.shuffle(&mut shapes);
        rng.shuffle(&mut strategies);
        for (&shape, &strategy) in shapes.iter().zip(&strategies) {
            let sets = SERVE_SETS[shape % 4];
            let (c, cap) = if shape < 4 { (200, 50) } else { (150, 75) };
            let spec = platform.grouping_query(
                over65(),
                c,
                sets,
                vec![
                    AggSpec::count_star(),
                    AggSpec::over(AggKind::Avg, "bmi"),
                    AggSpec::over(AggKind::Avg, "systolic_bp"),
                ],
            );
            let mut privacy = PrivacyConfig::none().with_max_tuples(cap);
            if (shape % 4 + shape / 4) % 2 == 1 {
                privacy = privacy.separate("bmi", "systolic_bp");
            }
            let list = &mut lists[next % clients];
            next += 1;
            if list.len() < per_client {
                list.push(Job {
                    spec,
                    privacy,
                    resilience: resilience(strategy),
                });
            }
        }
    }
    renumber(&mut lists.iter_mut().flatten().collect::<Vec<_>>(), seed);
    lists
}

// ---- daemon-durable ----

/// Header of the benchmark's world-spec bytes.
const WORLD_HEADER: &str = "querybench-world/1";

/// The daemon's canonical world: the 1500-contributor, 120-processor
/// reliable crowd, with one K-Means+Group-By query (cardinality 200,
/// cap 50, Overcollection).
pub fn daemon_world_spec(seed: u64) -> Vec<u8> {
    format!("{WORLD_HEADER} seed={}", crowd_seed(seed)).into_bytes()
}

/// Builds the platform and the canonical job from world-spec bytes;
/// every process of the deployment rebuilds the same world this way.
pub fn daemon_world(spec: &[u8]) -> edgelet_core::util::Result<(Platform, Job)> {
    let bad = || edgelet_core::util::Error::InvalidConfig("bad querybench world spec".into());
    let text = std::str::from_utf8(spec).map_err(|_| bad())?;
    let seed: u64 = text
        .strip_prefix(WORLD_HEADER)
        .and_then(|rest| rest.trim().strip_prefix("seed="))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let mut platform = Platform::build(PlatformConfig {
        seed,
        contributors: 1_500,
        processors: 120,
        network: NetworkProfile::Reliable,
        ..PlatformConfig::default()
    });
    let spec = platform.kmeans_query(
        over65(),
        200,
        3,
        &["age", "bmi", "systolic_bp"],
        3,
        vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "gir")],
    );
    let job = Job {
        spec,
        privacy: PrivacyConfig::none().with_max_tuples(50),
        resilience: resilience(Strategy::Overcollection),
    };
    Ok((platform, job))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_ids_are_fresh() {
        let specs = |seed| {
            let mut p = Platform::build(sim_crowd_config(Scale::Tiny, 1));
            sim_crowd_jobs(&mut p, seed, Scale::Tiny, 24)
                .into_iter()
                .map(|j| format!("{:?}{:?}", j.spec, j.privacy))
                .collect::<Vec<_>>()
        };
        assert_eq!(specs(3), specs(3));
        assert_ne!(specs(3), specs(4));

        let mut p = Platform::build(serve_mixed_config(Scale::Tiny));
        let lists = serve_mixed_jobs(&mut p, 5, 2, 20);
        let mut ids: Vec<u64> = lists.iter().flatten().map(|j| j.spec.id.raw()).collect();
        assert_eq!(ids.len(), 40);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 40, "every spec has its own query id");
        let backups = lists
            .iter()
            .flatten()
            .filter(|j| j.resilience.strategy == Strategy::Backup)
            .count();
        assert!((8..=12).contains(&backups), "about one in four: {backups}");
    }

    #[test]
    fn world_spec_round_trips() {
        let (a, ja) = daemon_world(&daemon_world_spec(9)).unwrap();
        let (b, jb) = daemon_world(&daemon_world_spec(9)).unwrap();
        assert_eq!(a.config().seed, b.config().seed);
        assert_eq!(format!("{:?}", ja.spec), format!("{:?}", jb.spec));
        assert!(daemon_world(b"nonsense").is_err());
    }
}
