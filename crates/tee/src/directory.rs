//! The device directory a query deployer consults.
//!
//! Holds, for every enrolled edgelet, its class, its long-term identity key
//! (hash of which drives the paper's "secure assignment by hashing public
//! keys") and whether it volunteers as Data Processor, Data Contributor, or
//! both.

use crate::device::{DeviceClass, DeviceProfile};
use edgelet_crypto::sha256::sha256;
use edgelet_util::ids::DeviceId;
use edgelet_util::rng::DetRng;
use edgelet_util::{Error, Result};
use std::fmt;
use std::sync::OnceLock;

/// A directory record for one enrolled device.
#[derive(Debug, Clone)]
pub struct DirectoryEntry {
    /// The device.
    pub device: DeviceId,
    /// Hardware class.
    pub class: DeviceClass,
    /// Long-term identity public key (32 bytes).
    pub identity_key: [u8; 32],
    /// Volunteers its data.
    pub contributes_data: bool,
    /// Volunteers compute (can host Data Processor operators).
    pub processes_queries: bool,
}

impl DirectoryEntry {
    /// Stable 64-bit hash of the identity key, used for assignments.
    pub fn key_hash(&self) -> u64 {
        let digest = sha256(&self.identity_key);
        u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"))
    }

    /// The device's performance profile.
    pub fn profile(&self) -> DeviceProfile {
        self.class.profile()
    }
}

/// Registry of enrolled devices.
///
/// The contributors' identity-key hashes are cached lazily per crowd:
/// the first [`Directory::assign_contributors`] computes them, later
/// calls reuse them, and [`Directory::enroll`] drops the cache.
#[derive(Clone, Default)]
pub struct Directory {
    entries: Vec<DirectoryEntry>,
    /// `(device, key_hash)` for every contributor, in enrollment order.
    contributor_hashes: OnceLock<Vec<(DeviceId, u64)>>,
}

impl fmt::Debug for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Directory")
            .field("entries", &self.entries)
            .finish()
    }
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enrolls a device, deriving its identity key deterministically.
    pub fn enroll(
        &mut self,
        device: DeviceId,
        class: DeviceClass,
        contributes_data: bool,
        processes_queries: bool,
        rng: &mut DetRng,
    ) -> &DirectoryEntry {
        let mut identity_key = [0u8; 32];
        for chunk in identity_key.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        self.contributor_hashes = OnceLock::new();
        self.entries.push(DirectoryEntry {
            device,
            class,
            identity_key,
            contributes_data,
            processes_queries,
        });
        self.entries.last().expect("just pushed")
    }

    /// All entries.
    pub fn entries(&self) -> &[DirectoryEntry] {
        &self.entries
    }

    /// Number of enrolled devices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is enrolled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up one device.
    pub fn get(&self, device: DeviceId) -> Option<&DirectoryEntry> {
        self.entries.iter().find(|e| e.device == device)
    }

    /// Devices volunteering as Data Contributors.
    pub fn contributors(&self) -> Vec<DeviceId> {
        self.entries
            .iter()
            .filter(|e| e.contributes_data)
            .map(|e| e.device)
            .collect()
    }

    /// Devices volunteering as Data Processors.
    pub fn processors(&self) -> Vec<DeviceId> {
        self.entries
            .iter()
            .filter(|e| e.processes_queries)
            .map(|e| e.device)
            .collect()
    }

    /// Selects `count` distinct processors for operator hosting.
    ///
    /// Selection is randomized over eligible devices (a targeted attacker
    /// must not predict placements — the paper's "secure assignment"), yet
    /// deterministic given the query's RNG stream.
    pub fn select_processors(&self, count: usize, rng: &mut DetRng) -> Result<Vec<DeviceId>> {
        let eligible = self.processors();
        if eligible.len() < count {
            return Err(Error::Unsatisfiable(format!(
                "need {count} processors, directory has {}",
                eligible.len()
            )));
        }
        let idx = rng.sample_indices(eligible.len(), count);
        Ok(idx.into_iter().map(|i| eligible[i]).collect())
    }

    /// Buckets contributors among `buckets` Snapshot Builders by hashing
    /// their identity keys (the paper's Figure 2 assignment). The hashes
    /// are computed on the first call and reused until the next enroll.
    pub fn assign_contributors(&self, buckets: usize) -> Vec<Vec<DeviceId>> {
        assert!(buckets > 0, "at least one bucket required");
        let hashes = self.contributor_hashes.get_or_init(|| {
            self.entries
                .iter()
                .filter(|e| e.contributes_data)
                .map(|e| (e.device, e.key_hash()))
                .collect()
        });
        let mut out = vec![Vec::new(); buckets];
        for &(device, hash) in hashes {
            out[(hash % buckets as u64) as usize].push(device);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize) -> Directory {
        let mut dir = Directory::new();
        let mut rng = DetRng::new(1);
        for i in 0..n {
            let class = DeviceClass::ALL[i % 3];
            dir.enroll(DeviceId::new(i as u64), class, true, i % 2 == 0, &mut rng);
        }
        dir
    }

    #[test]
    fn enroll_and_lookup() {
        let dir = build(10);
        assert_eq!(dir.len(), 10);
        assert!(!dir.is_empty());
        let e = dir.get(DeviceId::new(3)).unwrap();
        assert_eq!(e.class, DeviceClass::SgxPc);
        assert!(dir.get(DeviceId::new(99)).is_none());
        assert_eq!(dir.contributors().len(), 10);
        assert_eq!(dir.processors().len(), 5);
    }

    #[test]
    fn identity_keys_are_distinct() {
        let dir = build(50);
        let mut keys: Vec<_> = dir.entries().iter().map(|e| e.identity_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 50);
    }

    #[test]
    fn select_processors_distinct_and_eligible() {
        let dir = build(40);
        let mut rng = DetRng::new(9);
        let picked = dir.select_processors(10, &mut rng).unwrap();
        assert_eq!(picked.len(), 10);
        let mut sorted = picked.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        for d in &picked {
            assert!(dir.get(*d).unwrap().processes_queries);
        }
        // Too many requested fails.
        assert!(dir.select_processors(30, &mut rng).is_err());
    }

    #[test]
    fn selection_is_seed_deterministic() {
        let dir = build(40);
        let a = dir.select_processors(8, &mut DetRng::new(5)).unwrap();
        let b = dir.select_processors(8, &mut DetRng::new(5)).unwrap();
        let c = dir.select_processors(8, &mut DetRng::new(6)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hash_assignment_is_total_and_roughly_uniform() {
        let dir = build(3000);
        let buckets = dir.assign_contributors(10);
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 3000);
        for (i, b) in buckets.iter().enumerate() {
            assert!(
                (b.len() as f64 - 300.0).abs() < 75.0,
                "bucket {i} has {} devices",
                b.len()
            );
        }
        // Deterministic: same directory, same assignment.
        let again = dir.assign_contributors(10);
        assert_eq!(buckets, again);
    }

    /// The uncached reference: bucket every contributor by its own
    /// `key_hash`.
    fn bucket_directly(dir: &Directory, buckets: usize) -> Vec<Vec<DeviceId>> {
        let mut out = vec![Vec::new(); buckets];
        for e in dir.entries().iter().filter(|e| e.contributes_data) {
            out[(e.key_hash() % buckets as u64) as usize].push(e.device);
        }
        out
    }

    #[test]
    fn cached_assignment_equals_direct_bucketing() {
        let mut dir = Directory::new();
        let mut rng = DetRng::new(4);
        for i in 0..1_000u64 {
            let class = DeviceClass::ALL[(i % 3) as usize];
            dir.enroll(DeviceId::new(i), class, i % 5 != 0, i % 4 == 0, &mut rng);
        }
        for buckets in [1, 7, 64] {
            assert_eq!(
                dir.assign_contributors(buckets),
                bucket_directly(&dir, buckets)
            );
        }
    }

    #[test]
    fn enroll_after_assignment_is_seen() {
        let mut dir = build(20);
        let before = dir.assign_contributors(4);
        assert_eq!(before.iter().map(Vec::len).sum::<usize>(), 20);
        let mut rng = DetRng::new(77);
        dir.enroll(DeviceId::new(20), DeviceClass::SgxPc, true, false, &mut rng);
        let after = dir.assign_contributors(4);
        assert_eq!(after.iter().map(Vec::len).sum::<usize>(), 21);
        assert!(after.iter().flatten().any(|&d| d == DeviceId::new(20)));
        assert_eq!(after, bucket_directly(&dir, 4));
        // A clone carries the warm cache and stays correct.
        assert_eq!(dir.clone().assign_contributors(4), after);
    }

    #[test]
    fn debug_output_omits_the_cache() {
        let dir = build(2);
        let cold = format!("{dir:?}");
        dir.assign_contributors(2);
        assert_eq!(format!("{dir:?}"), cold);
        assert!(cold.starts_with("Directory { entries: ["));
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        build(3).assign_contributors(0);
    }
}
