//! Fingerprint-keyed LRU cache of source-side alignment artifacts.
//!
//! The expensive part of serving an align request is everything the
//! [`AlignmentSession`](htc_core::AlignmentSession) caches for its source
//! graph: orbit counting, Laplacian construction and encoder training.  The
//! server therefore keeps one session per *source identity* and serves repeat
//! sources straight from it — a cache hit skips to per-target fine-tuning.
//!
//! ## Key scheme
//!
//! The primary key component is the existing structural
//! [`graph_fingerprint`](htc_core::graph_fingerprint) `u64` of the source
//! graph.  That fingerprint intentionally covers topology only, so the cache
//! key extends it with:
//!
//! * an attribute fingerprint (FNV-1a over the IEEE-754 bits of the attribute
//!   matrix, shape included) — two sources with identical wiring but
//!   different features must not share a trained encoder, and
//! * the configuration preset name — artifacts built under `fast` are not
//!   interchangeable with `paper` ones (different orbit counts, dimensions
//!   and epochs).
//!
//! Eviction is least-recently-used by completed lookup.  An evicted entry
//! that is still mid-request stays alive through its `Arc` and is dropped
//! when the last in-flight request finishes.
//!
//! ## Durability
//!
//! The in-memory LRU evaporates on restart; [`DurableStore`] is its spill
//! layer.  With `--cache-dir` set, the server persists each cached source's
//! `TopologyViews` and `TrainedEncoder` (the two artifacts that dominate a
//! cold start) as fingerprint-named, version-guarded files via
//! `htc_core::persist`, and repopulates the LRU **lazily**: a cache miss
//! first probes the store, so a daemon restart is a warm start — the first
//! request for a previously-seen source skips counting and training, with
//! bit-identical results (the artifact round-trip is bit-exact).  Stale or
//! corrupt spill files are ignored (and removed) rather than trusted: the
//! session's fingerprint/shape validation decides, exactly as it does for
//! request-named artifact paths.

use crate::fault::{FaultPlan, WriteFault};
use htc_core::{HtcError, TopologyViews, TrainedEncoder};
use htc_metrics::Counter;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Identity of one cached source: structural fingerprint, attribute
/// fingerprint, and the configuration preset the artifacts were built under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub fingerprint: u64,
    pub attr_fingerprint: u64,
    pub preset: String,
}

/// Order-independent-shape-sensitive fingerprint of an attribute matrix:
/// FNV-1a over the dimensions and the raw IEEE-754 bit patterns in row-major
/// order (bit-exact, like every other determinism guarantee here).
pub fn attribute_fingerprint(attributes: &htc_linalg::DenseMatrix) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    };
    mix(attributes.rows() as u64);
    mix(attributes.cols() as u64);
    for &v in attributes.data() {
        mix(v.to_bits());
    }
    h
}

struct Slot<T> {
    key: CacheKey,
    value: Arc<T>,
    last_used: u64,
}

/// Counters surfaced by the server's `/stats` endpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A small LRU map from [`CacheKey`] to shared values.
///
/// Serving workloads hold a handful of catalog sources, so the store is a
/// plain vector: lookups are a linear scan, eviction removes the stalest
/// slot.  Capacity 0 disables caching (every lookup is a miss that is not
/// retained).
pub struct ArtifactCache<T> {
    capacity: usize,
    clock: u64,
    slots: Vec<Slot<T>>,
    stats: CacheStats,
}

impl<T> ArtifactCache<T> {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            clock: 0,
            slots: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Non-recording lookup: does not touch recency or hit/miss counters.
    /// Callers use it to decide whether to do expensive miss-preparation work
    /// (artifact file loads) outside the cache lock before the real
    /// [`get_or_insert`](Self::get_or_insert).
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<T>> {
        self.slots
            .iter()
            .find(|s| &s.key == key)
            .map(|s| Arc::clone(&s.value))
    }

    /// Looks up `key`, building and inserting the value on a miss.  Returns
    /// the shared value and whether it was a hit.  The builder may fail (e.g.
    /// the session rejects the graph), in which case nothing is inserted.
    pub fn get_or_insert<E>(
        &mut self,
        key: &CacheKey,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        self.clock += 1;
        if let Some(slot) = self.slots.iter_mut().find(|s| &s.key == key) {
            slot.last_used = self.clock;
            self.stats.hits += 1;
            return Ok((Arc::clone(&slot.value), true));
        }
        self.stats.misses += 1;
        let value = Arc::new(build()?);
        if self.capacity == 0 {
            return Ok((value, false));
        }
        while self.slots.len() >= self.capacity {
            let stalest = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("non-empty when over capacity");
            self.slots.swap_remove(stalest);
            self.stats.evictions += 1;
        }
        self.slots.push(Slot {
            key: key.clone(),
            value: Arc::clone(&value),
            last_used: self.clock,
        });
        Ok((value, false))
    }

    /// Iterates over the cached values (for `/stats` aggregation).
    pub fn values(&self) -> impl Iterator<Item = &Arc<T>> {
        self.slots.iter().map(|s| &s.value)
    }

    /// Removes the entry holding exactly this value (used after a handler
    /// panic left the entry's session in a state not worth keeping).
    pub fn remove_value(&mut self, value: &Arc<T>) {
        self.slots.retain(|s| !Arc::ptr_eq(&s.value, value));
    }
}

/// FNV-1a over a byte string (the configuration-tag component of spill file
/// names; the two `u64` fingerprints are embedded verbatim).  Also the
/// routing fingerprint for `stem`-referenced sources — anything that hashes
/// the same bytes to the same value serves, since routing only needs
/// consistency, not equality with the cache key.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// On-disk spill layer for cached source artifacts (see the module docs).
///
/// Files are named `<graph-fp>-<attr-fp>-<tag-hash>.views` / `.encoder`
/// (hex), so a store can hold many sources and configurations side by side.
/// Writes go through a temp file + atomic rename: a daemon killed mid-spill
/// leaves either the previous artifact or none, never a torn file, and the
/// version-guarded `HTCB` header rejects files from an incompatible build.
pub struct DurableStore {
    dir: PathBuf,
    /// Deterministic fault schedule for chaos testing (see [`FaultPlan`]);
    /// `None` in normal operation.
    fault: Option<Arc<FaultPlan>>,
    /// Artifacts written to disk.
    pub spills: Counter,
    /// Artifacts successfully reloaded into the LRU after a restart.
    pub reloads: Counter,
    /// Spill files that failed to decode (removed, then rebuilt cold).
    pub reload_errors: Counter,
}

impl DurableStore {
    /// Opens (creating if needed) the spill directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            fault: None,
            spills: Counter::new(),
            reloads: Counter::new(),
            reload_errors: Counter::new(),
        })
    }

    /// Attaches a fault-injection plan: spills and reloads consult the plan's
    /// store sites before touching disk.
    pub fn with_faults(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.fault = plan;
        self
    }

    fn file(&self, key: &CacheKey, extension: &str) -> PathBuf {
        self.dir.join(format!(
            "{:016x}-{:016x}-{:016x}.{extension}",
            key.fingerprint,
            key.attr_fingerprint,
            fnv1a(key.preset.as_bytes()),
        ))
    }

    /// Persists an artifact via `save` under a temp name, then renames it
    /// into place.  Failures are reported (not fatal — the daemon keeps
    /// serving from memory; the artifact just will not survive a restart).
    fn spill_with(
        &self,
        path: &Path,
        save: impl FnOnce(&Path) -> htc_core::Result<()>,
    ) -> htc_core::Result<()> {
        let write_fault = self
            .fault
            .as_ref()
            .map_or(WriteFault::None, |plan| plan.store_write_fault());
        if write_fault == WriteFault::Fail {
            return Err(HtcError::Io(format!(
                "injected fault: spill of {} failed",
                path.display()
            )));
        }
        // Append (don't replace) the extension: `<key>.views` and
        // `<key>.encoder` must not share one `<key>.tmp`, or two concurrent
        // spills for the same key would interleave and rename a torn file
        // into place.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        save(&tmp)?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            HtcError::Io(format!("renaming {} into place: {e}", tmp.display()))
        })?;
        if let WriteFault::Torn(at) = write_fault {
            // Truncate the *landed* file: the torn artifact the atomic
            // temp+rename protocol normally makes impossible, so the chaos
            // suite can prove the reload path discards it and self-heals.
            let file = std::fs::OpenOptions::new().write(true).open(path);
            if let Ok(file) = file {
                let _ = file.set_len(at as u64);
            }
        }
        self.spills.inc();
        Ok(())
    }

    /// Spills the source topology views for `key` unless already on disk.
    pub fn spill_views(&self, key: &CacheKey, views: &TopologyViews) -> htc_core::Result<()> {
        let path = self.file(key, "views");
        if path.exists() {
            return Ok(());
        }
        self.spill_with(&path, |tmp| views.save(tmp))
    }

    /// Spills the trained encoder for `key` unless already on disk.
    pub fn spill_encoder(&self, key: &CacheKey, encoder: &TrainedEncoder) -> htc_core::Result<()> {
        let path = self.file(key, "encoder");
        if path.exists() {
            return Ok(());
        }
        self.spill_with(&path, |tmp| encoder.save(tmp))
    }

    /// Loads the spilled views for `key`, if present and decodable.  A
    /// corrupt or stale file is deleted and counted, never trusted.
    pub fn load_views(&self, key: &CacheKey) -> Option<TopologyViews> {
        self.reload(&self.file(key, "views"), |p: &Path| TopologyViews::load(p))
    }

    /// Loads the spilled encoder for `key`, if present and decodable.
    pub fn load_encoder(&self, key: &CacheKey) -> Option<TrainedEncoder> {
        self.reload(&self.file(key, "encoder"), |p: &Path| {
            TrainedEncoder::load(p)
        })
    }

    fn reload<T>(&self, path: &Path, load: impl FnOnce(&Path) -> htc_core::Result<T>) -> Option<T> {
        if !path.exists() {
            return None;
        }
        if self.fault.as_ref().is_some_and(|p| p.store_read_fault()) {
            // A *transient* read failure: the file is fine, this read is not.
            // Keep the file so the next probe (or a restart) can succeed —
            // unlike the decode-failure branch below, which deletes.
            return None;
        }
        match load(path) {
            Ok(artifact) => {
                self.reloads.inc();
                Some(artifact)
            }
            Err(_) => {
                // Undecodable spill: drop it so the next restart does not
                // retry a file this build can never read.
                self.reload_errors.inc();
                let _ = std::fs::remove_file(path);
                None
            }
        }
    }

    /// Removes any spilled artifacts for `key` — called when a key's session
    /// was dropped after a panic, so a restart cannot resurrect suspect
    /// state.
    pub fn forget(&self, key: &CacheKey) {
        let _ = std::fs::remove_file(self.file(key, "views"));
        let _ = std::fs::remove_file(self.file(key, "encoder"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            attr_fingerprint: 7,
            preset: "fast".into(),
        }
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut cache: ArtifactCache<u64> = ArtifactCache::new(2);
        let ok = |v: u64| -> Result<u64, ()> { Ok(v) };
        let (a, hit) = cache.get_or_insert(&key(1), || ok(10)).unwrap();
        assert!(!hit);
        assert_eq!(*a, 10);
        let (_, hit) = cache.get_or_insert(&key(2), || ok(20)).unwrap();
        assert!(!hit);
        // Touch 1 so that 2 is the LRU victim.
        let (a, hit) = cache.get_or_insert(&key(1), || ok(99)).unwrap();
        assert!(hit, "same key is a hit");
        assert_eq!(*a, 10, "hit returns the cached value, not a rebuild");
        let (_, hit) = cache.get_or_insert(&key(3), || ok(30)).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
        // 2 was evicted; 1 survived.
        let (_, hit) = cache.get_or_insert(&key(1), || ok(0)).unwrap();
        assert!(hit);
        let (_, hit) = cache.get_or_insert(&key(2), || ok(21)).unwrap();
        assert!(!hit, "evicted key rebuilds");
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
        assert!(stats.evictions >= 1);
        assert!((stats.hit_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn differing_key_components_do_not_collide() {
        let mut cache: ArtifactCache<u64> = ArtifactCache::new(8);
        let ok = |v: u64| -> Result<u64, ()> { Ok(v) };
        let base = key(1);
        let mut other_attrs = base.clone();
        other_attrs.attr_fingerprint = 8;
        let mut other_preset = base.clone();
        other_preset.preset = "paper".into();
        cache.get_or_insert(&base, || ok(1)).unwrap();
        let (_, hit) = cache.get_or_insert(&other_attrs, || ok(2)).unwrap();
        assert!(!hit, "same topology, different attributes: distinct entry");
        let (_, hit) = cache.get_or_insert(&other_preset, || ok(3)).unwrap();
        assert!(!hit, "same graph, different preset: distinct entry");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn build_failure_inserts_nothing() {
        let mut cache: ArtifactCache<u64> = ArtifactCache::new(2);
        let err = cache.get_or_insert(&key(1), || Err::<u64, _>("boom"));
        assert!(err.is_err());
        assert!(cache.is_empty());
        // The failed attempt still counted as a miss.
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let mut cache: ArtifactCache<u64> = ArtifactCache::new(0);
        let ok = |v: u64| -> Result<u64, ()> { Ok(v) };
        let (_, hit) = cache.get_or_insert(&key(1), || ok(1)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_insert(&key(1), || ok(1)).unwrap();
        assert!(!hit, "nothing is retained at capacity 0");
        assert!(cache.is_empty());
    }

    #[test]
    fn attribute_fingerprint_is_shape_and_bit_sensitive() {
        let a = htc_linalg::DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = htc_linalg::DenseMatrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let c = htc_linalg::DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, -4.0]).unwrap();
        assert_ne!(attribute_fingerprint(&a), attribute_fingerprint(&b));
        assert_ne!(attribute_fingerprint(&a), attribute_fingerprint(&c));
        assert_eq!(attribute_fingerprint(&a), attribute_fingerprint(&a.clone()));
    }
}
