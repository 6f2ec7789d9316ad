//! Content-addressed, two-tier HLS result cache.
//!
//! The paper's flow-time win (Fig. 9) comes from reusing HLS results
//! across the four Otsu architectures. Keying that reuse by kernel
//! *name* is unsound — two designs may share a name but differ in body,
//! interface directives, or clock target — and an in-memory map forgets
//! everything between processes. This module fixes both:
//!
//! * [`CacheKey`] is a stable 128-bit digest over the canonicalized
//!   kernel IR (its JSON rendering, which sorts all map keys), the
//!   rendered interface-directives tcl, and the serialized
//!   [`HlsOptions`] (tech library incl. clock target + resource
//!   constraints). Equal keys ⇒ byte-identical synthesis inputs.
//! * [`HlsCache`] is a two-tier store: a mutexed in-memory map, plus an
//!   optional on-disk directory of JSON entries (one file per key,
//!   named `<hex>.json`) with a version header. Disk reads that fail —
//!   truncated, corrupt, version-mismatched, wrong key — are treated as
//!   misses and reported as [`FlowEvent::HlsCacheCorrupt`]; writes go
//!   through a unique temp file followed by an atomic rename, so
//!   concurrent writers never tear an entry.

use crate::directives::DirectivesFile;
use crate::project::{synthesize_kernel_observed, HlsError, HlsOptions, HlsResult};
use accelsoc_kernel::ir::Kernel;
use accelsoc_observe::{FlowEvent, FlowObserver};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version header of the on-disk entry format. Bump when the entry
/// schema or the [`HlsResult`] encoding changes shape; readers treat
/// any other version as stale (a miss), never an error.
pub const CACHE_FORMAT_VERSION: u64 = 1;

/// Domain separator mixed into every digest, versioned independently of
/// the file format: bump when the *key inputs* change meaning, so old
/// entries are orphaned rather than wrongly reused.
const KEY_DOMAIN: &str = "accelsoc-hls-cache-key-v1";

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Content digest identifying one (kernel, HLS configuration) pair.
///
/// 128 bits as two independently-seeded FNV-1a halves over the same
/// canonical byte string; the hex rendering doubles as the on-disk
/// entry file name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// Digest the canonicalized synthesis inputs.
    ///
    /// The byte string is a sequence of length-prefixed sections
    /// (domain tag, kernel IR JSON, directives tcl, options JSON) so
    /// that no concatenation of different sections can collide with
    /// another by boundary ambiguity. The JSON renderings are
    /// deterministic: the vendored serde sorts all map keys.
    pub fn compute(kernel: &Kernel, options: &HlsOptions) -> CacheKey {
        let kernel_json = serde_json::to_string(kernel).expect("kernel serializes");
        let directives = DirectivesFile::for_kernel(kernel).render();
        let options_json = serde_json::to_string(options).expect("options serialize");
        let mut input = String::new();
        for section in [KEY_DOMAIN, &kernel_json, &directives, &options_json] {
            input.push_str(&section.len().to_string());
            input.push(':');
            input.push_str(section);
            input.push('\n');
        }
        CacheKey {
            hi: fnv1a64(input.as_bytes(), FNV_OFFSET_A),
            lo: fnv1a64(input.as_bytes(), FNV_OFFSET_B),
        }
    }

    /// 32 lowercase hex digits; stable across platforms and runs.
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parse the [`CacheKey::to_hex`] rendering back.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey { hi, lo })
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CacheKey({})", self.to_hex())
    }
}

/// Which tier satisfied a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    Memory,
    Disk,
}

/// One persisted entry, as stored in `<hex>.json`.
#[derive(serde::Serialize, serde::Deserialize)]
struct DiskEntry {
    version: u64,
    key: String,
    kernel: String,
    result: HlsResult,
}

/// Two-tier content-addressed store of HLS results.
///
/// Shareable across threads (all interior mutability); typically held
/// in an `Arc` and cloned into flow engines and DSE workers.
#[derive(Debug, Default)]
pub struct HlsCache {
    mem: Mutex<HashMap<CacheKey, HlsResult>>,
    dir: Option<PathBuf>,
    tmp_counter: AtomicU64,
}

impl HlsCache {
    /// Purely in-memory cache (no persistence).
    pub fn in_memory() -> HlsCache {
        HlsCache::default()
    }

    /// Cache backed by `dir` (created if absent; creation failure
    /// degrades to in-memory operation — every disk access later
    /// reports its own failure as a corrupt-entry event).
    pub fn persistent(dir: impl Into<PathBuf>) -> HlsCache {
        let dir = dir.into();
        let _ = fs::create_dir_all(&dir);
        HlsCache {
            mem: Mutex::new(HashMap::new()),
            dir: Some(dir),
            tmp_counter: AtomicU64::new(0),
        }
    }

    /// The persistent tier's directory, if one is configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Number of results in the in-memory tier.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, HlsResult>> {
        self.mem.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn entry_path(&self, key: CacheKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", key.to_hex())))
    }

    /// Look `key` up in both tiers. A disk hit is promoted into memory
    /// and reported as [`FlowEvent::HlsCachePersistedHit`]; an unusable
    /// disk entry is reported as [`FlowEvent::HlsCacheCorrupt`] and
    /// treated as a miss.
    pub fn lookup(
        &self,
        key: CacheKey,
        kernel_name: &str,
        observer: &dyn FlowObserver,
    ) -> Option<(HlsResult, CacheTier)> {
        if let Some(r) = self.lock().get(&key) {
            return Some((r.clone(), CacheTier::Memory));
        }
        let path = self.entry_path(key)?;
        if !path.exists() {
            return None;
        }
        match read_entry(&path, key) {
            Ok(result) => {
                observer.on_event(&FlowEvent::HlsCachePersistedHit {
                    kernel: kernel_name.to_string(),
                    key: key.to_hex(),
                });
                self.lock().insert(key, result.clone());
                Some((result, CacheTier::Disk))
            }
            Err(reason) => {
                observer.on_event(&FlowEvent::HlsCacheCorrupt {
                    path: path.display().to_string(),
                    reason,
                });
                None
            }
        }
    }

    /// Store a result in both tiers. The disk write goes to a unique
    /// temp file first and is renamed into place, so readers and
    /// concurrent writers only ever see complete entries. A successful
    /// write is reported as [`FlowEvent::HlsCacheStored`]; a failed one
    /// as [`FlowEvent::HlsCacheCorrupt`] (the in-memory tier still
    /// holds the result either way).
    pub fn insert(
        &self,
        key: CacheKey,
        kernel_name: &str,
        result: HlsResult,
        observer: &dyn FlowObserver,
    ) {
        self.lock().insert(key, result.clone());
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let entry = DiskEntry {
            version: CACHE_FORMAT_VERSION,
            key: key.to_hex(),
            kernel: kernel_name.to_string(),
            result,
        };
        let text = serde_json::to_string(&entry).expect("entry serializes");
        match write_atomic(&path, text.as_bytes(), &self.tmp_counter) {
            Ok(()) => observer.on_event(&FlowEvent::HlsCacheStored {
                kernel: kernel_name.to_string(),
                key: key.to_hex(),
            }),
            Err(e) => observer.on_event(&FlowEvent::HlsCacheCorrupt {
                path: path.display().to_string(),
                reason: format!("write failed: {e}"),
            }),
        }
    }

    /// The cache-through entry point: look the kernel up under its
    /// content key, synthesizing (and storing) on a miss. Emits the
    /// ordinary [`FlowEvent::HlsCacheQuery`] with the outcome; returns
    /// the result and whether it was a hit.
    pub fn get_or_synthesize(
        &self,
        kernel: &Kernel,
        options: &HlsOptions,
        observer: &dyn FlowObserver,
    ) -> Result<(HlsResult, bool), HlsError> {
        let key = CacheKey::compute(kernel, options);
        let found = self.lookup(key, &kernel.name, observer);
        observer.on_event(&FlowEvent::HlsCacheQuery {
            kernel: kernel.name.clone(),
            hit: found.is_some(),
        });
        if let Some((result, _)) = found {
            return Ok((result, true));
        }
        let result = synthesize_kernel_observed(kernel, options, observer)?;
        self.insert(key, &kernel.name, result.clone(), observer);
        Ok((result, false))
    }
}

/// Read and validate one entry file. Any failure returns the reason it
/// is unusable (the caller reports it and treats the entry as a miss).
fn read_entry(path: &Path, key: CacheKey) -> Result<HlsResult, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let entry: DiskEntry =
        serde_json::from_value(&value).map_err(|e| format!("invalid entry: {e}"))?;
    if entry.version != CACHE_FORMAT_VERSION {
        return Err(format!(
            "version mismatch: entry v{}, expected v{CACHE_FORMAT_VERSION}",
            entry.version
        ));
    }
    if entry.key != key.to_hex() {
        return Err(format!(
            "key mismatch: entry {}, expected {}",
            entry.key,
            key.to_hex()
        ));
    }
    Ok(entry.result)
}

/// Write `bytes` to `path` atomically: a unique sibling temp file
/// (process id + per-cache counter, so concurrent writers in one or
/// many processes never share a temp name) renamed over the target.
fn write_atomic(path: &Path, bytes: &[u8], counter: &AtomicU64) -> std::io::Result<()> {
    let n = counter.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), n));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;
    use accelsoc_observe::{CollectObserver, NullObserver};

    fn adder(name: &str, pipelined: bool) -> Kernel {
        let body = vec![
            assign("acc", add(var("a"), var("b"))),
            if pipelined {
                for_pipelined("i", c(0), c(8), vec![assign("acc", add(var("acc"), c(1)))])
            } else {
                for_("i", c(0), c(8), vec![assign("acc", add(var("acc"), c(1)))])
            },
            assign("ret", var("acc")),
        ];
        KernelBuilder::new(name)
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("ret", Ty::U32)
            .local("acc", Ty::U32)
            .body(body)
            .build()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("accelsoc-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn key_is_stable_for_identical_inputs() {
        let k = adder("add", true);
        let opts = HlsOptions::default();
        assert_eq!(CacheKey::compute(&k, &opts), CacheKey::compute(&k, &opts));
    }

    #[test]
    fn key_ignores_nothing_it_should_track() {
        let opts = HlsOptions::default();
        let base = CacheKey::compute(&adder("add", true), &opts);
        // Different body/directives under the SAME name: distinct keys
        // (the collision the old name-keyed cache could not see).
        assert_ne!(base, CacheKey::compute(&adder("add", false), &opts));
        // Different name, same body: also distinct (the name is part of
        // the IR and the generated module namespace).
        assert_ne!(base, CacheKey::compute(&adder("add2", true), &opts));
        // Different clock target: distinct.
        let mut fast = HlsOptions::default();
        fast.lib.clock_ns /= 2.0;
        assert_ne!(base, CacheKey::compute(&adder("add", true), &fast));
    }

    #[test]
    fn hex_roundtrips() {
        let k = CacheKey::compute(&adder("add", true), &HlsOptions::default());
        let hex = k.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(CacheKey::from_hex(&hex), Some(k));
        assert_eq!(CacheKey::from_hex("zz"), None);
    }

    #[test]
    fn memory_tier_round_trip() {
        let cache = HlsCache::in_memory();
        let k = adder("add", true);
        let opts = HlsOptions::default();
        let (r1, hit1) = cache.get_or_synthesize(&k, &opts, &NullObserver).unwrap();
        let (r2, hit2) = cache.get_or_synthesize(&k, &opts, &NullObserver).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(r1.verilog, r2.verilog);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn persistent_tier_survives_process_cache_recreation() {
        let dir = tmp_dir("warm");
        let k = adder("add", true);
        let opts = HlsOptions::default();

        let cold = HlsCache::persistent(&dir);
        let (r1, hit1) = cold.get_or_synthesize(&k, &opts, &NullObserver).unwrap();
        assert!(!hit1);

        // A fresh cache over the same dir models a new process.
        let warm = HlsCache::persistent(&dir);
        let obs = CollectObserver::new();
        let (r2, hit2) = warm.get_or_synthesize(&k, &opts, &obs).unwrap();
        assert!(hit2, "disk entry should satisfy the warm lookup");
        assert_eq!(r1.verilog, r2.verilog);
        assert_eq!(r1.directives_tcl, r2.directives_tcl);
        assert_eq!(r1.report, r2.report);
        let events = obs.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, FlowEvent::HlsCachePersistedHit { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_a_miss_with_corrupt_event() {
        let dir = tmp_dir("trunc");
        let k = adder("add", true);
        let opts = HlsOptions::default();
        let cache = HlsCache::persistent(&dir);
        cache.get_or_synthesize(&k, &opts, &NullObserver).unwrap();

        // Truncate the entry file to half its size.
        let key = CacheKey::compute(&k, &opts);
        let path = dir.join(format!("{}.json", key.to_hex()));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();

        let warm = HlsCache::persistent(&dir);
        let obs = CollectObserver::new();
        let (_, hit) = warm.get_or_synthesize(&k, &opts, &obs).unwrap();
        assert!(!hit, "truncated entry must be a miss");
        assert!(obs
            .events()
            .iter()
            .any(|e| matches!(e, FlowEvent::HlsCacheCorrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_and_version_mismatch_are_misses() {
        let dir = tmp_dir("stale");
        let k = adder("add", true);
        let opts = HlsOptions::default();
        let key = CacheKey::compute(&k, &opts);
        let path = dir.join(format!("{}.json", key.to_hex()));

        for bad in [
            "not json at all".to_string(),
            "[1, 2, 3]".to_string(),
            format!(
                "{{\"version\": 999, \"key\": \"{}\", \"kernel\": \"add\", \"result\": {{}}}}",
                key.to_hex()
            ),
        ] {
            fs::write(&path, bad).unwrap();
            let cache = HlsCache::persistent(&dir);
            let obs = CollectObserver::new();
            assert!(
                cache.lookup(key, "add", &obs).is_none(),
                "bad entry must miss"
            );
            assert!(obs
                .events()
                .iter()
                .any(|e| matches!(e, FlowEvent::HlsCacheCorrupt { .. })));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_inside_entry_is_a_miss() {
        let dir = tmp_dir("wrongkey");
        let k = adder("add", true);
        let opts = HlsOptions::default();
        let cache = HlsCache::persistent(&dir);
        cache.get_or_synthesize(&k, &opts, &NullObserver).unwrap();

        // Copy the valid entry to a *different* key's file name, as if
        // the file had been renamed or the digest inputs had changed.
        let key = CacheKey::compute(&k, &opts);
        let other = CacheKey::compute(&adder("add", false), &opts);
        fs::copy(
            dir.join(format!("{}.json", key.to_hex())),
            dir.join(format!("{}.json", other.to_hex())),
        )
        .unwrap();

        let warm = HlsCache::persistent(&dir);
        let obs = CollectObserver::new();
        assert!(warm.lookup(other, "add", &obs).is_none());
        assert!(obs
            .events()
            .iter()
            .any(|e| matches!(e, FlowEvent::HlsCacheCorrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_tear_an_entry() {
        let dir = tmp_dir("race");
        let k = adder("add", true);
        let opts = HlsOptions::default();
        let key = CacheKey::compute(&k, &opts);
        let result = synthesize_kernel_observed(&k, &opts, &NullObserver).unwrap();

        crossbeam::thread::scope(|s| {
            for _ in 0..8 {
                let cache = HlsCache::persistent(&dir);
                let result = result.clone();
                s.spawn(move |_| {
                    for _ in 0..16 {
                        cache.insert(key, "add", result.clone(), &NullObserver);
                    }
                });
            }
        })
        .unwrap();

        // Whatever interleaving happened, the file on disk is one
        // complete, valid entry.
        let path = dir.join(format!("{}.json", key.to_hex()));
        let reread = read_entry(&path, key).expect("entry must be complete and valid");
        assert_eq!(reread.verilog, result.verilog);
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| !n.ends_with(".json"))
            .collect();
        assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_roundtrips_through_disk_encoding_exactly() {
        let k = adder("add", true);
        let opts = HlsOptions::default();
        let result = synthesize_kernel_observed(&k, &opts, &NullObserver).unwrap();
        let entry = DiskEntry {
            version: CACHE_FORMAT_VERSION,
            key: "00".repeat(16),
            kernel: "add".into(),
            result: result.clone(),
        };
        let text = serde_json::to_string(&entry).unwrap();
        let value = serde_json::from_str(&text).unwrap();
        let back: DiskEntry = serde_json::from_value(&value).unwrap();
        assert_eq!(back.result.report, result.report);
        assert_eq!(back.result.rtl, result.rtl);
        assert_eq!(back.result.verilog, result.verilog);
        assert_eq!(back.result.directives_tcl, result.directives_tcl);
        // Re-encoding is byte-identical (canonical JSON both ways).
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}
