//! Content-addressed result cache for detection runs.
//!
//! `gpu-fpx serve` dedupes identical ⟨program, config⟩ jobs: a job's cache
//! key is the program's full kernel-metadata table (every
//! [`KernelMeta`]: name, register count, instruction count, FNV-1a
//! disassembly checksum) plus a canonical fingerprint string of the tool
//! configuration. The stored payload is the rendered exception report —
//! byte-identical to what a one-shot CLI run prints, so serving a hit is
//! indistinguishable from re-running the job.
//!
//! ## Identity model
//!
//! The *address* (the 64-bit [`CacheKey::content_hash`]) is deliberately
//! derived from the kernel checksums and the config string alone — it is
//! only a bucket index. Every lookup then verifies the stored key against
//! the probe with **full metadata equality**. Two outcomes of a hash
//! bucket collision are distinguished:
//!
//! * the stored and probed kernels differ *and* their checksums differ —
//!   an ordinary collision of the 64-bit address; treated as a miss;
//! * the stored and probed kernels have **equal checksums but unequal
//!   metadata** — the FNV-1a identity itself collided, and serving the
//!   stored report would be silently wrong; surfaced as the typed
//!   [`CacheError::IdentityMismatch`], never as a hit or a silent miss.
//!
//! ## Persistence
//!
//! [`ResultCache::persistent`] write-throughs every entry to
//! `<dir>/<hash>.fpxr` via `fpx_obs::artifact::write_atomic`, so a served
//! process restart warms from disk and a mid-write crash never leaves a
//! truncated entry at its final path. Unreadable or corrupt entry files
//! are treated as misses, not errors — the cache is always allowed to
//! fall back to recomputing.

use crate::format::{KernelMeta, Reader, TraceError, Writer, KERNEL_MIN_BYTES};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Entry-file magic, versioned independently of the trace format.
const ENTRY_MAGIC: [u8; 4] = *b"FPXR";
const ENTRY_VERSION: u16 = 1;

/// Why a cache operation failed. Misses are not errors — they come back
/// as `Ok(None)` from [`ResultCache::lookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// A stored kernel and the probed kernel share a checksum but differ
    /// in name, register count, or instruction count: the 64-bit content
    /// identity collided and the cached result must not be trusted.
    IdentityMismatch {
        kernel: String,
        reason: String,
    },
    Io(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::IdentityMismatch { kernel, reason } => write!(
                f,
                "cache identity collision on kernel `{kernel}`: {reason} \
                 (equal checksum, unequal metadata)"
            ),
            CacheError::Io(e) => write!(f, "cache I/O: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// The full identity of one cacheable job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Kernel table of the program, in preparation order — the
    /// content-addressed half of the key.
    pub kernels: Vec<KernelMeta>,
    /// Canonical tool-config fingerprint. Must encode everything that can
    /// change the report (tool, arch, fast-math, sampling, GT, output
    /// format) and nothing that cannot (worker/thread counts — served
    /// results are deterministic across schedules by contract).
    pub config: String,
}

impl CacheKey {
    /// The 64-bit cache address: FNV-1a over the config string and the
    /// kernel *checksums*. Full metadata is intentionally left out of the
    /// address and enforced at lookup instead — see the module docs.
    pub fn content_hash(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(self.config.as_bytes());
        for k in &self.kernels {
            eat(&k.checksum.to_le_bytes());
        }
        h
    }
}

/// Verify a stored key against a probe sharing its content hash.
/// `Ok(true)` = genuine hit, `Ok(false)` = address collision (miss),
/// `Err` = checksum collision with diverging metadata.
fn verify(stored: &CacheKey, probe: &CacheKey) -> Result<bool, CacheError> {
    if stored.config != probe.config || stored.kernels.len() != probe.kernels.len() {
        return Ok(false);
    }
    for (s, p) in stored.kernels.iter().zip(&probe.kernels) {
        if s == p {
            continue;
        }
        if s.checksum == p.checksum {
            let reason = if s.name != p.name {
                format!("stored name `{}`, probed `{}`", s.name, p.name)
            } else if s.num_regs != p.num_regs {
                format!(
                    "stored register count {}, probed {}",
                    s.num_regs, p.num_regs
                )
            } else {
                format!(
                    "stored instruction count {}, probed {}",
                    s.num_instrs, p.num_instrs
                )
            };
            return Err(CacheError::IdentityMismatch {
                kernel: p.name.clone(),
                reason,
            });
        }
        return Ok(false);
    }
    Ok(true)
}

#[derive(Clone)]
struct Entry {
    key: CacheKey,
    payload: Vec<u8>,
}

/// A concurrent content-addressed result cache, optionally backed by a
/// directory of atomically-written entry files.
pub struct ResultCache {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<u64, Entry>>,
}

impl ResultCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> ResultCache {
        ResultCache {
            dir: None,
            mem: Mutex::new(HashMap::new()),
        }
    }

    /// A cache write-through-backed by `dir` (created if missing). Entries
    /// written by previous processes are picked up lazily on lookup.
    pub fn persistent(dir: impl AsRef<Path>) -> std::io::Result<ResultCache> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir: Some(dir),
            mem: Mutex::new(HashMap::new()),
        })
    }

    /// Entries currently resident in memory (disk-only entries not yet
    /// touched by a lookup are not counted).
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all in-memory entries (disk entries, if any, survive).
    pub fn clear(&self) {
        self.mem.lock().expect("cache lock").clear();
    }

    /// Look up the stored payload for `key`. `Ok(None)` is a miss; the
    /// typed error fires only on a checksum collision (see module docs).
    pub fn lookup(&self, key: &CacheKey) -> Result<Option<Vec<u8>>, CacheError> {
        let h = key.content_hash();
        if let Some(e) = self.mem.lock().expect("cache lock").get(&h) {
            return Ok(if verify(&e.key, key)? {
                Some(e.payload.clone())
            } else {
                None
            });
        }
        let Some(dir) = &self.dir else {
            return Ok(None);
        };
        let Ok(bytes) = std::fs::read(entry_path(dir, h)) else {
            return Ok(None);
        };
        // Corrupt entry files degrade to a miss: the job just recomputes.
        let Ok(e) = decode_entry(&bytes) else {
            return Ok(None);
        };
        let hit = verify(&e.key, key)?;
        let payload = hit.then(|| e.payload.clone());
        self.mem.lock().expect("cache lock").insert(h, e);
        Ok(payload)
    }

    /// Store `payload` under `key`, replacing any colliding entry. With a
    /// backing directory the entry file is written atomically first, so a
    /// crash between the two steps loses at most the in-memory copy.
    pub fn insert(&self, key: CacheKey, payload: Vec<u8>) -> Result<(), CacheError> {
        let h = key.content_hash();
        let entry = Entry { key, payload };
        if let Some(dir) = &self.dir {
            fpx_obs::artifact::write_atomic(entry_path(dir, h), encode_entry(&entry))
                .map_err(|e| CacheError::Io(e.to_string()))?;
        }
        self.mem.lock().expect("cache lock").insert(h, entry);
        Ok(())
    }
}

fn entry_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("{hash:016x}.fpxr"))
}

fn encode_entry(e: &Entry) -> Vec<u8> {
    let mut w = Writer::default();
    w.out.extend_from_slice(&ENTRY_MAGIC);
    w.out.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
    w.str(&e.key.config);
    w.varint(e.key.kernels.len() as u64);
    for k in &e.key.kernels {
        w.str(&k.name);
        w.varint(k.num_regs as u64);
        w.varint(k.num_instrs as u64);
        w.varint(k.checksum);
    }
    w.varint(e.payload.len() as u64);
    w.out.extend_from_slice(&e.payload);
    w.out
}

fn decode_entry(bytes: &[u8]) -> Result<Entry, TraceError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != ENTRY_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
    if version != ENTRY_VERSION {
        return Err(TraceError::Version {
            found: version,
            supported: ENTRY_VERSION,
        });
    }
    let config = r.str()?;
    let nkernels = r.count("kernel", KERNEL_MIN_BYTES)?;
    let mut kernels = Vec::with_capacity(nkernels);
    for _ in 0..nkernels {
        kernels.push(KernelMeta {
            name: r.str()?,
            num_regs: r.varint()? as u16,
            num_instrs: r.varint()? as u32,
            checksum: r.varint()?,
        });
    }
    let len = r.varint()? as usize;
    let payload = r.take(len)?.to_vec();
    Ok(Entry {
        key: CacheKey { kernels, config },
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str, regs: u16, instrs: u32, checksum: u64) -> KernelMeta {
        KernelMeta {
            name: name.into(),
            num_regs: regs,
            num_instrs: instrs,
            checksum,
        }
    }

    fn key(config: &str, kernels: Vec<KernelMeta>) -> CacheKey {
        CacheKey {
            kernels,
            config: config.into(),
        }
    }

    #[test]
    fn in_memory_round_trip_and_miss() {
        let c = ResultCache::in_memory();
        let k = key("tool=detector;k=0", vec![meta("a", 8, 5, 0x11)]);
        assert_eq!(c.lookup(&k).unwrap(), None);
        c.insert(k.clone(), b"report".to_vec()).unwrap();
        assert_eq!(c.lookup(&k).unwrap(), Some(b"report".to_vec()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn config_change_is_a_different_address() {
        let c = ResultCache::in_memory();
        let kernels = vec![meta("a", 8, 5, 0x11)];
        c.insert(key("k=0", kernels.clone()), b"r0".to_vec())
            .unwrap();
        assert_eq!(c.lookup(&key("k=64", kernels.clone())).unwrap(), None);
        c.insert(key("k=64", kernels.clone()), b"r64".to_vec())
            .unwrap();
        assert_eq!(c.len(), 2, "configs address distinct entries");
        assert_eq!(
            c.lookup(&key("k=0", kernels)).unwrap(),
            Some(b"r0".to_vec())
        );
    }

    #[test]
    fn forced_checksum_collision_is_a_typed_error_not_a_hit() {
        // Two kernels forced to the same checksum (the 64-bit FNV-1a
        // identity colliding) but with different register counts: the
        // address matches, metadata verification must refuse to serve.
        let c = ResultCache::in_memory();
        let stored = key("cfg", vec![meta("k", 8, 5, 0xdead_beef)]);
        let probe = key("cfg", vec![meta("k", 16, 5, 0xdead_beef)]);
        assert_eq!(stored.content_hash(), probe.content_hash());
        c.insert(stored, b"wrong-for-probe".to_vec()).unwrap();
        match c.lookup(&probe) {
            Err(CacheError::IdentityMismatch { kernel, reason }) => {
                assert_eq!(kernel, "k");
                assert!(reason.contains("register count"), "{reason}");
            }
            other => panic!("expected IdentityMismatch, got {other:?}"),
        }
    }

    #[test]
    fn address_collision_with_distinct_checksums_is_a_miss() {
        // Same bucket (we force it by using identical config + checksum
        // list length 0 vs. different kernels is impossible; instead use
        // same-length tables whose checksums differ — then the address
        // differs too, so emulate the bucket collision by inserting and
        // probing through the verify step directly).
        let stored = key("cfg", vec![meta("k", 8, 5, 0x1)]);
        let probe = key("cfg", vec![meta("k", 8, 5, 0x2)]);
        assert!(!verify(&stored, &probe).unwrap());
        // Different config: also a plain miss, never an error.
        let probe2 = key("cfg2", vec![meta("k", 8, 5, 0x1)]);
        assert!(!verify(&stored, &probe2).unwrap());
    }

    #[test]
    fn persistent_entries_survive_a_new_cache_instance() {
        let dir = std::env::temp_dir().join(format!("fpx-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let k = key("cfg", vec![meta("a", 8, 5, 0x11), meta("b", 4, 3, 0x22)]);
        {
            let c = ResultCache::persistent(&dir).unwrap();
            c.insert(k.clone(), b"persisted report".to_vec()).unwrap();
        }
        let c2 = ResultCache::persistent(&dir).unwrap();
        assert_eq!(c2.len(), 0, "fresh instance starts cold in memory");
        assert_eq!(c2.lookup(&k).unwrap(), Some(b"persisted report".to_vec()));
        assert_eq!(c2.len(), 1, "disk hit promoted into memory");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_file_degrades_to_a_miss() {
        let dir = std::env::temp_dir().join(format!("fpx-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = ResultCache::persistent(&dir).unwrap();
        let k = key("cfg", vec![meta("a", 8, 5, 0x11)]);
        c.insert(k.clone(), b"ok".to_vec()).unwrap();
        // Truncate the entry file behind the cache's back, then drop the
        // in-memory copy: the next lookup must miss, not fail.
        let p = entry_path(&dir, k.content_hash());
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() / 2]).unwrap();
        c.clear();
        assert_eq!(c.lookup(&k).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kernel_count_beyond_the_remaining_entry_is_corrupt() {
        // 30 kernel entries need at least 120 bytes; 100 remain.
        let mut w = Writer::default();
        w.out.extend_from_slice(&ENTRY_MAGIC);
        w.out.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
        w.str("cfg");
        w.varint(30);
        w.out.extend_from_slice(&[0; 100]);
        match decode_entry(&w.out) {
            Err(TraceError::Corrupt(what)) => assert!(what.contains("kernel count 30"), "{what}"),
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("expected Corrupt, got an entry"),
        }
    }

    #[test]
    fn entry_format_round_trips() {
        let e = Entry {
            key: key("cfg;with;separators", vec![meta("k0", 8, 5, u64::MAX)]),
            payload: b"payload bytes \xff\x00".to_vec(),
        };
        let d = decode_entry(&encode_entry(&e)).unwrap();
        assert_eq!(d.key, e.key);
        assert_eq!(d.payload, e.payload);
    }
}
