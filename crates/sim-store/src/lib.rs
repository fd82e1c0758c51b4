//! # sim-store
//!
//! A persistent, content-addressed artifact store for simulation results
//! and checkpoints.
//!
//! The in-memory run cache and checkpoint library (the `techniques` crate)
//! die with the process; every new sweep re-pays fast-forward and detailed
//! simulation the previous invocation already performed. This crate keeps
//! those artifacts on disk — run results keyed by their run fingerprint and
//! checkpoint tiers keyed by `(program, config, position)` — so a second
//! process (or a CI re-run) starts warm.
//!
//! ## On-disk format (version 1)
//!
//! A store is a directory of append-only *segment* files plus a transient
//! `.lock` file. Each segment is:
//!
//! ```text
//! magic  b"SST1"            4 bytes
//! format version            u32 LE
//! record*                   until EOF
//! ```
//!
//! and each record is:
//!
//! ```text
//! ns_len                    u16 LE
//! ns                        ns_len bytes (UTF-8 namespace, e.g. "run/v1")
//! key hi, key lo            2 x u64 LE  (128-bit content key)
//! stamp                     u64 LE      (logical write stamp; newest wins)
//! payload_len               u32 LE
//! crc32                     u32 LE      (IEEE, over ns ++ key ++ stamp ++ payload)
//! payload                   payload_len bytes
//! ```
//!
//! Guarantees and non-guarantees:
//!
//! - **Nothing is trusted.** Every read re-checks the CRC against the bytes
//!   on disk; a failed check reports the entry corrupt and behaves as a
//!   miss. Segments with a wrong magic or format version are skipped
//!   wholesale — a store written by a future format is *foreign*, never
//!   misread. Payload envelopes carry their own program/config fingerprints
//!   (enforced by the caller) so a key collision can't smuggle in state for
//!   a different machine.
//! - **Crash safety.** Writers accumulate records in memory and flush them
//!   as one new segment written to a temporary file, fsynced, then
//!   atomically renamed. A crash leaves either the whole segment or no
//!   segment; a torn tail in a segment (from an unclean copy) truncates
//!   indexing at the damage, never corrupts earlier records.
//! - **Concurrency.** Each flush creates a uniquely named segment, so
//!   concurrent writer processes never collide; mutation of *existing*
//!   files (GC compaction) happens under the `.lock` file. Last writer wins
//!   per key, ordered by stamp.
//!
//! A hit is only an artifact transfer: callers are expected to charge the
//! full modeled cost of the work the artifact represents.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use sim_obs::metrics::Counter;

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 4] = *b"SST1";

/// On-disk format version. Bump on any incompatible layout change; readers
/// skip segments from other versions entirely.
pub const FORMAT_VERSION: u32 = 1;

const SEGMENT_HEADER_LEN: u64 = 8;
const LOCK_STALE_AFTER: Duration = Duration::from_secs(30);

/// A 128-bit content key derived from canonical key bytes.
///
/// Two independent FNV-1a streams (different offset bases) make accidental
/// collisions across the artifact population negligible, and the derivation
/// is byte-stable across platforms and Rust versions — unlike
/// `DefaultHasher`, whose output may change between releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Key {
    /// Derive the key for `bytes`.
    pub fn of(bytes: &[u8]) -> Key {
        Key {
            hi: fnv1a(bytes, 0xcbf2_9ce4_8422_2325),
            lo: fnv1a(bytes, 0x8422_2325_cbf2_9ce4),
        }
    }

    /// 32-hex-digit rendering (used by `simstore ls`).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// IEEE CRC32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC32 over a sequence of byte slices (as if concatenated).
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = !0u32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
    }
    !c
}

fn record_crc(ns: &str, key: Key, stamp: u64, payload: &[u8]) -> u32 {
    crc32(&[
        ns.as_bytes(),
        &key.hi.to_le_bytes(),
        &key.lo.to_le_bytes(),
        &stamp.to_le_bytes(),
        payload,
    ])
}

fn record_len(ns: &str, payload_len: usize) -> u64 {
    // ns_len + ns + key + stamp + payload_len + crc + payload
    2 + ns.len() as u64 + 16 + 8 + 4 + 4 + payload_len as u64
}

/// Where an indexed record lives on disk.
#[derive(Debug, Clone)]
struct Slot {
    seg: PathBuf,
    /// Offset of the payload within the segment.
    payload_at: u64,
    payload_len: u32,
    stamp: u64,
    crc: u32,
}

#[derive(Debug, Clone)]
struct Pending {
    stamp: u64,
    payload: Vec<u8>,
}

#[derive(Debug, Default)]
struct Inner {
    index: HashMap<(String, Key), Slot>,
    pending: HashMap<(String, Key), Pending>,
}

/// One live entry, as reported by [`Store::entries`] (`simstore ls`).
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// Namespace (e.g. `run/v1`).
    pub ns: String,
    /// Content key.
    pub key: Key,
    /// Payload length in bytes.
    pub len: u64,
    /// Logical write stamp.
    pub stamp: u64,
    /// `true` while the entry is only buffered in memory (not yet flushed).
    pub pending: bool,
}

/// Aggregate store statistics ([`Store::stat`], `simstore stat`).
#[derive(Debug, Clone, Default)]
pub struct StoreStat {
    /// Number of segment files.
    pub segments: u64,
    /// Total bytes across segment files.
    pub disk_bytes: u64,
    /// Live (deduplicated) entries.
    pub entries: u64,
    /// Per-namespace `(entries, payload_bytes)`.
    pub by_ns: BTreeMap<String, (u64, u64)>,
}

/// Result of a [`Store::verify`] scan.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Segments scanned (including skipped foreign ones).
    pub segments: u64,
    /// Records whose CRC checked out.
    pub records_ok: u64,
    /// Human-readable descriptions of every problem found.
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// `true` when no problems were found.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Result of a [`Store::gc`] pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcStats {
    /// Entries kept (newest first within the byte budget).
    pub kept: u64,
    /// Entries evicted.
    pub evicted: u64,
    /// Corrupt records dropped during compaction.
    pub dropped_corrupt: u64,
    /// Disk bytes after compaction.
    pub disk_bytes: u64,
}

/// A disk-backed content-addressed artifact store. See the crate docs for
/// the format and guarantees.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    inner: Mutex<Inner>,
    next_stamp: AtomicU64,
    flush_seq: AtomicU64,
    hits: Counter,
    misses: Counter,
    writes: Counter,
    evicts: Counter,
    corrupts: Counter,
}

impl Store {
    /// Open (creating if needed) the store at `dir` with private, unreported
    /// counters. Scans existing segments to build the in-memory index.
    pub fn open(dir: &Path) -> io::Result<Store> {
        Store::open_with(
            dir,
            [
                Counter::detached(),
                Counter::detached(),
                Counter::detached(),
                Counter::detached(),
                Counter::detached(),
            ],
        )
    }

    /// Open the store with its counters registered in the process-wide
    /// metrics registry as `store.{hit,miss,write,evict,corrupt}` — the
    /// variant used by experiment binaries, so store traffic shows up in
    /// `--metrics` reports.
    pub fn registered(dir: &Path) -> io::Result<Store> {
        Store::open_with(
            dir,
            [
                sim_obs::metrics::counter("store.hit"),
                sim_obs::metrics::counter("store.miss"),
                sim_obs::metrics::counter("store.write"),
                sim_obs::metrics::counter("store.evict"),
                sim_obs::metrics::counter("store.corrupt"),
            ],
        )
    }

    fn open_with(dir: &Path, counters: [Counter; 5]) -> io::Result<Store> {
        fs::create_dir_all(dir)?;
        let [hits, misses, writes, evicts, corrupts] = counters;
        let store = Store {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner::default()),
            next_stamp: AtomicU64::new(1),
            flush_seq: AtomicU64::new(0),
            hits,
            misses,
            writes,
            evicts,
            corrupts,
        };
        store.refresh()?;
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reset the traffic counters to zero without touching stored artifacts
    /// (per-sweep reporting; the store itself persists across sweeps by
    /// design).
    pub fn reset_counters(&self) {
        self.hits.reset();
        self.misses.reset();
        self.writes.reset();
        self.evicts.reset();
        self.corrupts.reset();
    }

    /// `(hits, misses, writes, evicts, corrupts)` since open or the last
    /// [`Store::reset_counters`].
    pub fn counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.hits.get(),
            self.misses.get(),
            self.writes.get(),
            self.evicts.get(),
            self.corrupts.get(),
        )
    }

    /// Rebuild the index from the segment files on disk, keeping any
    /// unflushed pending writes. Picks up segments written by other
    /// processes since open.
    pub fn refresh(&self) -> io::Result<()> {
        let mut index = HashMap::new();
        let mut max_stamp = 0u64;
        for seg in self.segment_paths()? {
            // Unreadable or foreign segments are skipped, not fatal: the
            // store must degrade to cold-run behavior, never block a sweep.
            let Ok(bytes) = fs::read(&seg) else { continue };
            scan_segment(&bytes, |rec| {
                max_stamp = max_stamp.max(rec.stamp);
                let slot = Slot {
                    seg: seg.clone(),
                    payload_at: rec.payload_at,
                    payload_len: rec.payload_len,
                    stamp: rec.stamp,
                    crc: rec.crc,
                };
                match index.entry((rec.ns.to_string(), rec.key)) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(slot);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        if rec.stamp >= e.get().stamp {
                            e.insert(slot);
                        }
                    }
                }
            });
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for p in inner.pending.values() {
            max_stamp = max_stamp.max(p.stamp);
        }
        inner.index = index;
        self.next_stamp.fetch_max(max_stamp + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Fetch the payload stored under `(ns, key)`, verifying its CRC against
    /// the bytes on disk. A corrupt or truncated record is counted, dropped
    /// from the index, and reported as a miss — callers fall back to
    /// recomputing, so damage can never change results.
    pub fn get(&self, ns: &str, key: Key) -> Option<Vec<u8>> {
        let slot = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(p) = inner.pending.get(&(ns.to_string(), key)) {
                self.hits.inc();
                return Some(p.payload.clone());
            }
            inner.index.get(&(ns.to_string(), key)).cloned()
        };
        let Some(slot) = slot else {
            self.misses.inc();
            return None;
        };
        match read_payload(&slot) {
            Some(payload) if record_crc(ns, key, slot.stamp, &payload) == slot.crc => {
                self.hits.inc();
                Some(payload)
            }
            _ => {
                self.corrupts.inc();
                self.misses.inc();
                let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.index.remove(&(ns.to_string(), key));
                None
            }
        }
    }

    /// Buffer `payload` for storage under `(ns, key)`. Durable only after
    /// [`Store::flush`] (experiment harnesses flush at exit).
    pub fn put(&self, ns: &str, key: Key, payload: Vec<u8>) {
        let stamp = self.next_stamp.fetch_add(1, Ordering::Relaxed);
        self.writes.inc();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .pending
            .insert((ns.to_string(), key), Pending { stamp, payload });
    }

    /// Pending (unflushed) record count.
    pub fn pending_len(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.pending.len()
    }

    /// Write all pending records as one new segment: temp file, fsync,
    /// atomic rename. On success the records become visible to other
    /// processes; on failure the records stay pending and the store on disk
    /// is untouched.
    pub fn flush(&self) -> io::Result<()> {
        let pending: Vec<((String, Key), Pending)> = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if inner.pending.is_empty() {
                return Ok(());
            }
            let mut v: Vec<_> = inner
                .pending
                .iter()
                .map(|(k, p)| (k.clone(), p.clone()))
                .collect();
            // Deterministic record order within a segment.
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };

        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let mut slots = Vec::with_capacity(pending.len());
        for ((ns, key), p) in &pending {
            let payload_at = buf.len() as u64 + record_len(ns, 0);
            append_record(&mut buf, ns, *key, p.stamp, &p.payload);
            slots.push((
                (ns.clone(), *key),
                Slot {
                    seg: PathBuf::new(), // patched below once the name is final
                    payload_at,
                    payload_len: p.payload.len() as u32,
                    stamp: p.stamp,
                    crc: record_crc(ns, *key, p.stamp, &p.payload),
                },
            ));
        }

        let seq = self.flush_seq.fetch_add(1, Ordering::Relaxed);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let base = format!("seg-{nanos:x}-{}-{seq}", std::process::id());
        let tmp = self.dir.join(format!("{base}.tmp"));
        let seg = self.dir.join(format!("{base}.seg"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &seg)?;

        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for (k, mut slot) in slots {
            slot.seg.clone_from(&seg);
            // A concurrent put between snapshot and now keeps its pending
            // copy (newer stamp) and will be flushed next time.
            if inner.pending.get(&k).map(|p| p.stamp) == Some(slot.stamp) {
                inner.pending.remove(&k);
            }
            match inner.index.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(slot);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if slot.stamp >= e.get().stamp {
                        e.insert(slot);
                    }
                }
            }
        }
        Ok(())
    }

    /// All live entries (index plus pending), sorted by namespace then key.
    pub fn entries(&self) -> Vec<EntryInfo> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<EntryInfo> = inner
            .index
            .iter()
            .map(|((ns, key), s)| EntryInfo {
                ns: ns.clone(),
                key: *key,
                len: u64::from(s.payload_len),
                stamp: s.stamp,
                pending: false,
            })
            .collect();
        for ((ns, key), p) in &inner.pending {
            if let Some(e) = out.iter_mut().find(|e| &e.ns == ns && e.key == *key) {
                if p.stamp >= e.stamp {
                    e.len = p.payload.len() as u64;
                    e.stamp = p.stamp;
                    e.pending = true;
                }
            } else {
                out.push(EntryInfo {
                    ns: ns.clone(),
                    key: *key,
                    len: p.payload.len() as u64,
                    stamp: p.stamp,
                    pending: true,
                });
            }
        }
        out.sort_by(|a, b| (&a.ns, a.key).cmp(&(&b.ns, b.key)));
        out
    }

    /// Aggregate statistics over the store.
    pub fn stat(&self) -> io::Result<StoreStat> {
        let mut st = StoreStat::default();
        for seg in self.segment_paths()? {
            st.segments += 1;
            st.disk_bytes += fs::metadata(&seg).map(|m| m.len()).unwrap_or(0);
        }
        for e in self.entries() {
            st.entries += 1;
            let (n, b) = st.by_ns.entry(e.ns).or_insert((0, 0));
            *n += 1;
            *b += e.len;
        }
        Ok(st)
    }

    /// Scan every segment end to end, checking magic, version, structure,
    /// and the CRC of every record. Read-only; problems are reported, not
    /// repaired (GC compaction drops them).
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for seg in self.segment_paths()? {
            report.segments += 1;
            let name = seg
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let bytes = match fs::read(&seg) {
                Ok(b) => b,
                Err(e) => {
                    report.problems.push(format!("{name}: unreadable: {e}"));
                    continue;
                }
            };
            if let Err(why) = segment_header(&bytes) {
                report.problems.push(format!("{name}: {why}"));
                continue;
            }
            let mut pos = SEGMENT_HEADER_LEN as usize;
            while pos < bytes.len() {
                match parse_record(&bytes, pos) {
                    Ok(rec) => {
                        let payload = &bytes[rec.payload_at as usize
                            ..rec.payload_at as usize + rec.payload_len as usize];
                        if record_crc(rec.ns, rec.key, rec.stamp, payload) == rec.crc {
                            report.records_ok += 1;
                        } else {
                            report.problems.push(format!(
                                "{name}: record at offset {pos} ({} {}): CRC mismatch",
                                rec.ns,
                                rec.key.hex()
                            ));
                        }
                        pos = rec.end;
                    }
                    Err(why) => {
                        report
                            .problems
                            .push(format!("{name}: record at offset {pos}: {why}"));
                        break;
                    }
                }
            }
        }
        Ok(report)
    }

    /// Compact the store to at most `max_bytes` of record data, keeping the
    /// newest entries by stamp. Flushes pending writes first, takes the
    /// directory lock, rewrites survivors into one fresh segment, and
    /// deletes every old segment. Corrupt records are dropped.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcStats> {
        self.flush()?;
        let _lock = DirLock::acquire(&self.dir)?;
        self.refresh()?; // pick up segments other processes flushed

        // Materialize every live record (payload + metadata), newest first.
        let slots: Vec<((String, Key), Slot)> = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner
                .index
                .iter()
                .map(|(k, s)| (k.clone(), s.clone()))
                .collect()
        };
        let mut live: Vec<((String, Key), Slot, Vec<u8>)> = Vec::with_capacity(slots.len());
        let mut stats = GcStats::default();
        for (k, slot) in slots {
            match read_payload(&slot) {
                Some(p) if record_crc(&k.0, k.1, slot.stamp, &p) == slot.crc => {
                    live.push((k, slot, p));
                }
                _ => {
                    stats.dropped_corrupt += 1;
                    self.corrupts.inc();
                }
            }
        }
        live.sort_by(|a, b| b.1.stamp.cmp(&a.1.stamp).then_with(|| a.0.cmp(&b.0)));

        let mut kept_bytes = 0u64;
        let mut keep = Vec::new();
        for (k, slot, payload) in live {
            let sz = record_len(&k.0, payload.len());
            if kept_bytes + sz <= max_bytes {
                kept_bytes += sz;
                keep.push((k, slot, payload));
            } else {
                stats.evicted += 1;
                self.evicts.inc();
            }
        }
        stats.kept = keep.len() as u64;
        keep.sort_by(|a, b| a.0.cmp(&b.0));

        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for (k, slot, payload) in &keep {
            append_record(&mut buf, &k.0, k.1, slot.stamp, payload);
        }
        let old = self.segment_paths()?;
        let tmp = self.dir.join("gc.tmp");
        let seg = self.dir.join(format!(
            "seg-gc-{}-{}.seg",
            std::process::id(),
            self.flush_seq.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &seg)?;
        for p in old {
            let _ = fs::remove_file(p);
        }
        self.refresh()?;
        stats.disk_bytes = buf.len() as u64;
        Ok(stats)
    }

    fn segment_paths(&self) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("seg") {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }
}

fn read_payload(slot: &Slot) -> Option<Vec<u8>> {
    let mut f = File::open(&slot.seg).ok()?;
    f.seek(SeekFrom::Start(slot.payload_at)).ok()?;
    let mut payload = vec![0u8; slot.payload_len as usize];
    f.read_exact(&mut payload).ok()?;
    Some(payload)
}

fn append_record(buf: &mut Vec<u8>, ns: &str, key: Key, stamp: u64, payload: &[u8]) {
    buf.extend_from_slice(&(ns.len() as u16).to_le_bytes());
    buf.extend_from_slice(ns.as_bytes());
    buf.extend_from_slice(&key.hi.to_le_bytes());
    buf.extend_from_slice(&key.lo.to_le_bytes());
    buf.extend_from_slice(&stamp.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&record_crc(ns, key, stamp, payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

struct RawRecord<'a> {
    ns: &'a str,
    key: Key,
    stamp: u64,
    payload_len: u32,
    payload_at: u64,
    crc: u32,
    end: usize,
}

fn segment_header(bytes: &[u8]) -> Result<(), &'static str> {
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        return Err("shorter than a segment header");
    }
    if bytes[..4] != MAGIC {
        return Err("bad magic (foreign file)");
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err("unsupported format version (foreign store)");
    }
    Ok(())
}

fn parse_record(bytes: &[u8], at: usize) -> Result<RawRecord<'_>, &'static str> {
    let need = |n: usize, pos: usize| -> Result<(), &'static str> {
        if pos + n > bytes.len() {
            Err("truncated record")
        } else {
            Ok(())
        }
    };
    let mut pos = at;
    need(2, pos)?;
    let ns_len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
    pos += 2;
    need(ns_len, pos)?;
    let ns = std::str::from_utf8(&bytes[pos..pos + ns_len]).map_err(|_| "non-UTF-8 namespace")?;
    pos += ns_len;
    need(16 + 8 + 4 + 4, pos)?;
    let hi = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    let lo = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
    let stamp = u64::from_le_bytes(bytes[pos + 16..pos + 24].try_into().unwrap());
    let payload_len = u32::from_le_bytes(bytes[pos + 24..pos + 28].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[pos + 28..pos + 32].try_into().unwrap());
    pos += 32;
    need(payload_len as usize, pos)?;
    Ok(RawRecord {
        ns,
        key: Key { hi, lo },
        stamp,
        payload_len,
        payload_at: pos as u64,
        crc,
        end: pos + payload_len as usize,
    })
}

/// Walk every well-formed record of a segment, stopping at the first
/// damage. Foreign/unversioned segments yield nothing.
fn scan_segment(bytes: &[u8], mut f: impl FnMut(&RawRecord<'_>)) {
    if segment_header(bytes).is_err() {
        return;
    }
    let mut pos = SEGMENT_HEADER_LEN as usize;
    while pos < bytes.len() {
        match parse_record(bytes, pos) {
            Ok(rec) => {
                pos = rec.end;
                f(&rec);
            }
            Err(_) => break,
        }
    }
}

/// Exclusive advisory lock on a store directory, held while compacting.
/// Created with `create_new` (atomic on every real filesystem); a lock
/// older than [`LOCK_STALE_AFTER`] is presumed abandoned by a crashed
/// process and stolen.
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> io::Result<DirLock> {
        let path = dir.join(".lock");
        for _ in 0..1_000 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| age > LOCK_STALE_AFTER);
                    if stale {
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "sim-store directory lock is busy",
        ))
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

static GLOBAL: OnceLock<Option<Arc<Store>>> = OnceLock::new();

/// Install the process-wide store at `dir` (metrics-registered). Called by
/// experiment option parsing when `--store` is given. A repeat install of
/// the same directory is a no-op; installing a different directory, or any
/// directory after [`global`] has already fixed the process to no store,
/// is an error instead of a silent storeless run.
pub fn install_global(dir: &Path) -> io::Result<()> {
    install_into(&GLOBAL, dir)
}

fn install_into(cell: &OnceLock<Option<Arc<Store>>>, dir: &Path) -> io::Result<()> {
    if cell.get().is_none() {
        let store = Arc::new(Store::registered(dir)?);
        // A racing install may have won since the check; judge against it.
        let _ = cell.set(Some(store));
    }
    let fixed = match cell.get() {
        Some(Some(store)) if same_dir(store.dir(), dir) => return Ok(()),
        Some(Some(store)) => format!("{:?}", store.dir()),
        _ => "no store".to_string(),
    };
    Err(io::Error::new(
        io::ErrorKind::AlreadyExists,
        format!("cannot install store {dir:?}: this process is already fixed to {fixed}"),
    ))
}

/// Whether two paths name the same directory (canonically when both
/// resolve, literally otherwise).
fn same_dir(a: &Path, b: &Path) -> bool {
    match (fs::canonicalize(a), fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => a == b,
    }
}

/// The process-wide store, if one is configured. Without an explicit
/// [`install_global`], the `SIM_STORE` environment variable (a directory
/// path) is consulted once; an unset variable or an unopenable directory
/// means no store, and callers behave exactly as before the store existed.
pub fn global() -> Option<Arc<Store>> {
    GLOBAL
        .get_or_init(|| {
            let dir: PathBuf = sim_obs::env_val("SIM_STORE")?;
            Store::registered(&dir).ok().map(Arc::new)
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch directory per test (std-only; no tempfile crate).
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simstore-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn conflicting_global_install_is_an_error() {
        let a = scratch("install-a");
        let b = scratch("install-b");
        install_global(&a).expect("first install opens the store");
        install_global(&a).expect("same directory again is a no-op");
        let err = install_global(&b).expect_err("a second directory conflicts");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(global().expect("store installed").dir(), a.as_path());
        // A process already fixed to "no store" refuses a late install.
        let none = OnceLock::new();
        none.set(None).unwrap();
        assert!(install_into(&none, &a).is_err());
        let _ = fs::remove_dir_all(&a);
        let _ = fs::remove_dir_all(&b);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(&[b"123456789"]), 0xcbf4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xcbf4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        assert_eq!(Key::of(b"abc"), Key::of(b"abc"));
        assert_ne!(Key::of(b"abc"), Key::of(b"abd"));
        assert_eq!(Key::of(b"abc").hex().len(), 32);
    }

    #[test]
    fn put_get_flush_reopen_roundtrip() {
        let dir = scratch("roundtrip");
        let store = Store::open(&dir).unwrap();
        let k = Key::of(b"the-run");
        assert_eq!(store.get("run/v1", k), None);
        store.put("run/v1", k, vec![1, 2, 3, 4]);
        // Visible before flush (write-behind buffer).
        assert_eq!(store.get("run/v1", k), Some(vec![1, 2, 3, 4]));
        store.flush().unwrap();
        assert_eq!(store.pending_len(), 0);
        assert_eq!(store.get("run/v1", k), Some(vec![1, 2, 3, 4]));
        drop(store);

        // A second open (fresh process, conceptually) sees the artifact.
        let store2 = Store::open(&dir).unwrap();
        assert_eq!(store2.get("run/v1", k), Some(vec![1, 2, 3, 4]));
        // Same key in a different namespace is a different artifact.
        assert_eq!(store2.get("arch/v1", k), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_write_wins_across_flushes() {
        let dir = scratch("lww");
        let store = Store::open(&dir).unwrap();
        let k = Key::of(b"x");
        store.put("run/v1", k, b"old".to_vec());
        store.flush().unwrap();
        store.put("run/v1", k, b"new".to_vec());
        store.flush().unwrap();
        assert_eq!(store.get("run/v1", k), Some(b"new".to_vec()));
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.get("run/v1", k), Some(b"new".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_byte_is_detected_and_falls_back_to_miss() {
        let dir = scratch("flip");
        let store = Store::open(&dir).unwrap();
        let k = Key::of(b"victim");
        store.put("run/v1", k, vec![0xaa; 64]);
        store.flush().unwrap();
        drop(store);

        // Flip one payload byte in the only segment.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().and_then(|e| e.to_str()) == Some("seg"))
            .unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get("run/v1", k), None, "corrupt entry must miss");
        // Counted, and the entry was dropped so the next get is a plain miss.
        assert_eq!(store.get("run/v1", k), None);
        let report = store.verify().unwrap();
        assert!(!report.clean());
        assert!(report.problems[0].contains("CRC mismatch"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_segment_keeps_earlier_records() {
        let dir = scratch("trunc");
        let store = Store::open(&dir).unwrap();
        let ka = Key::of(b"a");
        let kb = Key::of(b"b");
        store.put("run/v1", ka, vec![1; 32]);
        store.put("run/v1", kb, vec![2; 32]);
        store.flush().unwrap();
        drop(store);

        let seg = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().and_then(|e| e.to_str()) == Some("seg"))
            .unwrap();
        let bytes = fs::read(&seg).unwrap();
        // Chop into the second record's payload (keys sort a before b).
        fs::write(&seg, &bytes[..bytes.len() - 16]).unwrap();

        let store = Store::open(&dir).unwrap();
        assert_eq!(
            store.get("run/v1", ka),
            Some(vec![1; 32]),
            "undamaged record survives"
        );
        assert_eq!(store.get("run/v1", kb), None, "truncated record is gone");
        assert!(!store.verify().unwrap().clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_format_version_is_foreign_not_misread() {
        let dir = scratch("version");
        let store = Store::open(&dir).unwrap();
        let k = Key::of(b"artifact");
        store.put("run/v1", k, vec![9; 16]);
        store.flush().unwrap();

        // Bump the on-disk version: a store written by a newer format.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().and_then(|e| e.to_str()) == Some("seg"))
            .unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&seg, &bytes).unwrap();

        store.refresh().unwrap();
        assert_eq!(
            store.get("run/v1", k),
            None,
            "foreign segment is never trusted"
        );
        let report = store.verify().unwrap();
        assert!(report.problems.iter().any(|p| p.contains("format version")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_newest_within_budget_and_compacts() {
        let dir = scratch("gc");
        let store = Store::open(&dir).unwrap();
        for i in 0..10u8 {
            store.put("run/v1", Key::of(&[i]), vec![i; 100]);
            store.flush().unwrap(); // one segment per record
        }
        assert_eq!(store.segment_paths().unwrap().len(), 10);

        // Budget for roughly four records.
        let one = record_len("run/v1", 100);
        let stats = store.gc(4 * one).unwrap();
        assert_eq!(stats.kept, 4);
        assert_eq!(stats.evicted, 6);
        assert_eq!(
            store.segment_paths().unwrap().len(),
            1,
            "compacted to one segment"
        );
        // The newest four survive, the oldest six are gone.
        for i in 0..6u8 {
            assert_eq!(store.get("run/v1", Key::of(&[i])), None);
        }
        for i in 6..10u8 {
            assert_eq!(store.get("run/v1", Key::of(&[i])), Some(vec![i; 100]));
        }
        assert!(store.verify().unwrap().clean());
        assert!(!dir.join(".lock").exists(), "lock released");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stat_and_entries_report_live_state() {
        let dir = scratch("stat");
        let store = Store::open(&dir).unwrap();
        store.put("run/v1", Key::of(b"r"), vec![0; 10]);
        store.put("arch/v1", Key::of(b"a"), vec![0; 20]);
        store.flush().unwrap();
        store.put("warm/v1", Key::of(b"w"), vec![0; 30]); // still pending
        let st = store.stat().unwrap();
        assert_eq!(st.entries, 3);
        assert_eq!(st.segments, 1);
        assert_eq!(st.by_ns["run/v1"], (1, 10));
        assert_eq!(st.by_ns["arch/v1"], (1, 20));
        assert_eq!(st.by_ns["warm/v1"], (1, 30));
        let entries = store.entries();
        assert_eq!(entries.len(), 3);
        assert!(entries.iter().any(|e| e.pending && e.ns == "warm/v1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_track_traffic() {
        let dir = scratch("counters");
        let store = Store::open(&dir).unwrap();
        let k = Key::of(b"c");
        assert_eq!(store.get("run/v1", k), None);
        store.put("run/v1", k, vec![1]);
        store.flush().unwrap();
        assert!(store.get("run/v1", k).is_some());
        assert_eq!(store.hits.get(), 1);
        assert_eq!(store.misses.get(), 1);
        assert_eq!(store.writes.get(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_sees_segments_written_by_another_store_handle() {
        let dir = scratch("cross");
        let a = Store::open(&dir).unwrap();
        let b = Store::open(&dir).unwrap();
        let k = Key::of(b"shared");
        a.put("run/v1", k, vec![5; 8]);
        a.flush().unwrap();
        assert_eq!(b.get("run/v1", k), None, "stale index until refresh");
        b.refresh().unwrap();
        assert_eq!(b.get("run/v1", k), Some(vec![5; 8]));
        let _ = fs::remove_dir_all(&dir);
    }
}
