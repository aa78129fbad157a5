//! Content-addressed blob store for plate images.
//!
//! The portal keeps "the raw plate images for quality control" (§2.3).
//! Blobs are addressed by a content hash, deduplicated, and optionally
//! spilled to a directory as `.bin` files.

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;

/// Reference to a stored blob (`blob:<hex>`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlobRef(pub String);

impl BlobRef {
    fn from_hash(h: u64) -> BlobRef {
        BlobRef(format!("blob:{h:016x}"))
    }
}

impl std::fmt::Display for BlobRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Mix in the length to separate prefix collisions.
    h ^ (bytes.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One in-memory blob.
#[derive(Debug)]
struct Entry {
    data: Bytes,
    /// LRU stamp from the store's shared clock; the smallest stamp is the
    /// least recently touched blob.
    stamp: u64,
    /// The blob's `.bin` file holds it (written at insert, or the blob was
    /// read from it), so evicting the in-memory copy loses nothing.
    durable: bool,
}

/// Map plus its running byte total, guarded by one lock so the total can
/// never drift from the map contents.
#[derive(Debug, Default)]
struct Inner {
    blobs: HashMap<BlobRef, Entry>,
    /// Sum of every in-memory blob's length.
    bytes: usize,
}

/// Thread-safe content-addressed store with an optional memory ceiling:
/// with a spill directory and [`BlobStore::with_mem_cap`], least recently
/// used blobs are evicted from memory once the ceiling is crossed (their
/// spilled `.bin` file remains the durable copy) and transparently
/// reloaded — hash-verified — on the next `get`. A blob whose spill write
/// failed is never evicted.
#[derive(Debug, Default)]
pub struct BlobStore {
    inner: Mutex<Inner>,
    spill_dir: Option<PathBuf>,
    spill_ready: std::sync::atomic::AtomicBool,
    /// In-memory byte ceiling; `0` = unbounded. Only enforced when a
    /// spill directory makes eviction lossless.
    mem_cap: usize,
    clock: std::sync::atomic::AtomicU64,
    evictions: std::sync::atomic::AtomicU64,
    reloads: std::sync::atomic::AtomicU64,
}

impl BlobStore {
    /// In-memory store.
    pub fn in_memory() -> BlobStore {
        BlobStore::default()
    }

    /// Store that also writes each blob to `dir`. The directory (and any
    /// missing parents) is created on the first write, so a store may be
    /// configured with a path that does not exist yet.
    pub fn with_spill_dir(dir: impl Into<PathBuf>) -> BlobStore {
        BlobStore { spill_dir: Some(dir.into()), ..BlobStore::default() }
    }

    /// Builder: cap in-memory blob bytes at `cap` (`0` = unbounded).
    /// Without a spill directory the cap is ignored — evicting a blob
    /// that exists nowhere else would lose it. Applies immediately to
    /// anything already held (e.g. after [`BlobStore::open_spill_dir`]).
    pub fn with_mem_cap(self, cap: usize) -> BlobStore {
        let store = BlobStore { mem_cap: cap, ..self };
        {
            let mut inner = store.inner.lock();
            store.enforce(&mut inner);
        }
        store
    }

    /// Reopen a spill directory: load every previously spilled blob back
    /// into memory, then continue spilling new blobs to the same place.
    /// Files whose content no longer matches their name are skipped.
    pub fn open_spill_dir(dir: impl Into<PathBuf>) -> std::io::Result<BlobStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = BlobStore::with_spill_dir(&dir);
        store.spill_ready.store(true, std::sync::atomic::Ordering::Release);
        let mut inner = store.inner.lock();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("blob_") || !name.ends_with(".bin") {
                continue;
            }
            let data = Bytes::from(std::fs::read(&path)?);
            let r = BlobRef::from_hash(fnv64(&data));
            if r.0.replace(':', "_") + ".bin" == name {
                let stamp = store.tick();
                inner.bytes += data.len();
                inner.blobs.insert(r, Entry { data, stamp, durable: true });
            }
        }
        drop(inner);
        Ok(store)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Evict least-recently-used durable blobs until memory fits the cap.
    /// Only meaningful with a spill directory, whose `.bin` files are the
    /// durable copies. A blob whose spill write failed exists nowhere else,
    /// so it stays in memory even when that leaves memory above the cap.
    fn enforce(&self, inner: &mut Inner) {
        if self.mem_cap == 0 || self.spill_dir.is_none() {
            return;
        }
        while inner.bytes > self.mem_cap {
            let Some(victim) = inner
                .blobs
                .iter()
                .filter(|(_, e)| e.durable)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(r, _)| r.clone())
            else {
                break;
            };
            if let Some(e) = inner.blobs.remove(&victim) {
                inner.bytes -= e.data.len();
                self.evictions.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    /// Write a blob's `.bin` file; true when the file now holds the blob.
    fn spill(&self, r: &BlobRef, data: &Bytes) -> bool {
        use std::sync::atomic::Ordering;
        let Some(dir) = &self.spill_dir else { return false };
        if !self.spill_ready.load(Ordering::Acquire) {
            // First write: make sure the directory exists before anything
            // lands in it. `create_dir_all` is idempotent under races.
            if std::fs::create_dir_all(dir).is_err() {
                return false;
            }
            self.spill_ready.store(true, Ordering::Release);
        }
        let name = r.0.replace(':', "_");
        std::fs::write(dir.join(format!("{name}.bin")), data).is_ok()
    }

    /// Store a blob, returning its reference (idempotent).
    pub fn put(&self, data: Bytes) -> BlobRef {
        let r = BlobRef::from_hash(fnv64(&data));
        self.insert(r.clone(), data);
        r
    }

    /// Store `data` under `r` without hashing it. `r` must be the content
    /// hash of `data`: every reference in a store was computed by `put` or
    /// verified against its file by `open_spill_dir` or `get`.
    fn insert(&self, r: BlobRef, data: Bytes) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.blobs.get_mut(&r) {
            e.stamp = self.tick();
            return;
        }
        let durable = self.spill(&r, &data);
        inner.bytes += data.len();
        let stamp = self.tick();
        inner.blobs.insert(r, Entry { data, stamp, durable });
        self.enforce(&mut inner);
    }

    /// Fetch a blob. A memory miss in a spill-directory store falls back
    /// to the blob's `.bin` file (an LRU-evicted blob lives only there),
    /// verifies the content hash against the reference, and caches it
    /// back in memory.
    pub fn get(&self, r: &BlobRef) -> Option<Bytes> {
        {
            let mut inner = self.inner.lock();
            if let Some(e) = inner.blobs.get_mut(r) {
                e.stamp = self.tick();
                return Some(e.data.clone());
            }
        }
        let dir = self.spill_dir.as_ref()?;
        let path = dir.join(format!("{}.bin", r.0.replace(':', "_")));
        let data = Bytes::from(std::fs::read(path).ok()?);
        if BlobRef::from_hash(fnv64(&data)) != *r {
            return None; // tampered or torn spill file
        }
        self.reloads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if !inner.blobs.contains_key(r) {
            inner.bytes += data.len();
            let stamp = self.tick();
            inner.blobs.insert(r.clone(), Entry { data: data.clone(), stamp, durable: true });
            self.enforce(&mut inner);
        }
        Some(data)
    }

    /// References of every blob held in memory, in unspecified order.
    pub fn refs(&self) -> Vec<BlobRef> {
        self.inner.lock().blobs.keys().cloned().collect()
    }

    /// Snapshot of every in-memory (reference, bytes) pair, in
    /// unspecified order.
    pub fn entries(&self) -> Vec<(BlobRef, Bytes)> {
        self.inner.lock().blobs.iter().map(|(r, e)| (r.clone(), e.data.clone())).collect()
    }

    /// Copy every in-memory blob into `dst` under its existing reference
    /// (a content hash, so `dst` need not hash the bytes again); `dst`
    /// spills and evicts exactly as if the blobs had been `put`.
    pub fn merge_into(&self, dst: &BlobStore) {
        for (r, data) in self.entries() {
            dst.insert(r, data);
        }
    }

    /// Number of distinct blobs held in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().blobs.len()
    }

    /// True when no blobs are held in memory.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().blobs.is_empty()
    }

    /// Total bytes held in memory. `put` and `get` evict back down to the
    /// cap before returning, unless only blobs without a durable spill file
    /// are left to evict.
    pub fn total_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// The configured in-memory byte ceiling (`0` = unbounded).
    pub fn mem_cap(&self) -> usize {
        self.mem_cap
    }

    /// Blobs evicted from memory to their spill files so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Evicted blobs reloaded (hash-verified) from spill files so far.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = BlobStore::in_memory();
        let r = store.put(Bytes::from_static(b"plate image bytes"));
        assert_eq!(store.get(&r).unwrap(), Bytes::from_static(b"plate image bytes"));
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn identical_content_deduplicates() {
        let store = BlobStore::in_memory();
        let a = store.put(Bytes::from_static(b"same"));
        let b = store.put(Bytes::from_static(b"same"));
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        let c = store.put(Bytes::from_static(b"different"));
        assert_ne!(a, c);
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes(), 4 + 9);
    }

    #[test]
    fn missing_blob_is_none() {
        let store = BlobStore::in_memory();
        assert!(store.get(&BlobRef("blob:deadbeef".into())).is_none());
    }

    #[test]
    fn spill_dir_receives_files() {
        let dir = std::env::temp_dir().join(format!("sdl-blob-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = BlobStore::with_spill_dir(&dir);
        let r = store.put(Bytes::from_static(b"spilled"));
        let expect = dir.join(format!("{}.bin", r.0.replace(':', "_")));
        assert_eq!(std::fs::read(expect).unwrap(), b"spilled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_dir_is_created_on_first_write() {
        let dir = std::env::temp_dir()
            .join(format!("sdl-blob-missing-{}", std::process::id()))
            .join("deeper")
            .join("still");
        let _ = std::fs::remove_dir_all(&dir);
        let store = BlobStore::with_spill_dir(&dir);
        assert!(!dir.exists(), "directory must not be created before the first write");
        let r = store.put(Bytes::from_static(b"first write creates the dir"));
        let expect = dir.join(format!("{}.bin", r.0.replace(':', "_")));
        assert_eq!(std::fs::read(expect).unwrap(), b"first write creates the dir");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_roundtrip_reloads_blobs() {
        let dir = std::env::temp_dir().join(format!("sdl-blob-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (a, b) = {
            let store = BlobStore::with_spill_dir(&dir);
            (store.put(Bytes::from_static(b"plate A")), store.put(Bytes::from_static(b"plate B")))
        };
        // A fresh store opened on the same directory sees both blobs under
        // their original references.
        let reopened = BlobStore::open_spill_dir(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(&a).unwrap(), Bytes::from_static(b"plate A"));
        assert_eq!(reopened.get(&b).unwrap(), Bytes::from_static(b"plate B"));
        // Corrupted files are skipped rather than served under a bad ref.
        std::fs::write(dir.join(format!("{}.bin", a.0.replace(':', "_"))), b"tampered").unwrap();
        let reopened = BlobStore::open_spill_dir(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.get(&a).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_cap_evicts_lru_and_reloads_on_get() {
        let dir = std::env::temp_dir().join(format!("sdl-blob-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = BlobStore::with_spill_dir(&dir).with_mem_cap(24);
        let a = store.put(Bytes::from(vec![b'a'; 10]));
        let b = store.put(Bytes::from(vec![b'b'; 10]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes(), 20);
        store.get(&a).unwrap(); // touch a: b becomes least recently used
        let c = store.put(Bytes::from(vec![b'c'; 10])); // 30 > 24 → evict b
        assert!(store.total_bytes() <= 24, "memory must stay under the cap");
        assert_eq!(store.evictions(), 1);
        assert!(store.get(&a).is_some() || store.get(&c).is_some());
        // The evicted blob is served from (and verified against) its
        // spill file, then cached back under the same cap.
        assert_eq!(store.get(&b).unwrap(), Bytes::from(vec![b'b'; 10]));
        assert!(store.reloads() >= 1);
        assert!(store.total_bytes() <= 24, "reload must not break the cap");
        assert_eq!(store.mem_cap(), 24);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_cap_without_spill_dir_is_ignored() {
        let store = BlobStore::in_memory().with_mem_cap(4);
        let r = store.put(Bytes::from_static(b"bigger than four"));
        // Evicting here would lose the only copy, so the cap is inert.
        assert_eq!(store.get(&r).unwrap(), Bytes::from_static(b"bigger than four"));
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn mem_cap_never_evicts_a_blob_whose_spill_failed() {
        // A spill directory under a regular file can never be created, so
        // no `.bin` is written and the memory copy is the only one.
        let file = std::env::temp_dir().join(format!("sdl-blob-nodir-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let store = BlobStore::with_spill_dir(file.join("spill")).with_mem_cap(15);
        let a = store.put(Bytes::from(vec![b'a'; 10]));
        let b = store.put(Bytes::from(vec![b'b'; 10]));
        assert_eq!(store.evictions(), 0);
        assert_eq!(store.total_bytes(), 20, "over the cap rather than lossy");
        assert_eq!(store.get(&a).unwrap(), Bytes::from(vec![b'a'; 10]));
        assert_eq!(store.get(&b).unwrap(), Bytes::from(vec![b'b'; 10]));
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn merge_into_copies_blobs() {
        let dir = std::env::temp_dir().join(format!("sdl-blob-merge-{}", std::process::id()));
        let put_dir = dir.with_extension("put");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&put_dir);
        let src = BlobStore::in_memory();
        let dst = BlobStore::with_spill_dir(&dir);
        let a = src.put(Bytes::from_static(b"one"));
        let b = src.put(Bytes::from_static(b"two"));
        dst.put(Bytes::from_static(b"two")); // overlap dedupes
        src.merge_into(&dst);
        assert_eq!(dst.len(), 2);
        assert_eq!(dst.get(&a).unwrap(), Bytes::from_static(b"one"));
        assert_eq!(dst.get(&b).unwrap(), Bytes::from_static(b"two"));
        let mut refs = dst.refs();
        refs.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(refs.len(), 2);
        assert_eq!(dst.entries().len(), 2);
        // The merged spill files are exactly the ones `put` writes.
        let put_store = BlobStore::with_spill_dir(&put_dir);
        put_store.put(Bytes::from_static(b"one"));
        put_store.put(Bytes::from_static(b"two"));
        let files = |d: &std::path::Path| {
            let mut v: Vec<(String, Vec<u8>)> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&path).unwrap())
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(files(&dir), files(&put_dir));
        assert_eq!(files(&dir).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&put_dir);
    }

    #[test]
    fn display_format() {
        let r = BlobRef::from_hash(0xabcd);
        assert_eq!(r.to_string(), "blob:000000000000abcd");
    }
}
