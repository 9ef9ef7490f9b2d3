//! Fixed-capacity buffer pool with clock (second-chance) eviction.
//!
//! Frames hold validated full pages as `Arc<Vec<u8>>`. A pin is simply an
//! outstanding `Arc` clone: a frame whose strong count is above one is in
//! use by a cursor or executor and cannot be evicted, and dropping the
//! `Arc` is the unpin — there is no manual pin/unpin bookkeeping to get
//! wrong. The clock hand sweeps frames, clearing reference bits and
//! skipping pinned frames; a frame that is unreferenced, unpinned and
//! clean is recycled, and a dirty one is written back (checksum
//! recomputed) first.
//!
//! All state sits behind one `Mutex`; hit/miss/eviction counters are
//! atomics so concurrent readers observe stats without the lock. This is
//! deliberately simple — the serving and training paths share a pool per
//! open database, and the lock covers microsecond-scale work (a hash
//! lookup on hits, one 8 KiB read on misses).

use crate::pager::{crc32, verify_page, Pager, StorageError, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Minimum number of frames: one being filled plus one pinned.
pub const MIN_FRAMES: usize = 2;

struct Frame {
    page_no: u32,
    buf: Arc<Vec<u8>>,
    referenced: bool,
    dirty: bool,
}

struct PoolInner {
    pager: Pager,
    frames: Vec<Frame>,
    /// page_no → frame index.
    map: HashMap<u32, usize>,
    hand: usize,
    capacity: usize,
}

/// Cumulative pool counters (monotonic).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub write_backs: u64,
}

impl PoolStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A clock-eviction buffer pool over one [`Pager`].
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    write_backs: AtomicU64,
}

impl BufferPool {
    /// Takes ownership of the pager; `frames` is the fixed frame budget
    /// (clamped to [`MIN_FRAMES`]).
    pub fn new(pager: Pager, frames: usize) -> BufferPool {
        BufferPool {
            inner: Mutex::new(PoolInner {
                pager,
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
                capacity: frames.max(MIN_FRAMES),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            write_backs: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().capacity
    }

    pub fn page_count(&self) -> u32 {
        self.inner.lock().unwrap().pager.page_count()
    }

    /// Fetches a page, validating its checksum on fill. The returned
    /// `Arc` pins the frame until dropped.
    pub fn get(&self, page_no: u32) -> Result<Arc<Vec<u8>>, StorageError> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(&idx) = inner.map.get(&page_no) {
            inner.frames[idx].referenced = true;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(inner.frames[idx].buf.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let buf = inner.pager.read_page(page_no)?;
        verify_page(page_no, &buf)?;
        let buf = Arc::new(buf);
        self.install(&mut inner, page_no, buf.clone(), false)?;
        Ok(buf)
    }

    /// Mutates a page in place through the pool: loads the frame, applies
    /// `f` to the full page buffer, recomputes the checksum and marks the
    /// frame dirty. Fails if the frame is pinned elsewhere (a mutation
    /// under a live reader would tear its snapshot).
    pub fn with_page_mut<F: FnOnce(&mut [u8])>(
        &self,
        page_no: u32,
        f: F,
    ) -> Result<(), StorageError> {
        let mut inner = self.inner.lock().unwrap();
        let idx = match inner.map.get(&page_no) {
            Some(&idx) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                idx
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let buf = inner.pager.read_page(page_no)?;
                verify_page(page_no, &buf)?;
                self.install(&mut inner, page_no, Arc::new(buf), false)?
            }
        };
        let frame = &mut inner.frames[idx];
        let buf = Arc::get_mut(&mut frame.buf).ok_or_else(|| {
            StorageError::Corrupt(format!("page {page_no} is pinned; cannot mutate"))
        })?;
        f(buf);
        let crc = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_le_bytes());
        frame.dirty = true;
        frame.referenced = true;
        Ok(())
    }

    /// Writes every dirty frame back to disk and syncs the file.
    pub fn flush(&self) -> Result<(), StorageError> {
        let mut inner = self.inner.lock().unwrap();
        for i in 0..inner.frames.len() {
            if inner.frames[i].dirty {
                let (no, buf) = {
                    let f = &inner.frames[i];
                    (f.page_no, f.buf.clone())
                };
                inner.pager.write_page_raw(no, &buf)?;
                inner.frames[i].dirty = false;
                self.write_backs.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.pager.sync()
    }

    /// Number of frames currently pinned by outstanding `Arc`s.
    pub fn pinned(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner
            .frames
            .iter()
            .filter(|f| Arc::strong_count(&f.buf) > 1)
            .count()
    }

    /// Frames currently resident.
    pub fn resident(&self) -> usize {
        self.inner.lock().unwrap().frames.len()
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            write_backs: self.write_backs.load(Ordering::Relaxed),
        }
    }

    /// Places a filled frame, evicting via the clock if at capacity.
    /// Returns the frame index used.
    fn install(
        &self,
        inner: &mut PoolInner,
        page_no: u32,
        buf: Arc<Vec<u8>>,
        dirty: bool,
    ) -> Result<usize, StorageError> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        if inner.frames.len() < inner.capacity {
            let idx = inner.frames.len();
            inner.frames.push(Frame {
                page_no,
                buf,
                referenced: true,
                dirty,
            });
            inner.map.insert(page_no, idx);
            return Ok(idx);
        }
        let idx = self.find_victim(inner)?;
        let old = &inner.frames[idx];
        if old.dirty {
            let (no, old_buf) = (old.page_no, old.buf.clone());
            inner.pager.write_page_raw(no, &old_buf)?;
            self.write_backs.fetch_add(1, Ordering::Relaxed);
        }
        let old_no = inner.frames[idx].page_no;
        inner.map.remove(&old_no);
        inner.frames[idx] = Frame {
            page_no,
            buf,
            referenced: true,
            dirty,
        };
        inner.map.insert(page_no, idx);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(idx)
    }

    /// Clock sweep: clear reference bits, skip pinned frames, pick the
    /// first unreferenced unpinned frame. Two full sweeps guarantee a
    /// victim unless every frame is pinned.
    fn find_victim(&self, inner: &mut PoolInner) -> Result<usize, StorageError> {
        let n = inner.frames.len();
        for _ in 0..2 * n {
            let i = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            let frame = &mut inner.frames[i];
            if Arc::strong_count(&frame.buf) > 1 {
                continue; // pinned
            }
            if frame.referenced {
                frame.referenced = false;
                continue; // second chance
            }
            return Ok(i);
        }
        Err(StorageError::Corrupt(
            "buffer pool exhausted: every frame is pinned".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PageType;
    use std::path::PathBuf;

    fn temp_db(tag: &str, pages: usize) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("sqlgen-bufpool-{tag}-{}.db", std::process::id()));
        let mut pager = Pager::create(&path).unwrap();
        for i in 0..pages {
            pager
                .append_page(PageType::Heap, format!("payload-{i}").as_bytes())
                .unwrap();
        }
        pager.write_header(0, 0).unwrap();
        pager.sync().unwrap();
        path
    }

    fn payload_str(buf: &[u8]) -> &str {
        let len = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        std::str::from_utf8(&buf[12..12 + len]).unwrap()
    }

    #[test]
    fn hits_misses_and_eviction_cycle() {
        let path = temp_db("evict", 8);
        let (pager, _) = Pager::open(&path).unwrap();
        let pool = BufferPool::new(pager, 2);
        // Touch pages 1..=8 with only 2 frames: all misses, evictions kick in.
        for i in 1..=8u32 {
            let buf = pool.get(i).unwrap();
            assert_eq!(payload_str(&buf), format!("payload-{}", i - 1));
        }
        let s = pool.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.evictions, 6);
        // Re-read the resident page: a hit.
        let resident = pool.get(8).unwrap();
        assert_eq!(pool.stats().hits, 1);
        drop(resident);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_frames_survive_eviction_pressure() {
        let path = temp_db("pin", 8);
        let (pager, _) = Pager::open(&path).unwrap();
        let pool = BufferPool::new(pager, 2);
        let pinned = pool.get(1).unwrap(); // hold the Arc: frame is pinned
        for i in 2..=8u32 {
            pool.get(i).unwrap();
        }
        // The pinned page must still be resident and byte-identical.
        assert_eq!(payload_str(&pinned), "payload-0");
        assert_eq!(pool.pinned(), 1);
        let again = pool.get(1).unwrap();
        assert!(
            Arc::ptr_eq(&pinned, &again),
            "pinned frame was not recycled"
        );
        drop((pinned, again));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_pinned_pool_reports_exhaustion() {
        let path = temp_db("full", 8);
        let (pager, _) = Pager::open(&path).unwrap();
        let pool = BufferPool::new(pager, 2);
        let _a = pool.get(1).unwrap();
        let _b = pool.get(2).unwrap();
        assert!(pool.get(3).is_err());
        drop((_a, _b));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dirty_pages_write_back_on_eviction_and_flush() {
        let path = temp_db("dirty", 8);
        {
            let (pager, _) = Pager::open(&path).unwrap();
            let pool = BufferPool::new(pager, 2);
            pool.with_page_mut(1, |page| {
                page[12..17].copy_from_slice(b"MUTAT");
            })
            .unwrap();
            // Force eviction of the dirty frame.
            for i in 2..=5u32 {
                pool.get(i).unwrap();
            }
            assert!(pool.stats().write_backs >= 1);
            pool.with_page_mut(2, |page| {
                page[12..17].copy_from_slice(b"FLUSH");
            })
            .unwrap();
            pool.flush().unwrap();
        }
        // Reopen: both mutations persisted with valid checksums.
        let (mut pager, _) = Pager::open(&path).unwrap();
        let p1 = pager.read_page_checked(1).unwrap();
        assert_eq!(&p1[12..17], b"MUTAT");
        let p2 = pager.read_page_checked(2).unwrap();
        assert_eq!(&p2[12..17], b"FLUSH");
        std::fs::remove_file(&path).ok();
    }
}
