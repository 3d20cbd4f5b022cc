//! Buffer pool over a simulated disk.
//!
//! The paper's substrate is a conventional page-based storage engine; we
//! simulate the disk as an in-memory map and put a real buffer manager in
//! front of it: fixed number of frames, pin/unpin, LRU eviction of
//! unpinned frames, dirty write-back, and per-page latches
//! ([`parking_lot::RwLock`]) for physical consistency of concurrent
//! executors. Statistics feed the FIG1/B-series experiments.

use crate::page::{Page, PageId, DEFAULT_PAGE_SIZE};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long [`BufferPool::install`] waits for a frame to become evictable
/// before giving up with [`PoolError::NoEvictableFrame`]. Transient
/// all-pinned states (every frame latched by an in-flight traversal)
/// resolve in microseconds; a persistent one is a real capacity bug.
const EVICT_WAIT: Duration = Duration::from_millis(100);

/// Counters exposed by the pool; all monotone.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Page requests satisfied from a resident frame.
    pub hits: AtomicU64,
    /// Page requests that had to load from the disk sim.
    pub misses: AtomicU64,
    /// Frames evicted to make room.
    pub evictions: AtomicU64,
    /// Dirty pages written back to the disk sim.
    pub writebacks: AtomicU64,
    /// Pages created.
    pub allocations: AtomicU64,
}

impl PoolStats {
    /// Snapshot as plain numbers `(hits, misses, evictions, writebacks,
    /// allocations)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            self.writebacks.load(Ordering::Relaxed),
            self.allocations.load(Ordering::Relaxed),
        )
    }
}

/// Errors raised by the buffer pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The page was never allocated.
    UnknownPage(PageId),
    /// All frames are pinned; nothing can be evicted.
    NoEvictableFrame,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnknownPage(p) => write!(f, "unknown page {p}"),
            PoolError::NoEvictableFrame => write!(f, "all frames pinned"),
        }
    }
}

impl std::error::Error for PoolError {}

struct Frame {
    page: RwLock<Page>,
    pins: AtomicU64,
    dirty: AtomicU64, // 0/1; u64 to share the atomic module
    /// LRU clock value of the last unpinned use.
    last_used: AtomicU64,
    /// Pool-LSN stamped at the most recent dirtying write. Eviction of a
    /// dirty frame is refused while `lsn` is above the durable watermark:
    /// writing such a page to the disk sim would persist effects whose
    /// log records may not be durable yet (evict-before-flush).
    lsn: AtomicU64,
}

struct Inner {
    /// Simulated disk.
    disk: Mutex<HashMap<PageId, Vec<u8>>>,
    /// Resident frames.
    frames: Mutex<HashMap<PageId, Arc<Frame>>>,
    capacity: usize,
    page_size: usize,
    clock: AtomicU64,
    next_page: AtomicU64,
    /// Monotone counter stamped onto frames at each dirtying write.
    lsn_clock: AtomicU64,
    /// Highest pool-LSN known durable. `u64::MAX` means eviction is
    /// ungated (no WAL in front of the pool); [`BufferPool::gate_evictions`]
    /// lowers it to 0 and [`BufferPool::advance_durable_floor`] raises it.
    durable_floor: AtomicU64,
    /// Simulated device latency applied to fetch misses, in nanoseconds.
    io_latency_ns: AtomicU64,
    stats: PoolStats,
}

/// A buffer pool of `capacity` frames over a simulated disk. Cloneable
/// shared handle.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Inner>,
}

/// RAII pin on a page frame. Read/write the page through
/// [`PinnedPage::read`] / [`PinnedPage::write`]; the pin is released on
/// drop, making the frame evictable again.
pub struct PinnedPage {
    pool: BufferPool,
    id: PageId,
    frame: Arc<Frame>,
}

impl std::fmt::Debug for PinnedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedPage").field("id", &self.id).finish()
    }
}

impl BufferPool {
    /// A pool with `capacity` frames of `page_size` bytes.
    pub fn new(capacity: usize, page_size: usize) -> Self {
        assert!(capacity > 0, "pool needs at least one frame");
        BufferPool {
            inner: Arc::new(Inner {
                disk: Mutex::new(HashMap::new()),
                frames: Mutex::new(HashMap::new()),
                capacity,
                page_size,
                clock: AtomicU64::new(0),
                next_page: AtomicU64::new(0),
                lsn_clock: AtomicU64::new(0),
                durable_floor: AtomicU64::new(u64::MAX),
                io_latency_ns: AtomicU64::new(0),
                stats: PoolStats::default(),
            }),
        }
    }

    /// A pool with the default page size.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(capacity, DEFAULT_PAGE_SIZE)
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// Pool statistics.
    pub fn stats(&self) -> &PoolStats {
        &self.inner.stats
    }

    /// Number of currently resident frames.
    pub fn resident(&self) -> usize {
        self.inner.frames.lock().len()
    }

    /// Whether `id` currently occupies a frame.
    pub fn is_resident(&self, id: PageId) -> bool {
        self.inner.frames.lock().contains_key(&id)
    }

    /// Simulated device latency applied to every fetch miss (the sleep
    /// happens outside all pool locks, so concurrent misses overlap).
    pub fn set_io_latency(&self, latency: Duration) {
        self.inner
            .io_latency_ns
            .store(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The pool-LSN of the most recent dirtying write.
    pub fn current_lsn(&self) -> u64 {
        self.inner.lsn_clock.load(Ordering::Acquire)
    }

    /// Start gating eviction on the durable watermark: until
    /// [`advance_durable_floor`](Self::advance_durable_floor) says
    /// otherwise, **no** dirty frame may be written back by eviction.
    /// Pools without a WAL in front of them never call this and keep the
    /// ungated behavior.
    pub fn gate_evictions(&self) {
        self.inner.durable_floor.store(0, Ordering::Release);
    }

    /// Declare every page write with pool-LSN `<= lsn` durable (its log
    /// records have been forced), unlocking those frames for eviction.
    /// Monotone: a lower value than the current floor is ignored.
    pub fn advance_durable_floor(&self, lsn: u64) {
        // fetch_max would treat the ungated u64::MAX floor as the max;
        // only advance when gated.
        let cur = self.inner.durable_floor.load(Ordering::Acquire);
        if cur != u64::MAX {
            self.inner.durable_floor.fetch_max(lsn, Ordering::AcqRel);
        }
    }

    /// Allocate a fresh page (resident and pinned).
    pub fn allocate(&self) -> Result<PinnedPage, PoolError> {
        let id = PageId(self.inner.next_page.fetch_add(1, Ordering::Relaxed) as u32);
        self.inner.stats.allocations.fetch_add(1, Ordering::Relaxed);
        // register on disk so UnknownPage never fires for allocated pages
        self.inner
            .disk
            .lock()
            .insert(id, Page::new(self.inner.page_size).as_bytes().to_vec());
        let frame = self.install(id, Page::new(self.inner.page_size))?;
        Ok(self.pin_frame(id, frame))
    }

    /// Fetch and pin `id`, loading from the disk sim on a miss.
    pub fn fetch(&self, id: PageId) -> Result<PinnedPage, PoolError> {
        if let Some(frame) = self.inner.frames.lock().get(&id).cloned() {
            self.inner.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(self.pin_frame(id, frame));
        }
        self.inner.stats.misses.fetch_add(1, Ordering::Relaxed);
        let bytes = self
            .inner
            .disk
            .lock()
            .get(&id)
            .cloned()
            .ok_or(PoolError::UnknownPage(id))?;
        let latency = self.inner.io_latency_ns.load(Ordering::Relaxed);
        if latency > 0 {
            // Simulated device read, outside every pool lock: concurrent
            // misses overlap their waits like a real disk queue would.
            std::thread::sleep(Duration::from_nanos(latency));
        }
        let frame = self.install(id, Page::from_bytes(bytes))?;
        Ok(self.pin_frame(id, frame))
    }

    /// Snapshot the simulated disk as it is **now** — resident dirty pages
    /// are NOT included (that is the point: a crash loses the buffer
    /// pool). The evict-before-flush test reads media state through it.
    pub fn disk_snapshot(&self) -> HashMap<PageId, Vec<u8>> {
        self.inner.disk.lock().clone()
    }

    fn pin_frame(&self, id: PageId, frame: Arc<Frame>) -> PinnedPage {
        frame.pins.fetch_add(1, Ordering::AcqRel);
        PinnedPage {
            pool: self.clone(),
            id,
            frame,
        }
    }

    /// Install a page into a frame, evicting an unpinned LRU victim if the
    /// pool is full. A frame is a victim candidate only if it is unpinned
    /// AND (clean OR its last write is at or below the durable watermark):
    /// eviction writes dirty victims back to the disk sim, and a write-back
    /// ahead of the WAL durable point would be an evict-before-flush bug.
    /// Transient all-pinned/all-gated states are waited out briefly before
    /// reporting [`PoolError::NoEvictableFrame`].
    fn install(&self, id: PageId, page: Page) -> Result<Arc<Frame>, PoolError> {
        let deadline = std::time::Instant::now() + EVICT_WAIT;
        let mut page = Some(page);
        loop {
            let mut frames = self.inner.frames.lock();
            if let Some(existing) = frames.get(&id) {
                return Ok(existing.clone());
            }
            if frames.len() >= self.inner.capacity {
                let floor = self.inner.durable_floor.load(Ordering::Acquire);
                let victim = frames
                    .iter()
                    .filter(|(_, f)| {
                        f.pins.load(Ordering::Acquire) == 0
                            && (f.dirty.load(Ordering::Acquire) == 0
                                || f.lsn.load(Ordering::Acquire) <= floor)
                    })
                    .min_by_key(|(_, f)| f.last_used.load(Ordering::Acquire))
                    .map(|(vid, _)| *vid);
                let victim = match victim {
                    Some(v) => v,
                    None if std::time::Instant::now() < deadline => {
                        drop(frames);
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    None => return Err(PoolError::NoEvictableFrame),
                };
                let frame = frames.remove(&victim).expect("victim resident");
                if frame.dirty.load(Ordering::Acquire) == 1 {
                    self.inner
                        .disk
                        .lock()
                        .insert(victim, frame.page.read().as_bytes().to_vec());
                    self.inner.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                }
                self.inner.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            let frame = Arc::new(Frame {
                page: RwLock::new(page.take().expect("page installed at most once")),
                pins: AtomicU64::new(0),
                dirty: AtomicU64::new(0),
                last_used: AtomicU64::new(self.inner.clock.fetch_add(1, Ordering::Relaxed)),
                lsn: AtomicU64::new(0),
            });
            frames.insert(id, frame.clone());
            return Ok(frame);
        }
    }
}

impl PinnedPage {
    /// This page's id.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Read the page under a shared latch.
    pub fn read<R>(&self, f: impl FnOnce(&Page) -> R) -> R {
        f(&self.frame.page.read())
    }

    /// Mutate the page under an exclusive latch; marks the frame dirty and
    /// stamps it with a fresh pool-LSN for the durable-watermark gate.
    pub fn write<R>(&self, f: impl FnOnce(&mut Page) -> R) -> R {
        let r = f(&mut self.frame.page.write());
        self.frame.dirty.store(1, Ordering::Release);
        self.frame.lsn.store(
            self.pool.inner.lsn_clock.fetch_add(1, Ordering::AcqRel) + 1,
            Ordering::Release,
        );
        r
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.frame.last_used.store(
            self.pool.inner.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Release,
        );
        self.frame.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_fetch() {
        let pool = BufferPool::new(4, 256);
        let id = {
            let p = pool.allocate().unwrap();
            p.write(|pg| pg.insert(b"data").unwrap());
            p.id()
        };
        let p = pool.fetch(id).unwrap();
        assert_eq!(p.read(|pg| pg.read(0).unwrap().to_vec()), b"data");
    }

    #[test]
    fn unknown_page_rejected() {
        let pool = BufferPool::new(2, 256);
        assert_eq!(
            pool.fetch(PageId(99)).unwrap_err(),
            PoolError::UnknownPage(PageId(99))
        );
    }

    #[test]
    fn eviction_and_writeback_preserve_data() {
        let pool = BufferPool::new(2, 256);
        let mut ids = Vec::new();
        for i in 0..5u8 {
            let p = pool.allocate().unwrap();
            p.write(|pg| pg.insert(&[i]).unwrap());
            ids.push(p.id());
        }
        assert!(pool.resident() <= 2);
        let (_, _, evictions, writebacks, allocations) = pool.stats().snapshot();
        assert_eq!(allocations, 5);
        assert!(evictions >= 3);
        assert!(writebacks >= 3);
        // all data survives eviction round trips
        for (i, id) in ids.iter().enumerate() {
            let p = pool.fetch(*id).unwrap();
            assert_eq!(p.read(|pg| pg.read(0).unwrap().to_vec()), vec![i as u8]);
        }
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let pool = BufferPool::new(2, 256);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        // both pinned: allocating a third must fail
        assert_eq!(pool.allocate().unwrap_err(), PoolError::NoEvictableFrame);
        drop(a);
        // now one frame is evictable
        let c = pool.allocate().unwrap();
        drop(b);
        drop(c);
    }

    #[test]
    fn hits_and_misses_counted() {
        let pool = BufferPool::new(2, 256);
        let id = pool.allocate().unwrap().id();
        let _ = pool.fetch(id).unwrap(); // hit
        let id2 = pool.allocate().unwrap().id();
        let _ = pool.allocate().unwrap().id(); // evicts id or id2
        let _ = pool.fetch(id).unwrap();
        let _ = pool.fetch(id2).unwrap();
        let (hits, misses, _, _, _) = pool.stats().snapshot();
        assert!(hits >= 1);
        assert!(misses >= 1);
    }

    #[test]
    fn eviction_respects_durable_watermark() {
        let pool = BufferPool::new(2, 256);
        pool.gate_evictions();
        // Dirty a page; its pool-LSN (1) is above the floor (0), so its
        // effects are not yet covered by durable log records.
        let a_id = {
            let a = pool.allocate().unwrap();
            a.write(|pg| pg.insert(b"undurable").unwrap());
            a.id()
        };
        let b_id = {
            let b = pool.allocate().unwrap();
            b.id()
        };
        // Pool full. Eviction must pick the clean page, never write back
        // the dirty one ahead of the watermark.
        let c = pool.allocate().unwrap();
        let c_id = c.id();
        drop(c);
        assert!(pool.is_resident(a_id), "gated dirty page was evicted");
        assert!(!pool.is_resident(b_id));
        assert!(
            !pool.disk_snapshot()[&a_id]
                .windows(9)
                .any(|w| w == b"undurable"),
            "evict-before-flush: undurable bytes reached the disk sim"
        );
        // Next eviction again skips the gated page.
        let d = pool.allocate().unwrap();
        assert!(pool.is_resident(a_id), "gated dirty page was evicted");
        assert!(!pool.is_resident(c_id));
        // Once the watermark covers the write, the page becomes a normal
        // eviction victim and its data survives the round trip.
        pool.advance_durable_floor(pool.current_lsn());
        let e = pool.allocate().unwrap();
        assert!(!pool.is_resident(a_id), "durable dirty page should evict");
        drop(d);
        drop(e);
        let p = pool.fetch(a_id).unwrap();
        assert_eq!(p.read(|pg| pg.read(0).unwrap().to_vec()), b"undurable");
    }

    #[test]
    fn ungated_pool_keeps_legacy_eviction() {
        // No WAL in front: dirty pages evict freely (floor = u64::MAX).
        let pool = BufferPool::new(2, 256);
        for i in 0..4u8 {
            let p = pool.allocate().unwrap();
            p.write(|pg| pg.insert(&[i]).unwrap());
        }
        let (_, _, evictions, writebacks, _) = pool.stats().snapshot();
        assert!(evictions >= 2);
        assert!(writebacks >= 2);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let pool = BufferPool::new(8, 256);
        let id = pool.allocate().unwrap().id();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let p = pool.fetch(id).unwrap();
                        p.write(|pg| {
                            pg.insert(&[i]).ok();
                        });
                        let _ = p.read(|pg| pg.live_records());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let p = pool.fetch(id).unwrap();
        assert!(p.read(|pg| pg.live_records()) > 0);
    }
}
