//! The buffer pool: one frame table whose guard *is* the latch.
//!
//! A fixed number of frames over a simulated disk. A frame is one
//! [`RwLock`] around `{ id, page, lsn }`; [`PageShared`] / [`PageExclusive`]
//! are its read / write guards, so one acquisition is the latch, the pin
//! and the residency check at once. Eviction claims its victim with
//! `try_write`, which fails while any guard exists: *latched ⇒
//! unevictable* without a pin count. A hit loads the page table (a
//! [`Chunked`] array, ids are dense) and writes the frame's own cache line
//! — lock word, hit count — and no other. DESIGN.md §7 has the protocol.
//!
//! **Lock order:** frame guards (blocking) → clock mutex → frame
//! `try_write` → disk mutex. Nothing blocks on a frame while holding the
//! clock mutex, so a child may be faulted in under its parent's guard.

use crate::chunked::Chunked;
use crate::page::{Page, PageId};
use parking_lot::{Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a miss waits for an evictable frame. Transient all-latched
/// states resolve in microseconds; a persistent one is a capacity bug.
const EVICT_WAIT: Duration = Duration::from_millis(100);

/// The pool's counters at one instant; all monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests satisfied from a resident frame.
    pub hits: u64,
    /// Page requests that had to load from the disk sim.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back to the disk sim.
    pub writebacks: u64,
    /// Pages created.
    pub allocations: u64,
    /// Latch acquisitions that found a conflicting holder and blocked.
    pub latch_waits: u64,
}

impl PoolStats {
    /// `(hits, misses, evictions, writebacks, allocations)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        let s = self;
        (s.hits, s.misses, s.evictions, s.writebacks, s.allocations)
    }
}

/// Errors raised by the buffer pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The page was never allocated.
    UnknownPage(PageId),
    /// Every frame is latched or holds writes the log has not made
    /// durable; nothing can be evicted.
    NoEvictableFrame,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnknownPage(p) => write!(f, "unknown page {p}"),
            PoolError::NoEvictableFrame => write!(f, "all frames latched or gated"),
        }
    }
}

impl std::error::Error for PoolError {}

/// What a frame's lock protects.
struct Slot {
    /// The page this frame holds; `None` until its first use.
    id: Option<PageId>,
    page: Page,
    /// Pool-LSN of the most recent dirtying write, 0 while clean. Above
    /// the durable watermark the frame is not evictable: its write-back
    /// would persist effects whose log records may not be durable yet.
    lsn: u64,
}

/// One frame, on cache lines of its own: what a hit writes (the lock
/// word, `hits`) is written by visitors of this page only.
#[repr(align(64))]
struct Frame {
    slot: RwLock<Slot>,
    hits: AtomicU64,
    /// CLOCK reference bit: set by a visit, cleared by the passing hand.
    referenced: AtomicBool,
}

impl Frame {
    fn empty() -> Self {
        // no page image yet: nothing is allocated until the first load
        let (id, page) = (None, Page::from_bytes(Vec::new()));
        Frame {
            slot: RwLock::new(Slot { id, page, lsn: 0 }),
            hits: AtomicU64::new(0),
            referenced: AtomicBool::new(false),
        }
    }
}

type Latched<'a> = RwLockWriteGuard<'a, Slot>;

#[derive(Default)]
struct Inner {
    capacity: u32,
    page_size: usize,
    /// Page id → frame index + 1; 0 while the page is not resident.
    /// Written under the clock mutex and the frame's write lock.
    table: Chunked<AtomicU32>,
    frames: Chunked<Frame>,
    /// The CLOCK hand; holding it serializes claiming and publishing.
    clock: Mutex<u32>,
    /// Signalled, under `clock`, when a frame may have become evictable.
    evictable: Condvar,
    /// Misses asleep on `evictable`, or about to be.
    waiters: AtomicUsize,
    resident: AtomicUsize,
    /// Simulated disk. A page that was never written back is absent.
    disk: Mutex<HashMap<PageId, Vec<u8>>>,
    next_page: AtomicU32,
    /// Monotone counter stamped onto frames at each dirtying write.
    lsn_clock: AtomicU64,
    /// Highest pool-LSN known durable; `u64::MAX` while ungated.
    durable_floor: AtomicU64,
    io_latency_ns: AtomicU64,
    // off the hit path: bumped by misses and blocked latches only
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    allocations: AtomicU64,
    latch_waits: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl Inner {
    /// The frame the table names for `id` — which may have been reused
    /// since: the caller re-checks `Slot::id` under the frame's lock.
    fn frame_of(&self, id: PageId) -> Option<&Frame> {
        let entry = self.table.get(u64::from(id.0))?.load(Ordering::Acquire);
        self.frames.get(u64::from(entry.checked_sub(1)?))
    }

    /// Latch `id` with `try_latch`, else — counted — with `latch`; if it
    /// is not resident, load it and make the loader's guard a `G`.
    fn latch<'a, G: Deref<Target = Slot>>(
        &'a self,
        id: PageId,
        try_latch: impl Fn(&'a RwLock<Slot>) -> Option<G>,
        latch: impl Fn(&'a RwLock<Slot>) -> G,
        loaded: impl Fn(Latched<'a>) -> G,
    ) -> Result<G, PoolError> {
        loop {
            if let Some(frame) = self.frame_of(id) {
                let slot = try_latch(&frame.slot).unwrap_or_else(|| {
                    bump(&self.latch_waits);
                    latch(&frame.slot)
                });
                if slot.id == Some(id) {
                    frame.hits.fetch_add(1, Ordering::Relaxed);
                    // load first: readers of a hot page keep the bit shared
                    if !frame.referenced.load(Ordering::Relaxed) {
                        frame.referenced.store(true, Ordering::Relaxed);
                    }
                    return Ok(slot);
                }
            } else if id.0 >= self.next_page.load(Ordering::Acquire) {
                return Err(PoolError::UnknownPage(id));
            } else if let Some(slot) = self.install(id, false)? {
                return Ok(loaded(slot));
            }
        }
    }

    /// Wake the misses waiting for a frame, if any. The load follows the
    /// caller's unlock (or watermark store) and a waiter registers before
    /// the sweep that found everything held, so one sees the other; were
    /// they reordered, the waiter still sweeps again at its deadline.
    fn wake_evictor(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _clock = self.clock.lock();
            self.evictable.notify_all();
        }
    }

    /// Advance the hand to the first frame that is neither referenced,
    /// latched nor gated, and return it write-locked.
    fn sweep(&self, hand: &mut u32) -> Option<(u32, Latched<'_>)> {
        let floor = self.durable_floor.load(Ordering::Acquire);
        // two turns: the first may only have cleared reference bits
        for _ in 0..2 * u64::from(self.capacity) {
            let index = *hand;
            *hand = (index + 1) % self.capacity;
            let frame = self.frames.get_or_alloc(u64::from(index), Frame::empty);
            if frame.referenced.load(Ordering::Relaxed) {
                frame.referenced.store(false, Ordering::Relaxed);
                continue;
            }
            match frame.slot.try_write() {
                Some(slot) if slot.lsn <= floor => return Some((index, slot)),
                _ => {}
            }
        }
        None
    }

    /// Claim a frame for `id`, publish it and fill it — blank if `fresh`,
    /// else from the disk sim. `None`: `id` is resident, another fetcher
    /// published it first.
    fn install(&self, id: PageId, fresh: bool) -> Result<Option<Latched<'_>>, PoolError> {
        let mut hand = self.clock.lock();
        let deadline = Instant::now() + EVICT_WAIT;
        let mut waiting = false;
        let claimed = loop {
            // checked again after every wait: the mutex was released
            if self.frame_of(id).is_some() {
                break Ok(None);
            }
            if let Some(found) = self.sweep(&mut hand) {
                break Ok(Some(found));
            }
            match deadline.checked_duration_since(Instant::now()) {
                // register, then sweep once more: a guard dropped before
                // this line signalled nobody
                _ if !waiting => {
                    self.waiters.fetch_add(1, Ordering::SeqCst);
                    waiting = true;
                }
                Some(left) if !left.is_zero() => {
                    self.evictable.wait_for(&mut hand, left);
                }
                _ => break Err(PoolError::NoEvictableFrame),
            }
        };
        if waiting {
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
        let Some((index, mut slot)) = claimed? else {
            return Ok(None);
        };
        // under the victim's lock *and* the clock mutex: nobody can fault
        // the victim back in before its write-back reached the disk
        if let Some(victim) = slot.id.replace(id) {
            if slot.lsn > 0 {
                let image = slot.page.as_bytes().to_vec();
                self.disk.lock().insert(victim, image);
                bump(&self.writebacks);
            }
            if let Some(entry) = self.table.get(u64::from(victim.0)) {
                entry.store(0, Ordering::Release);
            }
            bump(&self.evictions);
        } else {
            self.resident.fetch_add(1, Ordering::Relaxed);
        }
        slot.lsn = 0;
        let entry = self.table.get_or_alloc(u64::from(id.0), AtomicU32::default);
        entry.store(index + 1, Ordering::Release);
        drop(hand);
        // the device read holds only this frame: misses on different pages
        // overlap, a second fetcher of this one waits here and not on the pool
        let mut image = None;
        if !fresh {
            bump(&self.misses);
            image = self.disk.lock().get(&id).cloned();
            let latency = self.io_latency_ns.load(Ordering::Relaxed);
            if latency > 0 {
                std::thread::sleep(Duration::from_nanos(latency));
            }
        }
        // never written back (or new): the blank page
        slot.page = image.map_or_else(|| Page::new(self.page_size), Page::from_bytes);
        Ok(Some(slot))
    }
}

/// The pool as a guard sees it. Declared *after* the lock guard in both
/// guards, so its drop — signalling a waiting miss — finds the frame free.
struct Release<'a>(&'a Inner);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.wake_evictor();
    }
}

/// A buffer pool of `capacity` frames over a simulated disk. Cloneable
/// shared handle.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Inner>,
}

impl BufferPool {
    /// A pool of `capacity` frames of `page_size` bytes. Frames and table
    /// chunks are allocated on first use, not here.
    pub fn new(capacity: usize, page_size: usize) -> Self {
        assert!(capacity > 0, "pool needs at least one frame");
        let inner = Inner {
            capacity: u32::try_from(capacity).expect("frame indices are u32"),
            page_size,
            durable_floor: AtomicU64::new(u64::MAX),
            ..Inner::default()
        };
        let inner = Arc::new(inner);
        BufferPool { inner }
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// The counters now. Hit counts live in the frames, so this is a
    /// pass over every allocated one: not for a hot loop.
    pub fn stats(&self) -> PoolStats {
        let pool = &*self.inner;
        let hits = pool.frames.iter().map(|f| f.hits.load(Ordering::Relaxed));
        PoolStats {
            hits: hits.sum(),
            misses: pool.misses.load(Ordering::Relaxed),
            evictions: pool.evictions.load(Ordering::Relaxed),
            writebacks: pool.writebacks.load(Ordering::Relaxed),
            allocations: pool.allocations.load(Ordering::Relaxed),
            latch_waits: pool.latch_waits.load(Ordering::Relaxed),
        }
    }

    /// Number of frames that hold a page.
    pub fn resident(&self) -> usize {
        self.inner.resident.load(Ordering::Relaxed)
    }

    /// Whether `id` currently occupies a frame.
    pub fn is_resident(&self, id: PageId) -> bool {
        self.inner.frame_of(id).is_some()
    }

    /// Simulated device latency of a miss (concurrent misses overlap).
    pub fn set_io_latency(&self, latency: Duration) {
        let ns = latency.as_nanos() as u64;
        self.inner.io_latency_ns.store(ns, Ordering::Relaxed);
    }

    /// The pool-LSN of the most recent dirtying write.
    pub fn current_lsn(&self) -> u64 {
        self.inner.lsn_clock.load(Ordering::Acquire)
    }

    /// Start gating eviction on the durable watermark: until
    /// [`advance_durable_floor`](Self::advance_durable_floor) says
    /// otherwise, **no** dirty frame is written back. A pool without a
    /// WAL in front never calls this.
    pub fn gate_evictions(&self) {
        self.inner.durable_floor.store(0, Ordering::Release);
    }

    /// Declare every page write with pool-LSN `<= lsn` durable (its log
    /// records are forced): those frames may be evicted. Monotone.
    pub fn advance_durable_floor(&self, lsn: u64) {
        // fetch_max would treat the ungated u64::MAX floor as the max
        if self.inner.durable_floor.load(Ordering::Acquire) != u64::MAX {
            self.inner.durable_floor.fetch_max(lsn, Ordering::SeqCst);
            self.inner.wake_evictor();
        }
    }

    /// The simulated disk **now**: without resident dirty pages (a crash
    /// loses the pool) and without pages never written back.
    pub fn disk_snapshot(&self) -> HashMap<PageId, Vec<u8>> {
        self.inner.disk.lock().clone()
    }

    /// Latch `id` shared, loading it if it is not resident. Blocks while
    /// a writer holds the page.
    pub fn read_page(&self, id: PageId) -> Result<PageShared<'_>, PoolError> {
        let pool = &*self.inner;
        let downgrade = RwLockWriteGuard::downgrade;
        let slot = pool.latch(id, RwLock::try_read, RwLock::read, downgrade)?;
        let _pool = Release(pool);
        Ok(PageShared { id, slot, _pool })
    }

    /// Latch `id` exclusive, loading it if it is not resident. Blocks
    /// while any holder exists.
    pub fn write_page(&self, id: PageId) -> Result<PageExclusive<'_>, PoolError> {
        let pool = &*self.inner;
        let slot = pool.latch(id, RwLock::try_write, RwLock::write, |loaded| loaded)?;
        Ok(PageExclusive::new(id, slot, pool))
    }

    /// Allocate a fresh page and return it exclusively latched.
    pub fn allocate(&self) -> Result<PageExclusive<'_>, PoolError> {
        let pool = &*self.inner;
        let id = PageId(pool.next_page.fetch_add(1, Ordering::AcqRel));
        bump(&pool.allocations);
        let Some(slot) = pool.install(id, true)? else {
            unreachable!("{id} is new: nobody else can have published it");
        };
        Ok(PageExclusive::new(id, slot, pool))
    }
}

/// A [`BufferPool`] under the name the B-tree's latch protocol holds it
/// by. Cloneable; all clones share the pool.
#[derive(Clone)]
pub struct BufferManager {
    pool: BufferPool,
}

impl BufferManager {
    /// Wrap `pool`.
    pub fn new(pool: BufferPool) -> Self {
        BufferManager { pool }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

impl Deref for BufferManager {
    type Target = BufferPool;
    fn deref(&self) -> &BufferPool {
        &self.pool
    }
}

/// A page under its shared latch — the frame's read guard: it cannot be
/// written or evicted meanwhile.
pub struct PageShared<'a> {
    id: PageId,
    slot: RwLockReadGuard<'a, Slot>,
    _pool: Release<'a>,
}

impl PageShared<'_> {
    /// This page's id.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Read the page image.
    pub fn read<R>(&self, f: impl FnOnce(&Page) -> R) -> R {
        f(&self.slot.page)
    }
}

/// A page under its exclusive latch — the frame's write guard: nobody
/// else can read, write or evict it meanwhile.
pub struct PageExclusive<'a> {
    id: PageId,
    /// `RefCell`: [`write`](Self::write) takes `&self`, as callers hold
    /// the guard in an immutable binding next to the node decoded from it.
    slot: RefCell<Latched<'a>>,
    pool: Release<'a>,
}

impl<'a> PageExclusive<'a> {
    fn new(id: PageId, slot: Latched<'a>, pool: &'a Inner) -> Self {
        let (slot, pool) = (RefCell::new(slot), Release(pool));
        PageExclusive { id, slot, pool }
    }

    /// This page's id.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Read the page image.
    pub fn read<R>(&self, f: impl FnOnce(&Page) -> R) -> R {
        f(&self.slot.borrow().page)
    }

    /// Mutate the page image; stamps the frame with a fresh pool-LSN,
    /// which marks it dirty and is what the durable watermark gates on.
    pub fn write<R>(&self, f: impl FnOnce(&mut Page) -> R) -> R {
        let mut slot = self.slot.borrow_mut();
        let r = f(&mut slot.page);
        slot.lsn = self.pool.0.lsn_clock.fetch_add(1, Ordering::AcqRel) + 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn payload(pool: &BufferPool, id: PageId) -> Vec<u8> {
        pool.read_page(id)
            .unwrap()
            .read(|pg| pg.read(0).unwrap().to_vec())
    }

    #[test]
    fn allocate_and_fetch() {
        let pool = BufferPool::new(4, 256);
        let id = {
            let p = pool.allocate().unwrap();
            p.write(|pg| pg.insert(b"data").unwrap());
            p.id()
        };
        assert_eq!(payload(&pool, id), b"data");
    }

    #[test]
    fn unknown_page_rejected() {
        let pool = BufferPool::new(2, 256);
        assert_eq!(
            pool.read_page(PageId(99)).err(),
            Some(PoolError::UnknownPage(PageId(99)))
        );
        // dense ids: the first unallocated one is unknown too
        let next = PageId(pool.allocate().unwrap().id().0 + 1);
        assert_eq!(
            pool.write_page(next).err(),
            Some(PoolError::UnknownPage(next))
        );
    }

    #[test]
    fn nothing_is_allocated_before_first_use() {
        let pool = BufferPool::new(4096, 512);
        assert_eq!(pool.inner.frames.iter().count(), 0);
        assert_eq!(pool.inner.table.iter().count(), 0);
        assert_eq!(pool.resident(), 0);
        drop(pool.allocate().unwrap());
        // one chunk of each, not 4096 frames
        assert_eq!(pool.inner.frames.iter().count(), 32);
        assert_eq!(pool.inner.table.iter().count(), 32);
        assert_eq!(pool.resident(), 1);
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
        assert_eq!(pool.resident(), 2);
        let stats = pool.stats();
        assert_eq!(stats.allocations, 5);
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.writebacks, 3, "every victim was dirty, none gated");
        // all data survives eviction round trips
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(payload(&pool, *id), vec![i as u8]);
        }
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn a_clean_page_that_was_never_written_back_reads_blank() {
        let pool = BufferPool::new(1, 256);
        let a = pool.allocate().unwrap().id();
        drop(pool.allocate().unwrap()); // evicts `a`, clean: no write-back
        assert!(!pool.disk_snapshot().contains_key(&a));
        let blank = pool.read_page(a).unwrap();
        assert_eq!(blank.read(|pg| (pg.size(), pg.slot_count())), (256, 0));
    }

    #[test]
    fn latched_frames_are_not_evicted() {
        let pool = BufferPool::new(2, 256);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        // both latched: a third page has nowhere to go
        assert_eq!(pool.allocate().err(), Some(PoolError::NoEvictableFrame));
        assert!(pool.is_resident(a.id()) && pool.is_resident(b.id()));
        drop(a);
        // now one frame is evictable, and it is not the latched one
        let c = pool.allocate().unwrap();
        assert!(pool.is_resident(b.id()) && pool.is_resident(c.id()));
        drop(c);
        for _ in 0..4 {
            drop(pool.allocate().unwrap());
            assert!(pool.is_resident(b.id()), "evicted under its latch");
        }
    }

    #[test]
    fn every_request_is_one_hit_or_one_miss() {
        let pool = BufferPool::new(2, 256);
        let ids: Vec<_> = (0..4).map(|_| pool.allocate().unwrap().id()).collect();
        let before = pool.stats();
        assert_eq!(
            (before.hits, before.misses),
            (0, 0),
            "allocating is neither"
        );
        let mut expect_misses = 0;
        for round in 0..3 {
            for &id in &ids {
                expect_misses += u64::from(!pool.is_resident(id));
                if round % 2 == 0 {
                    drop(pool.read_page(id).unwrap());
                } else {
                    drop(pool.write_page(id).unwrap());
                }
                // the page just used is resident, and hit again at once
                drop(pool.read_page(id).unwrap());
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, expect_misses);
        assert_eq!(stats.hits + stats.misses, 24);
        assert!(stats.misses >= 4 && stats.hits >= 12);
        assert_eq!(stats.latch_waits, 0, "one thread never finds a latch held");
    }

    fn reached_disk(pool: &BufferPool, id: PageId, needle: &[u8]) -> bool {
        pool.disk_snapshot()
            .get(&id)
            .is_some_and(|image| image.windows(needle.len()).any(|w| w == needle))
    }

    #[test]
    fn eviction_respects_durable_watermark() {
        let pool = BufferPool::new(2, 256);
        pool.gate_evictions();
        // Dirty a page; its pool-LSN (1) is above the floor (0), so its
        // effects are not yet covered by durable log records.
        let gated = {
            let a = pool.allocate().unwrap();
            a.write(|pg| pg.insert(b"undurable").unwrap());
            a.id()
        };
        // Whatever else comes and goes — clean pages, through the one
        // other frame — the gated page stays and its bytes stay off disk.
        for _ in 0..6 {
            drop(pool.allocate().unwrap());
            assert!(pool.is_resident(gated), "gated dirty page was evicted");
            assert!(
                !reached_disk(&pool, gated, b"undurable"),
                "evict-before-flush: undurable bytes reached the disk sim"
            );
        }
        // A second gated page leaves nothing to evict.
        let other = pool.allocate().unwrap();
        other.write(|pg| pg.insert(b"also undurable").unwrap());
        drop(other);
        assert_eq!(pool.allocate().err(), Some(PoolError::NoEvictableFrame));
        // Once the watermark covers the writes, both are ordinary victims
        // and the data survives the round trip.
        pool.advance_durable_floor(pool.current_lsn());
        drop(pool.allocate().unwrap());
        drop(pool.allocate().unwrap());
        assert!(!pool.is_resident(gated), "durable dirty page should evict");
        assert!(reached_disk(&pool, gated, b"undurable"));
        assert_eq!(payload(&pool, gated), b"undurable");
    }

    #[test]
    fn ungated_pool_evicts_dirty_pages_freely() {
        // No WAL in front: dirty pages evict freely (floor = u64::MAX).
        let pool = BufferPool::new(2, 256);
        for i in 0..4u8 {
            let p = pool.allocate().unwrap();
            p.write(|pg| pg.insert(&[i]).unwrap());
        }
        pool.advance_durable_floor(0); // ignored while ungated
        drop(pool.allocate().unwrap());
        let stats = pool.stats();
        assert_eq!((stats.evictions, stats.writebacks), (3, 3));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let pool = BufferPool::new(8, 256);
        let id = pool.allocate().unwrap().id();
        std::thread::scope(|s| {
            for i in 0..4u8 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..50 {
                        let p = pool.write_page(id).unwrap();
                        p.write(|pg| {
                            pg.insert(&[i]).ok();
                        });
                        drop(p);
                        let _ = pool.read_page(id).unwrap().read(|pg| pg.live_records());
                    }
                });
            }
        });
        assert!(pool.read_page(id).unwrap().read(|pg| pg.live_records()) > 0);
    }

    #[test]
    fn shared_latches_overlap_exclusive_excludes() {
        let mgr = BufferManager::new(BufferPool::new(4, 256));
        let id = {
            let p = mgr.allocate().unwrap();
            p.write(|pg| pg.insert(b"v").unwrap());
            p.id()
        };
        let r1 = mgr.read_page(id).unwrap();
        let r2 = mgr.read_page(id).unwrap(); // two readers coexist
        assert_eq!(r1.read(|pg| pg.live_records()), 1);
        drop(r2);

        // A writer must wait for the remaining reader.
        let (entered, seen) = mpsc::channel();
        std::thread::scope(|s| {
            let mgr = &mgr;
            s.spawn(move || {
                let w = mgr.write_page(id).unwrap();
                entered.send(()).unwrap();
                w.write(|pg| {
                    pg.insert(b"w").unwrap();
                });
            });
            assert!(
                seen.recv_timeout(Duration::from_millis(20)).is_err(),
                "writer entered under reader"
            );
            drop(r1);
            seen.recv().unwrap();
        });
        assert_eq!(mgr.pool().stats().latch_waits, 1, "the writer's");
        assert_eq!(mgr.read_page(id).unwrap().read(|pg| pg.live_records()), 2);
    }

    #[test]
    fn exclusive_guards_move_into_a_stack() {
        // The property latch coupling needs: guards are owned values.
        let mgr = BufferManager::new(BufferPool::new(8, 256));
        let mut retained: Vec<PageExclusive> = Vec::new();
        for _ in 0..3 {
            retained.push(mgr.allocate().unwrap());
        }
        let ids: Vec<_> = retained.iter().map(|p| p.id()).collect();
        retained.clear(); // releases in drop order without issue
        for id in ids {
            let _ = mgr.write_page(id).unwrap(); // re-acquirable
        }
    }

    #[test]
    fn two_fetchers_of_one_page_load_it_once() {
        let pool = BufferPool::new(1, 256);
        let id = {
            let p = pool.allocate().unwrap();
            p.write(|pg| pg.insert(b"once").unwrap());
            p.id()
        };
        drop(pool.allocate().unwrap()); // `id` is on disk only
        pool.set_io_latency(Duration::from_millis(20));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| assert_eq!(payload(&pool, id), b"once"));
            }
        });
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn a_panic_under_an_exclusive_guard_poisons_nothing() {
        let pool = BufferPool::new(1, 256);
        let id = {
            let p = pool.allocate().unwrap();
            p.write(|pg| pg.insert(b"before").unwrap());
            p.id()
        };
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let p = pool.write_page(id).unwrap();
                p.write(|_| panic!("holder dies mid-write"));
            })
            .join()
        });
        assert!(panicked.is_err());
        // readable, writable …
        assert_eq!(payload(&pool, id), b"before");
        pool.write_page(id)
            .unwrap()
            .write(|pg| pg.update(0, b"after!").unwrap());
        // … evictable (one frame: allocating must take this one) …
        drop(pool.allocate().unwrap());
        assert!(!pool.is_resident(id));
        assert_eq!(payload(&pool, id), b"after!");
        // … and the counters still answer
        let stats = pool.stats();
        assert_eq!((stats.allocations, stats.evictions), (2, 2));
    }

    #[test]
    fn a_waiting_miss_wakes_on_the_guard_drop_not_on_a_timer() {
        let pool = BufferPool::new(1, 256);
        let held = pool.allocate().unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let page = pool.allocate().expect("the frame is freed in time");
                (page.id(), Instant::now())
            });
            // the only frame is latched: the miss registers and sleeps
            while pool.inner.waiters.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(5));
            let dropped = Instant::now();
            drop(held);
            let (id, woke) = waiter.join().unwrap();
            assert!(pool.is_resident(id));
            let late = woke.duration_since(dropped);
            assert!(
                late < EVICT_WAIT / 4,
                "woke {late:?} after the drop: that is the deadline, not the signal"
            );
        });
        // and a pool that stays latched gives up at the deadline
        let held = pool.allocate().unwrap();
        let t0 = Instant::now();
        assert_eq!(pool.allocate().err(), Some(PoolError::NoEvictableFrame));
        assert!(t0.elapsed() >= EVICT_WAIT);
        drop(held);
    }
}
