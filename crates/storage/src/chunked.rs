//! Grow-only direct-indexed table for ids allocated densely from zero.
//!
//! Page ids, frame indices and the recorder ids of the B-tree's objects
//! are all small dense integers, and all of them are looked up on every
//! page visit by every worker. A map behind a lock makes that lookup a
//! cache line all of them write; here it is one `Acquire` load of a chunk
//! pointer and an index — no lock, no hashing, no reader count.
//!
//! Chunk `c` holds the indices `32·(2^c − 1) ..< 32·(2^(c+1) − 1)`: sizes
//! double, so a table costs at most two slots per id in use, nothing is
//! sized up front, and 28 chunks span every `u32` index. A chunk is
//! allocated whole on the first [`Chunked::get_or_alloc`] that lands in
//! it and never moves or shrinks, which is what lets a `&T` into it live
//! as long as the table.

use std::sync::OnceLock;

const CHUNKS: usize = 28;
const FIRST_CHUNK: u64 = 32;

/// See the [module docs](self).
pub struct Chunked<T> {
    chunks: [OnceLock<Box<[T]>>; CHUNKS],
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

impl<T> Chunked<T> {
    /// An empty table: no chunk is allocated.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(chunk, offset within it)` of `index`.
    fn locate(index: u64) -> (usize, usize) {
        let n = index + FIRST_CHUNK;
        let chunk = (n.ilog2() - FIRST_CHUNK.ilog2()) as usize;
        (chunk, (n - (FIRST_CHUNK << chunk)) as usize)
    }

    /// The slot of `index`, if its chunk has been allocated.
    pub fn get(&self, index: u64) -> Option<&T> {
        let (chunk, offset) = Self::locate(index);
        Some(&self.chunks.get(chunk)?.get()?[offset])
    }

    /// The slot of `index`, allocating its chunk — every slot of it set
    /// to `init()` — if this is the first touch. Panics on an index beyond
    /// `u32::MAX`: ids are allocated densely from zero.
    pub fn get_or_alloc(&self, index: u64, init: impl Fn() -> T) -> &T {
        let (chunk, offset) = Self::locate(index);
        let slots =
            self.chunks[chunk].get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| init()).collect());
        &slots[offset]
    }

    /// Every slot of every allocated chunk, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|c| c.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn every_index_has_exactly_one_slot() {
        type T = Chunked<AtomicU64>;
        assert_eq!(T::locate(0), (0, 0));
        assert_eq!(T::locate(31), (0, 31));
        assert_eq!(T::locate(32), (1, 0));
        assert_eq!(T::locate(95), (1, 63));
        assert_eq!(T::locate(96), (2, 0));
        let (chunk, offset) = T::locate(u64::from(u32::MAX));
        assert!(chunk < CHUNKS && offset < (FIRST_CHUNK as usize) << chunk);
    }

    #[test]
    fn chunks_appear_on_first_touch_and_slots_are_stable() {
        let t = Chunked::<AtomicU64>::new();
        assert_eq!(t.iter().count(), 0, "nothing allocated up front");
        assert!(t.get(5000).is_none(), "unallocated chunk");
        for i in [0u64, 31, 32, 95, 96, 5000] {
            t.get_or_alloc(i, AtomicU64::default)
                .store(i + 1, Ordering::Relaxed);
        }
        for i in [0u64, 31, 32, 95, 96, 5000] {
            assert_eq!(t.get(i).unwrap().load(Ordering::Relaxed), i + 1);
        }
        assert_eq!(
            t.get(33).unwrap().load(Ordering::Relaxed),
            0,
            "allocated chunk, untouched slot"
        );
        // chunks 0, 1, 2 and the one holding 5000 (32·2^7 slots)
        assert_eq!(t.iter().count(), 32 + 64 + 128 + 4096);
    }
}
