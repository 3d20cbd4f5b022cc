//! Slotted pages.
//!
//! The paper treats the *page* as the universal zero-level object type:
//! "in database systems exists a common object type which methods call no
//! other actions: the page". This module implements a classical slotted
//! page — a fixed-size frame holding variable-length records addressed by
//! slot number — so that the B⁺-tree and item-list substrates above it
//! issue genuine page-level `read`/`write` primitives.
//!
//! Layout (offsets in bytes, little-endian u16 fields):
//!
//! ```text
//! 0              2              4              6
//! +--------------+--------------+--------------+---------------------+
//! | slot_count   | free_lower   | free_upper   | slots… → … ←records |
//! +--------------+--------------+--------------+---------------------+
//! ```
//!
//! Slots grow upward from byte 6; record payloads grow downward from the
//! page end. A slot is `(offset: u16, len: u16)`; a deleted slot has
//! `offset == DEAD`.

use bytes::{Buf, BufMut};
use std::fmt;

/// Identifier of a page in the simulated store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page{}", self.0)
    }
}

/// Default page size; kept small so benchmark sweeps can vary the number
/// of keys per page across realistic orders of magnitude.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

const HEADER: usize = 6;
const SLOT: usize = 4;
const DEAD: u16 = u16::MAX;

/// Errors raised by page-level record operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// Not enough contiguous free space for the record (+ its slot):
    /// `needed` bytes requested, `available` bytes free.
    Full {
        /// Bytes required (record plus slot entry).
        needed: usize,
        /// Contiguous free bytes currently available.
        available: usize,
    },
    /// Slot number out of range.
    BadSlot(u16),
    /// The slot exists but was deleted.
    Dead(u16),
    /// Record too large to ever fit a page of this size.
    Oversize(usize),
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::Full { needed, available } => {
                write!(f, "page full: need {needed} bytes, {available} free")
            }
            PageError::BadSlot(s) => write!(f, "slot {s} out of range"),
            PageError::Dead(s) => write!(f, "slot {s} is deleted"),
            PageError::Oversize(n) => write!(f, "record of {n} bytes can never fit"),
        }
    }
}

impl std::error::Error for PageError {}

/// A fixed-size slotted page.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    buf: Vec<u8>,
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("size", &self.buf.len())
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Page {
    /// A fresh, empty page of `size` bytes. Panics if `size` is too small
    /// to hold the header and one slot.
    pub fn new(size: usize) -> Self {
        assert!(size > HEADER + SLOT, "page size {size} too small");
        assert!(
            size <= u16::MAX as usize,
            "page size {size} exceeds u16 addressing"
        );
        let mut buf = vec![0u8; size];
        // slot_count = 0, free_lower = HEADER, free_upper = size
        (&mut buf[2..4]).put_u16_le(HEADER as u16);
        (&mut buf[4..6]).put_u16_le(size as u16);
        Page { buf }
    }

    /// Rehydrate a page from raw bytes (e.g. read back from the disk sim).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Page { buf: bytes }
    }

    /// The raw frame.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Page size in bytes.
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    fn read_u16(&self, at: usize) -> u16 {
        (&self.buf[at..at + 2]).get_u16_le()
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        (&mut self.buf[at..at + 2]).put_u16_le(v);
    }

    /// Number of slots ever allocated (including deleted ones).
    #[inline]
    pub fn slot_count(&self) -> u16 {
        self.read_u16(0)
    }

    fn free_lower(&self) -> usize {
        self.read_u16(2) as usize
    }

    fn free_upper(&self) -> usize {
        self.read_u16(4) as usize
    }

    /// Contiguous free bytes between the slot array and the record heap.
    pub fn free_space(&self) -> usize {
        self.free_upper() - self.free_lower()
    }

    /// Number of live (non-deleted) records.
    pub fn live_records(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| self.slot(s).map(|(off, _)| off != DEAD).unwrap_or(false))
            .count()
    }

    #[inline]
    fn slot(&self, s: u16) -> Result<(u16, u16), PageError> {
        if s >= self.slot_count() {
            return Err(PageError::BadSlot(s));
        }
        let at = HEADER + s as usize * SLOT;
        Ok((self.read_u16(at), self.read_u16(at + 2)))
    }

    /// Insert a record, returning its slot number.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16, PageError> {
        if record.len() + HEADER + SLOT > self.buf.len() {
            return Err(PageError::Oversize(record.len()));
        }
        let needed = record.len() + SLOT;
        if needed > self.free_space() {
            return Err(PageError::Full {
                needed,
                available: self.free_space(),
            });
        }
        let s = self.slot_count();
        let upper = self.free_upper() - record.len();
        self.buf[upper..upper + record.len()].copy_from_slice(record);
        let at = HEADER + s as usize * SLOT;
        self.write_u16(at, upper as u16);
        self.write_u16(at + 2, record.len() as u16);
        self.write_u16(0, s + 1);
        self.write_u16(2, (HEADER + (s + 1) as usize * SLOT) as u16);
        self.write_u16(4, upper as u16);
        Ok(s)
    }

    /// Read the record in slot `s`.
    #[inline]
    pub fn read(&self, s: u16) -> Result<&[u8], PageError> {
        let (off, len) = self.slot(s)?;
        if off == DEAD {
            return Err(PageError::Dead(s));
        }
        Ok(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Delete the record in slot `s`. The slot number is not reused; the
    /// payload space is reclaimed by [`Page::compact`].
    pub fn delete(&mut self, s: u16) -> Result<(), PageError> {
        let (off, _) = self.slot(s)?;
        if off == DEAD {
            return Err(PageError::Dead(s));
        }
        let at = HEADER + s as usize * SLOT;
        self.write_u16(at, DEAD);
        Ok(())
    }

    /// Overwrite the record in slot `s`. A record no longer than the old
    /// one is written in place, its tail left to [`Page::compact`]; a
    /// longer one is allocated from free space, the old payload abandoned.
    /// When the free space is too small the page compacts once and tries
    /// again, so `Full` means the live records and the new one together
    /// exceed the page.
    pub fn update(&mut self, s: u16, record: &[u8]) -> Result<(), PageError> {
        let (off, len) = self.slot(s)?;
        if off == DEAD {
            return Err(PageError::Dead(s));
        }
        let at = HEADER + s as usize * SLOT;
        if record.len() <= len as usize {
            self.buf[off as usize..off as usize + record.len()].copy_from_slice(record);
            self.write_u16(at + 2, record.len() as u16);
            return Ok(());
        }
        if record.len() > self.free_space() {
            self.compact();
        }
        if record.len() > self.free_space() {
            return Err(PageError::Full {
                needed: record.len(),
                available: self.free_space(),
            });
        }
        let upper = self.free_upper() - record.len();
        self.buf[upper..upper + record.len()].copy_from_slice(record);
        self.write_u16(at, upper as u16);
        self.write_u16(at + 2, record.len() as u16);
        self.write_u16(4, upper as u16);
        Ok(())
    }

    /// Compact the record heap, squeezing out space abandoned by deletes
    /// and resizing updates. Slot numbers are preserved.
    pub fn compact(&mut self) {
        let size = self.buf.len();
        let mut records: Vec<(u16, Vec<u8>)> = Vec::new();
        for s in 0..self.slot_count() {
            if let Ok(data) = self.read(s) {
                records.push((s, data.to_vec()));
            }
        }
        let mut upper = size;
        for (s, data) in &records {
            upper -= data.len();
            self.buf[upper..upper + data.len()].copy_from_slice(data);
            let at = HEADER + *s as usize * SLOT;
            self.write_u16(at, upper as u16);
            self.write_u16(at + 2, data.len() as u16);
        }
        self.write_u16(4, upper as u16);
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn records(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.read(s).ok().map(|r| (s, r)))
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::new(DEFAULT_PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_empty() {
        let p = Page::new(256);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.live_records(), 0);
        assert_eq!(p.free_space(), 256 - HEADER);
        assert_eq!(p.size(), 256);
    }

    #[test]
    fn insert_read_roundtrip() {
        let mut p = Page::new(256);
        let s1 = p.insert(b"hello").unwrap();
        let s2 = p.insert(b"world!").unwrap();
        assert_eq!(p.read(s1).unwrap(), b"hello");
        assert_eq!(p.read(s2).unwrap(), b"world!");
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_frees_slot_logically() {
        let mut p = Page::new(256);
        let s = p.insert(b"gone").unwrap();
        p.delete(s).unwrap();
        assert_eq!(p.read(s), Err(PageError::Dead(s)));
        assert_eq!(p.delete(s), Err(PageError::Dead(s)));
        assert_eq!(p.live_records(), 0);
        // slot numbers are not reused
        let s2 = p.insert(b"new").unwrap();
        assert_ne!(s, s2);
    }

    #[test]
    fn bad_slot_rejected() {
        let p = Page::new(256);
        assert_eq!(p.read(0), Err(PageError::BadSlot(0)));
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut p = Page::new(64);
        let rec = [0u8; 16];
        let mut inserted = 0;
        loop {
            match p.insert(&rec) {
                Ok(_) => inserted += 1,
                Err(PageError::Full { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(inserted >= 2);
        // oversize is a distinct error
        assert!(matches!(
            Page::new(64).insert(&[0u8; 100]),
            Err(PageError::Oversize(100))
        ));
    }

    #[test]
    fn update_in_place_and_relocating() {
        let mut p = Page::new(256);
        let s = p.insert(b"aaaa").unwrap();
        p.update(s, b"bbbb").unwrap(); // same length
        assert_eq!(p.read(s).unwrap(), b"bbbb");
        p.update(s, b"longer-record").unwrap(); // relocation
        assert_eq!(p.read(s).unwrap(), b"longer-record");
    }

    /// On a full page a shorter record is written in place, and a longer
    /// one that fits only once the abandoned bytes are squeezed out
    /// compacts the page instead of reporting `Full`, which a growth
    /// reports only when the live records and the new one overflow.
    #[test]
    fn a_full_page_shrinks_in_place_and_grows_after_compaction() {
        let mut p = Page::new(96);
        let capacity = 96 - HEADER - 3 * SLOT;
        let a = p.insert(&[1u8; 30]).unwrap();
        let b = p.insert(&[2u8; 30]).unwrap();
        let c = p.insert(&[3u8; 8]).unwrap();
        assert_eq!(p.free_space(), capacity - 68);
        let upper = p.free_upper();
        p.update(a, &[4u8; 5]).unwrap();
        assert_eq!(
            p.free_upper(),
            upper,
            "the shorter record took no free space"
        );
        // 10 bytes free and 25 abandoned: 34 fit beside the 43 live bytes
        p.update(b, &[5u8; 34]).unwrap();
        assert_eq!(p.free_space(), capacity - (5 + 30 + 8) - 34);
        for (slot, want) in [(a, &[4u8; 5][..]), (b, &[5u8; 34]), (c, &[3u8; 8])] {
            assert_eq!(p.read(slot).unwrap(), want);
        }
        let fits = capacity - (5 + 34 + 8);
        assert_eq!(
            p.update(c, &vec![6u8; fits + 1]),
            Err(PageError::Full {
                needed: fits + 1,
                available: fits
            })
        );
        assert_eq!(
            p.read(c).unwrap(),
            &[3u8; 8],
            "a failed update changes nothing"
        );
        p.update(c, &vec![6u8; fits]).unwrap();
        assert_eq!(p.free_space(), 0);
    }

    #[test]
    fn compact_reclaims_space() {
        let mut p = Page::new(128);
        let s1 = p.insert(&[1u8; 30]).unwrap();
        let s2 = p.insert(&[2u8; 30]).unwrap();
        let free_full = p.free_space();
        p.delete(s1).unwrap();
        assert_eq!(p.free_space(), free_full); // not yet reclaimed
        p.compact();
        assert!(p.free_space() >= free_full + 30);
        // surviving record intact, same slot
        assert_eq!(p.read(s2).unwrap(), &[2u8; 30]);
    }

    #[test]
    fn records_iterator_skips_dead() {
        let mut p = Page::new(256);
        let s1 = p.insert(b"a").unwrap();
        let _s2 = p.insert(b"b").unwrap();
        p.delete(s1).unwrap();
        let live: Vec<(u16, &[u8])> = p.records().collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].1, b"b");
    }

    #[test]
    fn bytes_roundtrip() {
        let mut p = Page::new(256);
        p.insert(b"persist me").unwrap();
        let bytes = p.as_bytes().to_vec();
        let q = Page::from_bytes(bytes);
        assert_eq!(q.read(0).unwrap(), b"persist me");
        assert_eq!(p, q);
    }
}
