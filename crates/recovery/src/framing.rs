//! Byte-level log framing with per-record CRC32 and torn-write
//! detection.
//!
//! The engine durability subsystem works against the byte-level model
//! a real log device presents: a crash can cut the log anywhere,
//! including in the middle of a record, and a torn write must be
//! detected — not replayed as garbage. [`FramedLog`] stores records as
//!
//! ```text
//! [payload_len: u32 le][crc32(payload): u32 le][payload bytes]
//! ```
//!
//! with a durable **byte** watermark, and [`scan`] walks an arbitrary
//! byte prefix, stopping cleanly at the last record whose length fits
//! and whose checksum matches. Everything after that point — a
//! truncated header, a cut payload, a corrupted byte — is the torn
//! tail, reported but never decoded.

use bytes::{Buf, BufMut};

/// Bytes of framing overhead per record (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `data`.
/// Table-driven; no external crates in the offline build.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
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
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Frame one payload: `[len][crc][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(crc32(payload));
    out.put_slice(payload);
    out
}

/// Why a scan stopped before the end of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornTail {
    /// The record starting at `at` is cut short: its header or payload
    /// extends past the end of the surviving bytes (a torn write).
    Truncated {
        /// Byte offset of the torn record's frame header.
        at: usize,
    },
    /// The record starting at `at` is complete but its checksum does not
    /// match its payload (bit rot, or a torn write that happened to
    /// leave a plausible length).
    Corrupt {
        /// Byte offset of the corrupt record's frame header.
        at: usize,
    },
}

/// Result of [`scan`]: the decodable prefix and where (and why) it ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Every whole, checksum-valid payload, in log order.
    pub payloads: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (`bytes[..valid_len]` framed the
    /// returned payloads exactly).
    pub valid_len: usize,
    /// The torn tail, when the input did not end on a record boundary.
    pub torn: Option<TornTail>,
}

/// Walk `bytes` record by record, stopping at the last valid prefix.
///
/// Recovery must treat everything after the first bad frame as lost:
/// the log is append-only, so a torn record means the crash happened
/// mid-write and nothing after it can have been acknowledged.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut payloads = Vec::new();
    let mut i = 0usize;
    let torn = loop {
        if i == bytes.len() {
            break None;
        }
        if bytes.len() - i < FRAME_HEADER {
            break Some(TornTail::Truncated { at: i });
        }
        let mut hdr = &bytes[i..];
        let len = hdr.get_u32_le() as usize;
        let crc = hdr.get_u32_le();
        if bytes.len() - i - FRAME_HEADER < len {
            break Some(TornTail::Truncated { at: i });
        }
        let payload = &bytes[i + FRAME_HEADER..i + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break Some(TornTail::Corrupt { at: i });
        }
        payloads.push(payload.to_vec());
        i += FRAME_HEADER + len;
    };
    ScanOutcome {
        payloads,
        valid_len: i,
        torn,
    }
}

/// An append-only byte log of framed records with a durable byte
/// watermark — the "device" the engine durability subsystem writes.
///
/// Appends land in the volatile tail; [`force_to`](FramedLog::force_to)
/// advances the watermark (the fsync); [`crash`](FramedLog::crash)
/// returns what a restart would read. The boundary is in *bytes*, so
/// tests can cut a record in half and drive the torn-tail path end to
/// end.
#[derive(Debug, Default)]
pub struct FramedLog {
    bytes: Vec<u8>,
    durable: usize,
}

impl FramedLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one framed record; returns the byte offset one past its
    /// end (the watermark that makes it durable).
    pub fn append(&mut self, payload: &[u8]) -> usize {
        self.bytes.extend_from_slice(&frame(payload));
        self.bytes.len()
    }

    /// Total appended bytes, including the volatile tail.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True iff nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Bytes surviving a crash right now.
    pub fn durable_len(&self) -> usize {
        self.durable
    }

    /// Advance the durable watermark to `upto` bytes (monotone; the
    /// fsync completion). Returns the new watermark.
    pub fn force_to(&mut self, upto: usize) -> usize {
        self.durable = self.durable.max(upto.min(self.bytes.len()));
        self.durable
    }

    /// Make everything appended so far durable.
    pub fn force(&mut self) -> usize {
        self.force_to(self.bytes.len())
    }

    /// The bytes a restart would read: the durable prefix.
    pub fn crash(&self) -> Vec<u8> {
        self.bytes[..self.durable].to_vec()
    }

    /// The full byte image including the volatile tail (a clean
    /// shutdown, where the device caught up).
    pub fn image(&self) -> Vec<u8> {
        self.bytes.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn framed_roundtrip_in_order() {
        let mut log = FramedLog::new();
        log.append(b"alpha");
        log.append(b"");
        let end = log.append(b"gamma-record");
        log.force_to(end);
        let out = scan(&log.crash());
        assert_eq!(
            out.payloads,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma-record".to_vec()]
        );
        assert_eq!(out.valid_len, log.len());
        assert_eq!(out.torn, None);
    }

    #[test]
    fn volatile_tail_is_lost_on_crash() {
        let mut log = FramedLog::new();
        let end = log.append(b"durable");
        log.force_to(end);
        log.append(b"volatile");
        let out = scan(&log.crash());
        assert_eq!(out.payloads, vec![b"durable".to_vec()]);
        assert_eq!(out.torn, None, "the watermark sits on a record boundary");
    }

    #[test]
    fn truncation_mid_record_stops_at_last_valid_prefix() {
        let mut log = FramedLog::new();
        let first_end = log.append(b"first");
        log.append(b"second-longer-payload");
        log.force();
        let image = log.image();
        // Cut the log at every byte position inside the second record:
        // the scan must always return exactly the first record.
        for cut in first_end + 1..image.len() {
            let out = scan(&image[..cut]);
            assert_eq!(out.payloads, vec![b"first".to_vec()], "cut at {cut}");
            assert_eq!(out.valid_len, first_end, "cut at {cut}");
            assert!(
                matches!(out.torn, Some(TornTail::Truncated { at }) if at == first_end),
                "cut at {cut}: {:?}",
                out.torn
            );
        }
    }

    #[test]
    fn corruption_mid_record_stops_at_last_valid_prefix() {
        let mut log = FramedLog::new();
        let first_end = log.append(b"first");
        log.append(b"second");
        log.append(b"third");
        log.force();
        let mut image = log.image();
        // Flip one payload byte of the second record.
        image[first_end + FRAME_HEADER] ^= 0xFF;
        let out = scan(&image);
        assert_eq!(out.payloads, vec![b"first".to_vec()]);
        assert_eq!(out.valid_len, first_end);
        assert!(
            matches!(out.torn, Some(TornTail::Corrupt { at }) if at == first_end),
            "{:?}",
            out.torn
        );
    }

    #[test]
    fn corrupt_length_field_reads_as_torn_not_garbage() {
        let mut log = FramedLog::new();
        let first_end = log.append(b"first");
        log.append(b"second");
        log.force();
        let mut image = log.image();
        // Blow the second record's length far past the log end.
        image[first_end] = 0xFF;
        image[first_end + 1] = 0xFF;
        let out = scan(&image);
        assert_eq!(out.payloads, vec![b"first".to_vec()]);
        assert!(matches!(out.torn, Some(TornTail::Truncated { at }) if at == first_end));
    }

    #[test]
    fn scan_of_empty_log_is_clean() {
        let out = scan(&[]);
        assert!(out.payloads.is_empty());
        assert_eq!(out.valid_len, 0);
        assert_eq!(out.torn, None);
    }
}
