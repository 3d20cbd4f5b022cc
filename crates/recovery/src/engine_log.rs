//! The engine durability log's record format: transaction lifecycle
//! plus *semantic* redo/compensation payloads.
//!
//! Open nesting makes recovery semantic: a loser transaction's effects
//! were released at subtransaction commit, so restart cannot restore
//! page before-images — it must run compensating operations, exactly as
//! a live abort would (`oodb_core::compensation`). Each [`Op`] record
//! therefore carries **both** directions of one encyclopedia mutation:
//! the forward operation for repeating history and the inverse the
//! transaction's undo stack captured at execution time, so restart can undo
//! losers without any page images at all.
//!
//! Records are self-contained plain data (keys and texts, no engine
//! types), encoded as a little-endian tag followed by its fields and
//! framed per record by [`crate::framing`].
//!
//! [`Op`]: EngineRecord::Op

use bytes::{Buf, BufMut};

/// One semantic encyclopedia mutation, in redo-executable form. Reads
/// are never logged: they change no state and need no undo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOp {
    /// Insert `key` with `text`.
    Insert {
        /// The item key.
        key: String,
        /// The item text.
        text: String,
    },
    /// Overwrite `key`'s text with `text`.
    Change {
        /// The item key.
        key: String,
        /// The replacement text.
        text: String,
    },
    /// Remove `key`.
    Delete {
        /// The item key.
        key: String,
    },
}

impl EngineOp {
    /// The key the operation targets.
    pub fn key(&self) -> &str {
        match self {
            EngineOp::Insert { key, .. }
            | EngineOp::Change { key, .. }
            | EngineOp::Delete { key } => key,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            EngineOp::Insert { key, text } => {
                out.put_u8(0);
                put_str(out, key);
                put_str(out, text);
            }
            EngineOp::Change { key, text } => {
                out.put_u8(1);
                put_str(out, key);
                put_str(out, text);
            }
            EngineOp::Delete { key } => {
                out.put_u8(2);
                put_str(out, key);
            }
        }
    }

    fn decode_from(buf: &mut &[u8]) -> EngineOp {
        match buf.get_u8() {
            0 => EngineOp::Insert {
                key: get_str(buf),
                text: get_str(buf),
            },
            1 => EngineOp::Change {
                key: get_str(buf),
                text: get_str(buf),
            },
            2 => EngineOp::Delete { key: get_str(buf) },
            t => panic!("unknown engine op tag {t}"),
        }
    }
}

/// One record of the engine durability log.
///
/// A transaction's life on the log: `Begin`, one `Op` per executed
/// mutation (appended inside the database critical section, so log
/// order equals the recorded history order), then exactly one of
/// `Commit` or — after a live abort compensated each mutation in
/// reverse, logging a `Comp` per inverse — `AbortDone`. A transaction
/// with a `Begin` but neither terminator is a **loser**: restart
/// finishes its undo from the `Op` records' compensation payloads,
/// skipping the inverses whose `Comp` records already made it to disk
/// (the CLR discipline, semantically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineRecord {
    /// A transaction executed its first logged mutation.
    Begin {
        /// Recorder transaction number of the attempt (unique per
        /// attempt; retries get fresh numbers).
        txn: u64,
        /// The attempt's root transaction name (e.g. `"J3r1"`).
        name: String,
    },
    /// One executed mutation: forward operation plus its inverse.
    Op {
        /// The executing transaction.
        txn: u64,
        /// The operation as executed (repeating history replays this).
        redo: EngineOp,
        /// The compensating operation captured when `redo` ran (restart
        /// applies this, in reverse order, for loser transactions).
        comp: EngineOp,
    },
    /// One inverse executed while a live abort compensated the
    /// transaction; restart must not undo that mutation again.
    Comp {
        /// The aborting transaction.
        txn: u64,
        /// The inverse as executed.
        op: EngineOp,
        /// Whether it applied (a failed inverse still consumes one undo
        /// slot — the abort report surfaced it; restart keeps counting).
        applied: bool,
    },
    /// The transaction committed; its effects are permanent.
    Commit {
        /// The committed transaction.
        txn: u64,
    },
    /// A live abort finished compensating; nothing remains to undo.
    AbortDone {
        /// The aborted transaction.
        txn: u64,
    },
}

impl EngineRecord {
    /// The transaction a record belongs to.
    pub fn txn(&self) -> u64 {
        match self {
            EngineRecord::Begin { txn, .. }
            | EngineRecord::Op { txn, .. }
            | EngineRecord::Comp { txn, .. }
            | EngineRecord::Commit { txn }
            | EngineRecord::AbortDone { txn } => *txn,
        }
    }

    /// Serialize with a type tag; framing (length + CRC) is
    /// [`crate::framing`]'s job.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            EngineRecord::Begin { txn, name } => {
                out.put_u8(0);
                out.put_u64_le(*txn);
                put_str(&mut out, name);
            }
            EngineRecord::Op { txn, redo, comp } => {
                out.put_u8(1);
                out.put_u64_le(*txn);
                redo.encode_into(&mut out);
                comp.encode_into(&mut out);
            }
            EngineRecord::Comp { txn, op, applied } => {
                out.put_u8(2);
                out.put_u64_le(*txn);
                op.encode_into(&mut out);
                out.put_u8(u8::from(*applied));
            }
            EngineRecord::Commit { txn } => {
                out.put_u8(3);
                out.put_u64_le(*txn);
            }
            EngineRecord::AbortDone { txn } => {
                out.put_u8(4);
                out.put_u64_le(*txn);
            }
        }
        out
    }

    /// Deserialize one record (panics on malformed input — payloads are
    /// CRC-validated by the framing layer before they reach here, so a
    /// decode failure is a logic bug, not a torn write).
    pub fn decode(mut buf: &[u8]) -> EngineRecord {
        let buf = &mut buf;
        let tag = buf.get_u8();
        let txn = buf.get_u64_le();
        match tag {
            0 => EngineRecord::Begin {
                txn,
                name: get_str(buf),
            },
            1 => EngineRecord::Op {
                txn,
                redo: EngineOp::decode_from(buf),
                comp: EngineOp::decode_from(buf),
            },
            2 => EngineRecord::Comp {
                txn,
                op: EngineOp::decode_from(buf),
                applied: buf.get_u8() != 0,
            },
            3 => EngineRecord::Commit { txn },
            4 => EngineRecord::AbortDone { txn },
            t => panic!("unknown engine record tag {t}"),
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> String {
    let len = buf.get_u32_le() as usize;
    String::from_utf8(buf.copy_to_bytes(len)).expect("log strings are utf-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{scan, FramedLog};

    fn samples() -> Vec<EngineRecord> {
        vec![
            EngineRecord::Begin {
                txn: 7,
                name: "J3r1".into(),
            },
            EngineRecord::Op {
                txn: 7,
                redo: EngineOp::Insert {
                    key: "OODB".into(),
                    text: "text for OODB".into(),
                },
                comp: EngineOp::Delete { key: "OODB".into() },
            },
            EngineRecord::Op {
                txn: 7,
                redo: EngineOp::Change {
                    key: "DBS".into(),
                    text: "changed by 3".into(),
                },
                comp: EngineOp::Change {
                    key: "DBS".into(),
                    text: "previous".into(),
                },
            },
            EngineRecord::Comp {
                txn: 7,
                op: EngineOp::Change {
                    key: "DBS".into(),
                    text: "previous".into(),
                },
                applied: true,
            },
            EngineRecord::Comp {
                txn: 7,
                op: EngineOp::Delete { key: "OODB".into() },
                applied: false,
            },
            EngineRecord::Commit { txn: 7 },
            EngineRecord::AbortDone { txn: 9 },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for rec in samples() {
            let back = EngineRecord::decode(&rec.encode());
            assert_eq!(back, rec);
            assert_eq!(back.txn(), rec.txn());
        }
    }

    #[test]
    fn framed_stream_roundtrips_through_a_crash() {
        let mut log = FramedLog::new();
        let recs = samples();
        let mut boundary = 0;
        for (i, rec) in recs.iter().enumerate() {
            let end = log.append(&rec.encode());
            if i == 3 {
                boundary = end;
            }
        }
        log.force_to(boundary);
        // A crash preserves exactly the first four records, decodable.
        let out = scan(&log.crash());
        assert_eq!(out.torn, None);
        let decoded: Vec<EngineRecord> = out
            .payloads
            .iter()
            .map(|p| EngineRecord::decode(p))
            .collect();
        assert_eq!(decoded, recs[..4].to_vec());
    }

    #[test]
    fn torn_record_never_reaches_decode() {
        let mut log = FramedLog::new();
        for rec in samples() {
            log.append(&rec.encode());
        }
        log.force();
        let image = log.image();
        // Any byte-level cut of the image decodes to a clean prefix.
        for cut in 0..=image.len() {
            let out = scan(&image[..cut]);
            for p in &out.payloads {
                let _ = EngineRecord::decode(p); // must not panic
            }
            assert!(out.valid_len <= cut);
        }
    }
}
