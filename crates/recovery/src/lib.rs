//! # oodb-recovery — the engine log's on-disk representation
//!
//! The paper's transaction concept promises execution "reliably — as if
//! there were no failures". Its transactions are *open nested*: page
//! effects are released at subtransaction commit, so an enclosing abort
//! — live or at restart — can only be undone by semantic compensation
//! (`oodb_core::compensation`), never by restoring page before-images.
//! The engine durability subsystem (`oodb_engine::durability`) logs at
//! that semantic level, and this crate supplies what it writes:
//!
//! * [`framing`] — byte-level record framing with per-record CRC32,
//!   a durable byte watermark, and torn-tail detection;
//! * [`engine_log`] — the record format: transaction lifecycle plus
//!   redo/compensation payloads for semantic (compensation-based) undo.

#![warn(missing_docs)]

pub mod engine_log;
pub mod framing;

pub use engine_log::{EngineOp, EngineRecord};
pub use framing::{crc32, frame, scan, FramedLog, ScanOutcome, TornTail};
