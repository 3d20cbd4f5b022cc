//! # oodb-btree — the encyclopedia substrate
//!
//! The paper's running example, built for real over [`oodb_storage`]
//! pages and recorded through [`oodb_model::Recorder`]:
//!
//! * [`node`]/[`tree`] — a concurrent B⁺ tree with **B-link** splits and
//!   real latch coupling ([`latch`]): crabbing with retained ancestors,
//!   inner nodes read by version, fixed-root in-place splits, every
//!   record call ordered by the page's latch or its image's version.
//!   Leaf splits complete locally and the father is rearranged by a
//!   separate subtransaction *called from the insert*, the call-path
//!   cycle motivating the paper's Definition 5;
//! * [`list`] — the linked list of items with per-item objects;
//! * [`encyclopedia`] — the `Enc` facade combining both (Figure 2), and
//!   [`compensated`] — its open-nested abort by semantic inverses, whose
//!   format it alone knows ([`EncWrite`]);
//! * [`ops`] — the operations every executor runs against it ([`EncOp`])
//!   and what each one means: its lock mode, its page-level ablation, its
//!   execution and the text it writes.

#![warn(missing_docs)]

pub mod compensated;
pub mod encyclopedia;
pub mod latch;
pub mod list;
pub mod node;
mod objects;
pub mod ops;
pub mod tree;

pub use compensated::{AbortReport, CompensatedEncyclopedia, EncWrite};
pub use encyclopedia::{Encyclopedia, EncyclopediaConfig};
pub use list::{ItemId, ItemList};
pub use node::{Entry, Node, Probe, MAX_KEY_LEN};
pub use ops::{EncOp, EncWorkload};
pub use tree::{required_page_size, BLinkTree};
