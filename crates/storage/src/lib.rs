//! # oodb-storage — simulated page storage
//!
//! The zero-level substrate of the reproduction: fixed-size slotted
//! [`page::Page`]s behind a [`pool::BufferPool`] — one table of frames
//! whose read / write guards are the page latches, CLOCK eviction that
//! cannot take a latched frame, dirty write-back gated on the durable
//! watermark — over an in-memory simulated disk.
//!
//! The paper needs pages only as the universal *primitive* object type
//! whose `read`/`write` actions obey Axiom 1 (conflicting primitives have
//! a given order); everything physical here exists so the B⁺-tree and
//! item-list substrates above produce genuine page-level access patterns
//! rather than synthetic ones.

#![warn(missing_docs)]

pub mod chunked;
pub mod page;
pub mod pool;

pub use page::{Page, PageError, PageId, DEFAULT_PAGE_SIZE};
pub use pool::{BufferManager, BufferPool, PageExclusive, PageShared, PoolError, PoolStats};
