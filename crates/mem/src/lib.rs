//! Memory-hierarchy substrate for the *Area-Efficient Error Protection for
//! Caches* (DATE 2006) reproduction.
//!
//! The paper evaluates its protection scheme on a SimpleScalar-style memory
//! system; this crate rebuilds that system from scratch:
//!
//! * [`addr`] — byte addresses and line-address arithmetic.
//! * [`config`] — cache/hierarchy configuration, including the paper's
//!   Table 1 parameters ([`config::HierarchyConfig::date2006`]).
//! * [`cache`] — a generic set-associative cache with true LRU, write-back /
//!   write-through policies, per-line `dirty`/`written` metadata (the
//!   paper's written bit lives here, next to the dirty bit it extends), an
//!   incremental dirty-line counter, and an event stream for protection
//!   schemes to observe.
//! * [`write_buffer`] — the 16-entry fully-associative coalescing write
//!   buffer that sits between the write-through L1D and the L2.
//! * [`bus`] — the 8-byte-wide split-transaction off-chip bus.
//! * [`memory`] — main memory: 100-cycle latency plus a deterministic
//!   backing image so that "refetch from the next level" is a real,
//!   verifiable operation.
//! * [`hierarchy`] — the composed L1I / L1D+WB / unified-L2 / bus / DRAM
//!   system with latency semantics matching `sim-outorder`.
//! * [`layout`] — the physical data-array layout (bit-interleaving
//!   degree) that decides which logical words a spatial multi-bit upset
//!   lands in.
//!
//! Cycle counts are plain `u64`s named `now`; all components are
//! deterministic and single-threaded, as a cycle-level simulator must be.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bus;
pub mod cache;
pub mod census;
pub mod config;
pub mod hierarchy;
pub mod layout;
pub mod memory;
pub mod stats;
pub mod write_buffer;

pub use addr::{Addr, LineAddr};
pub use bus::Bus;
pub use cache::{AccessKind, AccessOutcome, Cache, CleanRule, L2Event, WbClass};
pub use config::{AllocPolicy, CacheConfig, HierarchyConfig, WritePolicy};
pub use hierarchy::{MemoryHierarchy, OpCounts};
pub use layout::ArrayLayout;
pub use memory::MainMemory;
pub use stats::CacheStats;

/// A simulation cycle count.
pub type Cycle = u64;
