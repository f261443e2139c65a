//! # unbundled-storage
//!
//! Simulated durable substrate for the unbundled kernel.
//!
//! The CIDR 2009 paper has no testbed; the protocols it describes rely on
//! exactly three properties of stable storage, which this crate provides
//! (and nothing more, so every protocol path is genuinely exercised):
//!
//! 1. **Page stores write atomically** and survive crashes — [`SimDisk`].
//! 2. **Logs are append-only with an explicit force point**; a crash loses
//!    precisely the unforced tail — [`LogStore`].
//! 3. **Volatile state dies with its component** — crash methods on both.
//!
//! Both devices keep I/O statistics ([`IoStats`]) so experiments can
//! report page writes, log bytes and force counts, which stand in for the
//! paper's (unreported) I/O costs.

#![warn(missing_docs)]

pub mod disk;
pub mod log;
pub mod stats;

pub use disk::SimDisk;
pub use log::{ForceArbiter, ForceArbiterStats, GatherWindow, GroupForceStats, LogStore};
pub use stats::IoStats;
