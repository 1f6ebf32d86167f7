//! Memory hierarchy models: on-chip caches, the DRAM/controller, and the
//! physical address map.

mod cache;
mod dram;
pub mod map;

pub use cache::{Access, Cache, CacheStats};
pub use dram::{Dram, TrafficKind, TrafficStats};
pub use map::AddressMap;
