//! `wlm-benchmark`: end-to-end and per-layer host-performance benchmark of
//! the wlm simulator. See `README.md` beside this crate's manifest.

pub mod alloc;
pub mod measure;
pub mod names;
pub mod probe;
pub mod run;
pub mod stats;
pub mod suite;
pub mod system;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
