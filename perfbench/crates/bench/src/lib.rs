//! End-to-end and per-layer benchmark of the paper workloads.
//!
//! The binary (`src/main.rs`) runs one workload per process and prints
//! its metrics; see `perfbench/README.md` for the metric table and the
//! command. This library holds the pieces the tests exercise too:
//! the workloads ([`workload`]), the outside-in layer profiler with its
//! `Scheduler` and `CongestionControl` decorators ([`prof`]), and the
//! counting allocator ([`alloc`]).

pub mod alloc;
pub mod prof;
pub mod refkernel;
pub mod workload;
