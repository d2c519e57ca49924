//! Closed-loop benchmark of the Clara feedback service: seeded workloads,
//! the in-process deployment and its load generator, and the traced replay
//! that splits a request's time into per-layer spans.

pub mod load;
pub mod stats;
pub mod trace;
pub mod workload;
