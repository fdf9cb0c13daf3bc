//! `dws-benchmark`: the repository's host-performance benchmark.
//!
//! Five workloads that each load a different layer of the simulator
//! ([`workloads`]), an untraced run that yields the end-to-end metrics and
//! a traced run that decomposes host time at the `dws-sim` / `dws-core` /
//! `dws-mem` seams from outside the simulator ([`measure`], [`traced`]),
//! isolated per-layer probes ([`probes`]), and the harness that runs every
//! workload in its own process, prints the metrics and compares two result
//! files ([`harness`]). See `README.md` for the glossary and `/BENCHMARK.json`
//! for the names, units, directions and bounds.

pub mod harness;
pub mod json;
pub mod measure;
pub mod probes;
pub mod stats;
pub mod traced;
pub mod workloads;
