//! Full-system CLR-DRAM simulation and the paper's experiments.
//!
//! This crate wires together the CPU cluster ([`clr_cpu`]), the memory
//! controller ([`clr_memsim`]), the workload models ([`clr_trace`]), the
//! energy model ([`clr_power`]) and — for the circuit-level experiments —
//! the transient simulator ([`clr_circuit`]), reproducing every table and
//! figure of the paper's evaluation:
//!
//! | module | experiments |
//! |---|---|
//! | [`experiment::circuit`] | Table 1, Figures 7, 8, 11 |
//! | [`experiment::single`] | Figure 12, Figure 14a |
//! | [`experiment::multi`] | Figure 13, Figure 14b |
//! | [`experiment::refresh`] | Figure 15 |
//! | [`experiment::sysconfig`] | Table 2 (configuration dump) |
//! | [`experiment::policies`] | dynamic mode-management policy sweep (§6) |
//!
//! The clock-domain crossing follows Table 2: cores at 4 GHz, DDR4 bus at
//! 1200 MHz — exactly 10 CPU cycles per 3 DRAM cycles.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiment;
pub mod metrics;
pub mod policyrun;
pub mod report;
pub mod scale;
pub mod system;
pub mod translate;

pub use metrics::{geomean, max_slowdown, weighted_speedup};
pub use policyrun::{run_policy_workloads, PolicyRunConfig, PolicyRunResult};
pub use scale::Scale;
pub use system::{host_parallelism, per_core_seed, run_workloads, RunConfig, RunResult};
