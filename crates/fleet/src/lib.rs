//! Fleet-scale batched simulation: hundreds to thousands of
//! heterogeneous CLR-DRAM instances as jobs on one executor.
//!
//! A *fleet* models an operator's view of CLR-DRAM: many independent
//! small systems — per-tenant workload mixes, seeds, geometries,
//! relocation models, and mode-management policies all varying across
//! instances — simulated as whole-instance jobs on the workspace's one
//! job runner, [`Executor`](clr_memsim::Executor). Each instance is a
//! complete [`clr_sim`] run (optionally with a [`clr_policy`] runtime in
//! the loop); the fleet layer adds:
//!
//! * **deterministic synthesis** — [`FleetSpec::synth`] expands a
//!   `(count, seed, scale)` triple into a reproducible heterogeneous
//!   instance roster ([`spec`]);
//! * **batched execution** — [`run_fleet`] submits every instance to
//!   the shared pool and collects results in instance order, so the
//!   report is bit-identical for any pool size ([`run`]);
//! * **distribution fusion** — fleet-level read-latency percentiles
//!   come from exact [`LatencyHistogram`](clr_obs::LatencyHistogram)
//!   bucket folds over the per-instance histograms (no re-simulation),
//!   alongside per-tenant slowdowns, capacity forfeited, and migration
//!   energy; a fleet [`SloSpec`](clr_obs::SloSpec) — instance-granular
//!   error budgets plus fused scalar bounds — yields the verdict
//!   embedded in the `clr-dram/fleet/v1` JSON ([`report`]).
//!
//! The JSON deliberately carries **no host wall-clock**: same spec +
//! same seed ⇒ byte-identical bytes regardless of pool size or host.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod report;
pub mod run;
pub mod spec;

pub use report::{fleet_series, fleet_slo_spec, FleetReport, InstanceResult};
pub use run::{run_fleet, run_instance};
pub use spec::{FleetSpec, InstanceSpec};
