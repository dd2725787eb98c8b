//! **CLR-DRAM** — a full-system reproduction of *"CLR-DRAM: A Low-Cost DRAM
//! Architecture Enabling Dynamic Capacity-Latency Trade-Off"* (Luo et al.,
//! ISCA 2020).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`arch`] ([`clr_core`]) — the CLR-DRAM architecture model: row
//!   operating modes, timing sets, geometry/addressing, hot-page mapping,
//!   refresh planning;
//! * [`circuit`] ([`clr_circuit`]) — the transient circuit simulator that
//!   regenerates Table 1 and Figures 7/8/11 from first principles;
//! * [`memsim`] ([`clr_memsim`]) — the cycle-accurate DDR4 device +
//!   memory-controller model with per-row CLR timing, an event-driven
//!   skip-ahead core (bit-identical to per-cycle stepping; see the crate
//!   docs for the event model), and a channel-sharded `MemorySystem`
//!   front end (one independent controller per channel);
//! * [`cpu`] ([`clr_cpu`]) — the trace-driven core and LLC models;
//! * [`trace`] ([`clr_trace`]) — workload models and trace generators;
//! * [`power`] ([`clr_power`]) — the DRAMPower-style energy model;
//! * [`policy`] ([`clr_policy`]) — the dynamic mode-management runtime:
//!   per-row telemetry, pluggable policies, relocation-cost model;
//! * [`sim`] ([`clr_sim`]) — full-system experiment runners for every
//!   table and figure in the paper, plus the dynamic-policy sweep.
//!
//! # Quickstart
//!
//! ```
//! use clr_dram::arch::geometry::DramGeometry;
//! use clr_dram::arch::mode::RowMode;
//! use clr_dram::arch::timing::ClrTimings;
//!
//! // The four Table-1 timing sets:
//! let timings = ClrTimings::from_circuit_defaults();
//! let hp = timings.for_mode(RowMode::HighPerformance);
//! println!("high-performance tRCD = {} ns", hp.t_rcd_ns);
//!
//! // Capacity cost of an all-high-performance configuration:
//! let geom = DramGeometry::ddr4_16gb_x8();
//! let usable = clr_dram::arch::capacity::effective_capacity_bytes(&geom, 1.0);
//! assert_eq!(usable, geom.capacity_bytes() / 2);
//! ```
//!
//! # Dynamic mode management (`policy`)
//!
//! The paper's headline property — rows reconfigure **at activation
//! time** — only pays off with system software deciding *which* rows,
//! *when*. The [`policy`] layer provides that: the memory controller
//! exports per-row access telemetry each epoch, a pluggable policy
//! (static split, utilization threshold, top-K hotness, or
//! migration-cost-aware hysteresis) proposes transitions against the
//! controller's shared mode table, and a validating runtime applies them,
//! charging the relocation engine's data-movement cost:
//!
//! ```
//! use clr_dram::arch::geometry::DramGeometry;
//! use clr_dram::arch::mode::{ModeTable, RowMode};
//! use clr_dram::policy::policy::{PolicyConstraints, PolicySpec};
//! use clr_dram::policy::reloc::RelocationEngine;
//! use clr_dram::policy::runtime::PolicyRuntime;
//! use clr_dram::policy::telemetry::{EpochTelemetry, RowId};
//!
//! let mut modes = ModeTable::new(&DramGeometry::tiny());
//! let mut rt = PolicyRuntime::new(
//!     PolicySpec::Hysteresis.build(),
//!     PolicyConstraints::with_budget(0.25), // give up ≤ 12.5 % capacity
//!     RelocationEngine::default(),
//! );
//! // Hysteresis promotes only *persistently* hot rows: the row must
//! // stay promotion-worthy for two consecutive epochs.
//! for e in 0..2 {
//!     let mut epoch = EpochTelemetry::new(e, 50_000);
//!     epoch.record(RowId::new(0, 9), 300); // the hot row persists
//!     let outcome = rt.on_epoch(&epoch, &modes);
//!     PolicyRuntime::apply(&outcome, &mut modes);
//! }
//! assert_eq!(modes.mode_of(0, 9), RowMode::HighPerformance);
//! ```
//!
//! # Background row migration
//!
//! How a validated transition batch *lands* is configurable
//! ([`memsim::migrate`]): the legacy model charges the priced data
//! movement as a controller-wide stall, while
//! `RelocationMode::Background` decomposes each coupling into a per-row
//! job — read-out, couple, write-back into a destination frame — whose
//! commands steal idle bank slots while demand traffic keeps flowing
//! (only the row whose content is in flux blocks, and reads of the
//! source stay servable during read-out):
//!
//! ```
//! use clr_dram::arch::mode::RowMode;
//! use clr_dram::memsim::config::MemConfig;
//! use clr_dram::memsim::controller::MemoryController;
//! use clr_dram::memsim::migrate::RelocationConfig;
//!
//! let mut cfg = MemConfig::tiny_clr(0.0);
//! cfg.refresh_enabled = false;
//! cfg.relocation = RelocationConfig::background();
//! let mut mc = MemoryController::new(cfg);
//! // Promote a row: the mode flips at the job's couple point, not here.
//! mc.begin_row_migrations(&[(0, 3, RowMode::HighPerformance)]);
//! let mut done = Vec::new();
//! while mc.pending_migrations() > 0 {
//!     mc.tick(&mut done);
//! }
//! assert_eq!(mc.mode_of_row(0, 3), RowMode::HighPerformance);
//! assert_eq!(mc.stats().relocation_stall_cycles, 0); // no stall-the-world
//! assert!(mc.stats().migration_jobs_completed > 0);
//! ```
//!
//! End-to-end, `clr_dram::sim::policyrun::run_policy_workloads` runs this
//! loop against the cycle-accurate memory system (dispatching batches as
//! background migration whenever the memory configuration says so), and
//! the `policy_sweep` binary in `crates/bench` compares policies ×
//! workloads × relocation models (IPC, energy, capacity loss,
//! migration-slot utilization) on the drifting-hot-set workload plus two
//! contrast columns (stable-hot and uniform-random) and a contention
//! sweep (below). Background migration equals or beats stall-the-world
//! on every cell of the default sweep.
//!
//! # Channel-sharded memory system
//!
//! The memory side scales past one channel through
//! [`memsim::system::MemorySystem`]: configure `geometry.channels` and
//! every channel gets its own controller — own mode table, refresh
//! streams, migration engine, scheduler lanes — with requests routed by
//! the address mapping's bijective channel split and consecutive cache
//! lines alternating channels:
//!
//! ```
//! use clr_dram::arch::addr::PhysAddr;
//! use clr_dram::memsim::config::MemConfig;
//! use clr_dram::memsim::request::{MemRequest, RequestKind};
//! use clr_dram::memsim::system::MemorySystem;
//!
//! let mut cfg = MemConfig::paper_tiny();
//! cfg.geometry.channels = 2;
//! let mut sys = MemorySystem::new(cfg);
//! // Consecutive lines land on alternating channels.
//! assert_eq!(sys.route(PhysAddr(0)).0, 0);
//! assert_eq!(sys.route(PhysAddr(64)).0, 1);
//! sys.try_enqueue(MemRequest::new(0, PhysAddr(0), RequestKind::Read, 0))
//!     .unwrap();
//! sys.try_enqueue(MemRequest::new(1, PhysAddr(64), RequestKind::Read, 0))
//!     .unwrap();
//! let mut done = Vec::new();
//! sys.tick_until(2_000, &mut done); // skip-ahead, bit-identical to tick()
//! assert_eq!(done.len(), 2);
//! assert_eq!(sys.fused_stats().reads, 2);
//! ```
//!
//! A policy run on a sharded system keeps one `PolicyRuntime` per
//! channel; a `clr_dram::policy::budget::BudgetSplit` partitions the
//! global fast-row capacity budget across them — evenly, or rebalanced
//! each epoch in proportion to per-channel demand
//! (`PolicyRunConfig::with_budget_split`). The `policy_sweep` binary's
//! contention sweep (core counts × channel counts × budget splits ×
//! policies, schema `clr-dram/policy-sweep/v7`) reports per-core IPC,
//! weighted speedup, and max slowdown against per-core alone baselines.
//!
//! # Capacity directory: placement and cross-channel frame rebalancing
//!
//! Where a coupling's displaced half-row *lands* is a placement decision
//! ([`memsim::frames`]): same-bank placement puts a job's read-out and
//! write-back sides on one bank, where they serialize on its one row
//! buffer; `DestinationPicker::CrossBank` places the destination frame
//! in another bank, so the two sides issue into **two banks
//! concurrently** (the destination's
//! ACT/tRCD hides under the read bursts and the write bursts chase the
//! reads); `DestinationPicker::CrossChannel` additionally runs a
//! system-level rebalancer that moves whole *frames* between channels at
//! epoch boundaries — hot rows overflowing a saturated channel's
//! fast-row budget are evacuated into an underloaded channel's free
//! frames as staged background jobs (evacuate-out → fill-in), tracked by
//! a per-channel `FrameDirectory` and made addressable again by the
//! system's [`memsim::system::RemapTable`], a row-granular indirection
//! applied after the channel route whose installs compose as
//! transpositions, so `remap ∘ route` stays a bijection with an exact
//! inverse for `unroute`:
//!
//! ```
//! use clr_dram::arch::addr::PhysAddr;
//! use clr_dram::memsim::config::MemConfig;
//! use clr_dram::memsim::migrate::RelocationConfig;
//! use clr_dram::memsim::system::{MemorySystem, RowKey};
//!
//! let mut cfg = MemConfig::paper_tiny();
//! cfg.geometry.channels = 2;
//! cfg.refresh_enabled = false;
//! cfg.relocation = RelocationConfig::background();
//! let mut sys = MemorySystem::new(cfg);
//! // Move row 5 of channel 0, bank 0 into a frame on channel 1. The
//! // read-out runs now; the fill dispatches at the next pump after it
//! // lands (pumps run at deterministic cycles — epoch boundaries in the
//! // policy runtime — so skip-ahead stays bit-identical).
//! let dest = sys.schedule_row_export(0, 0, 5, 1).expect("frame reserved");
//! let mut done = Vec::new();
//! sys.tick_until(30_000, &mut done);
//! sys.pump_placement(); // read-out landed → dispatch the fill
//! sys.tick_until(60_000, &mut done);
//! sys.pump_placement(); // fill landed → remap installed, frame freed
//! assert_eq!(sys.remap_table().installs(), 1);
//! let addr = PhysAddr(0); // routes to (channel 0, bank 0, row 0) …
//! let (ch, local) = sys.route(addr);
//! assert_eq!(sys.unroute(ch, local), addr); // … and unroute inverts it
//! assert!(sys.channel(0).frame_directory().is_free(0, 5));
//! let _ = dest;
//! ```
//!
//! The policy-side cost model prices what the engine will do:
//! `clr_dram::policy::reloc::DestinationSpread` drops one of the two
//! per-row row-overhead windows under cross-bank placement, so
//! hysteresis-style payoff thresholds match the measured overlapped
//! behavior. The `policy_sweep` binary's placement sweep compares
//! same-bank (budget-only rebalancing) vs cross-bank vs cross-channel on
//! a channel-skewed hot-set mix (`CLR_SWEEP=placement` for the fast
//! local mode); `examples/capacity_rebalance.rs` is the runnable
//! before/after demonstration.
//!
//! # Simulation speed
//!
//! The full-system loop is event-driven where it can be: when every core
//! is stalled on memory and no DRAM command can issue, both clock domains
//! jump to the next event instead of ticking through dead cycles. The
//! accelerated walk is bit-identical to per-cycle stepping — enforced by
//! `tests/skip_ahead_differential.rs` — and can be disabled per run via
//! `RunConfig::skip_ahead` (or `CLR_FORCE_PER_CYCLE=1` for the policy
//! sweep). CI runs the smoke policy sweep under both walks and compares
//! the JSON byte for byte; simulator timing lives in `perfbench/`.
//!
//! # Continuous telemetry and SLOs
//!
//! Any run can sample time-series metrics in simulated-cycle time
//! (`RunConfig::metrics` / `CLR_METRICS`): fixed-interval windows of
//! exact counter deltas, boundary gauges, and windowed read-latency
//! quantiles, per channel and fused system-wide
//! (`RunResult::metrics`). Boundaries are exact-cycle events the
//! skip-ahead walk clamps to, so the series are bit-identical across
//! per-cycle and skip-ahead walks, and — like tracing —
//! provably inert (`tests/observer_inertness.rs`). `clr_dram::obs`'s
//! SLO engine evaluates declarative objectives with error budgets and
//! burn-rate alerts over any series; every `policy_sweep` cell carries
//! its verdict, and the `slo_report` binary gates the CI smoke cell
//! (`clr-dram/slo/v1`).
//!
//! See `examples/` for runnable end-to-end scenarios (in particular
//! `examples/dynamic_policy.rs`) and `crates/bench` for the binaries
//! regenerating every table and figure of the paper.

#![warn(missing_docs)]

/// The CLR-DRAM architecture model (re-export of [`clr_core`]).
pub mod arch {
    pub use clr_core::*;
}

/// Transient circuit simulation (re-export of [`clr_circuit`]).
pub mod circuit {
    pub use clr_circuit::*;
}

/// Observability: latency histograms, event tracing, skip-ahead
/// profiling, time-series metrics, SLOs (re-export of [`clr_obs`]).
pub mod obs {
    pub use clr_obs::*;
}

/// Cycle-accurate DRAM + controller (re-export of [`clr_memsim`]).
pub mod memsim {
    pub use clr_memsim::*;
}

/// Trace-driven CPU + LLC (re-export of [`clr_cpu`]).
pub mod cpu {
    pub use clr_cpu::*;
}

/// Workload and trace generation (re-export of [`clr_trace`]).
pub mod trace {
    pub use clr_trace::*;
}

/// DRAM energy/power modelling (re-export of [`clr_power`]).
pub mod power {
    pub use clr_power::*;
}

/// Dynamic capacity-latency mode management (re-export of [`clr_policy`]).
pub mod policy {
    pub use clr_policy::*;
}

/// Full-system experiments (re-export of [`clr_sim`]).
pub mod sim {
    pub use clr_sim::*;
}

/// Fleet-scale batched simulation (re-export of [`clr_fleet`]).
pub mod fleet {
    pub use clr_fleet::*;
}
