//! Transient circuit simulation of CLR-DRAM's subarray (the paper's SPICE
//! layer, §7).
//!
//! The paper derives Table 1 and Figures 7/8/11 from HSPICE runs over a
//! Rambus-derived DRAM array model with PTM 22 nm transistors. This crate
//! rebuilds that layer from scratch:
//!
//! * [`matrix`] — sparse LU solver: partial pivoting that visits only
//!   structural nonzeros, bit-identical to dense elimination,
//! * [`devices`] — resistor/capacitor/MOSFET (square-law, symmetric
//!   source/drain) companion models,
//! * [`netlist`] — circuit construction,
//! * [`transient`] — backward-Euler + Newton–Raphson transient engine
//!   with externally slewable sources (wordlines, sense enables, ...);
//!   linear stamps are built once per step size and source connectivity,
//!   and each Newton iteration adds only the MOSFET stamps,
//! * [`dram`] — subarray netlists for the open-bitline baseline and
//!   CLR-DRAM's max-capacity / high-performance topologies (Figures 4–6),
//! * [`scenario`] — ACT → restore → PRE and write-recovery state machines
//!   with threshold-crossing measurement of tRCD/tRAS/tRP/tWR,
//! * [`timing`] — Table 1 extraction across the four configurations (one
//!   high-performance run yields both early-termination columns),
//! * [`montecarlo`] — ±5 % process variation, worst-case timing
//!   (§7.1's 10⁴-iteration methodology, iteration count scalable),
//! * [`retention`] — cell leakage, the tREFW → initial-charge model, and
//!   the Figure 11 sweep.
//!
//! Absolute nanosecond values depend on calibration of the analog
//! parameters ([`params::CircuitParams`]); the experiments therefore
//! report both raw measurements and mode-vs-baseline *ratios*, which are
//! governed by topology (what CLR-DRAM changes) rather than calibration.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibrate;
pub mod devices;
pub mod dram;
pub mod matrix;
pub mod montecarlo;
pub mod netlist;
pub mod params;
pub mod retention;
pub mod scenario;
pub mod timing;
pub mod transient;

pub use params::CircuitParams;
pub use timing::{measure_table1, Table1Measurement};
