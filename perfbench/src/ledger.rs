//! The per-layer ledger: every metric the traced run reports, with the
//! end-to-end metric (and workload) it should move.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each crate's public functions. Every traced run reports every metric;
//! a layer the workload never enters reads 0 (its counts are 0, and its
//! times and ratios are reported as 0 rather than guessed). The comment
//! over each group names the workload it is measured on; `moves` names
//! the end-to-end metric it should move, and on which workload.

use std::collections::BTreeMap;

/// One per-layer metric.
pub struct Spec {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

macro_rules! specs {
    ($($name:literal $unit:literal $better:literal $moves:literal;)*) => {
        /// Every per-layer metric, in `BENCHMARK.json` order.
        pub const SPECS: &[Spec] = &[$(Spec { name: $name, unit: $unit, better: $better, moves: $moves }),*];
    };
}

specs! {
    // Per-workload end-to-end figures that exist on only some workloads;
    // the gated `work_per_s` carries the rate on every workload.
    "sim_minsts_per_s" "Minst/s" "higher" "is work_per_s on paper-single, policy-contention, fleet";
    "mc_iters_per_s" "iter/s" "higher" "is work_per_s on circuit-mc";
    "paper_gap_pp" "pp" "lower" "accuracy: Fig. 12 GMEAN gains on paper-single, Table 1 reductions on circuit-mc";
    "failed_frac" "ratio" "lower" "failed / attempted, every workload (the result's failed field)";
    // trace: clr_trace + clr_sim::translate, through a TraceSource wrapper.
    "trace.items" "count" "lower" "work_per_s on paper-single";
    "trace.s" "s" "lower" "work_per_s on paper-single";
    "trace.ns_per_item" "ns" "lower" "work_per_s on paper-single";
    // core set-up (measured on paper-single).
    "setup.profile_s" "s" "lower" "setup_s on paper-single; wall_s on fleet";
    "setup.placement_s" "s" "lower" "setup_s on paper-single; wall_s on fleet";
    "setup.construct_s" "s" "lower" "setup_s on paper-single; wall_s on fleet";
    // cpu: CpuCluster::tick / skip_to, self time excluding trace
    // (measured on paper-single).
    "cpu.ticks" "count" "lower" "work_per_s on paper-single, policy-contention";
    "cpu.s" "s" "lower" "work_per_s on paper-single, policy-contention";
    "cpu.ns_per_tick" "ns" "lower" "work_per_s on paper-single, policy-contention";
    "cpu.skips" "count" "higher" "work_per_s on paper-single, policy-contention";
    // memsim per-call spans (measured on paper-single: the policy run's
    // epoch loop is crate-private, so policy-contention cannot be re-driven).
    "memsim.enqueue.requests" "count" "lower" "work_per_s on policy-contention";
    "memsim.enqueue.refused" "count" "lower" "work_per_s on policy-contention";
    "memsim.enqueue.s" "s" "lower" "work_per_s on policy-contention";
    "memsim.tick.calls" "count" "lower" "work_per_s on policy-contention";
    "memsim.tick.s" "s" "lower" "work_per_s on policy-contention";
    "memsim.tick.ns_per_call" "ns" "lower" "work_per_s on policy-contention";
    "memsim.tick_until.calls" "count" "lower" "work_per_s on policy-contention and paper-single";
    "memsim.tick_until.s" "s" "lower" "work_per_s on policy-contention and paper-single";
    "memsim.tick_until.dram_cycles" "count" "higher" "work_per_s on policy-contention and paper-single";
    "memsim.bound.queries" "count" "lower" "work_per_s on policy-contention";
    "memsim.bound.jumps" "count" "higher" "work_per_s on policy-contention";
    "memsim.bound.jump_ratio" "ratio" "higher" "work_per_s on policy-contention";
    "memsim.bound.s" "s" "lower" "work_per_s on policy-contention";
    "memsim.deliver.completions" "count" "lower" "work_per_s on policy-contention";
    "memsim.deliver.s" "s" "lower" "work_per_s on policy-contention";
    "memsim.ns_per_event" "ns" "lower" "work_per_s on policy-contention";
    // Walk and merge, from RunResult::host_walk_s / host_merge_s
    // (measured on paper-single and policy-contention).
    "memsim.walk_s" "s" "lower" "work_per_s on policy-contention";
    "memsim.merge_s" "s" "lower" "work_per_s on policy-contention";
    // Simulated denominators (every simulator workload): exact counts a
    // speed-only change must leave unchanged.
    "dram.cycles" "count" "lower" "none: unchanged by a speed-only change";
    "dram.ticked_cycles" "count" "lower" "none: unchanged by a speed-only change";
    "dram.skipped_cycles" "count" "higher" "none: unchanged by a speed-only change";
    "dram.events_per_kcycle" "1/kcycle" "lower" "none: unchanged by a speed-only change";
    "dram.row_hit_rate" "ratio" "higher" "none: unchanged by a speed-only change";
    "dram.read_p99_cycles" "cycles" "lower" "none: unchanged by a speed-only change";
    // policy / migrate / placement (measured on policy-contention).
    "policy.s" "s" "lower" "work_per_s on policy-contention only";
    "policy.transitions_applied" "count" "lower" "work_per_s on policy-contention only";
    "migrate.jobs" "count" "lower" "work_per_s on policy-contention only";
    "migrate.slot_util" "ratio" "lower" "work_per_s on policy-contention only";
    "migrate.stall_cycles" "cycles" "lower" "work_per_s on policy-contention only";
    "placement.frames_moved" "count" "lower" "work_per_s on policy-contention only";
    "placement.rows_remapped" "count" "lower" "work_per_s on policy-contention only";
    // Observers: loop seconds with the observer on over loop seconds with
    // both off, minus 1 (measured on policy-contention).
    "obs.metrics.overhead_frac" "ratio" "lower" "work_per_s on policy-contention and fleet (blame on)";
    "obs.blame.overhead_frac" "ratio" "lower" "work_per_s on policy-contention and fleet (blame on)";
    "obs.both.overhead_frac" "ratio" "lower" "work_per_s on policy-contention and fleet (blame on)";
    // fleet (measured on fleet).
    "fleet.instance_ms_p50" "ms" "lower" "wall_s on fleet";
    "fleet.instance_ms_p99" "ms" "lower" "wall_s on fleet";
    "fleet.pool_busy_frac" "ratio" "higher" "wall_s on fleet";
    "fleet.fuse_s" "s" "lower" "wall_s on fleet";
    // circuit: perturb, and measure_mode per topology (measured on
    // circuit-mc).
    "circuit.perturb_s" "s" "lower" "work_per_s on circuit-mc";
    "circuit.baseline_s" "s" "lower" "work_per_s on circuit-mc";
    "circuit.max_capacity_s" "s" "lower" "work_per_s on circuit-mc";
    "circuit.hp_s" "s" "lower" "work_per_s on circuit-mc";
    "circuit.hp_et_s" "s" "lower" "work_per_s on circuit-mc";
    "circuit.mode_ms_p50" "ms" "lower" "work_per_s on circuit-mc";
    // Per-call spread (paper-single's 426 calls; policy-contention's
    // cells), loop time outside every layer span, and tracing's own cost.
    "sim.run_ms_p50" "ms" "lower" "wall_s on paper-single";
    "sim.run_ms_p95" "ms" "lower" "wall_s on paper-single";
    "sim.glue_s" "s" "lower" "work_per_s on paper-single";
    "traced.overhead_frac" "ratio" "lower" "none: the traced run's cost over the plain pass";
}

/// The spec of metric `name`.
///
/// # Panics
///
/// Panics if `name` is not in [`SPECS`] (a typo in the benchmark).
pub fn spec(name: &str) -> &'static Spec {
    SPECS
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown ledger metric {name}"))
}

/// Accumulated per-layer values.
#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        spec(name);
        self.0.insert(name, v);
    }

    /// Adds `v` to metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        spec(name);
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Current value of `name` (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric in [`SPECS`] order, 0 for those never set.
    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        SPECS
            .iter()
            .map(|s| (s.name, self.get(s.name), s.unit))
            .collect()
    }
}
