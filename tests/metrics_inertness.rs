//! The continuous-telemetry contract, enforced end to end:
//!
//! 1. **Inertness** — enabling metrics changes no simulated outcome
//!    (IPC, cycle counts, per-channel statistics, policy decisions), at
//!    every walk level: per-cycle and skip-ahead.
//! 2. **Exactness** — the series themselves are bit-identical across
//!    both walks: window boundaries are exact-cycle events the
//!    skip-ahead jump cap is clamped to, so every walk closes every
//!    window at the same cycle with the same exact statistics delta.
//!
//! This is the telemetry analogue of `tests/trace_inertness.rs` and
//! `tests/skip_ahead_differential.rs`.

use clr_dram::memsim::frames::DestinationPicker;
use clr_dram::memsim::migrate::RelocationConfig;
use clr_dram::obs::{MetricsConfig, SloSpec, WindowMetric, WindowedObjective};
use clr_dram::policy::budget::BudgetSplit;
use clr_dram::policy::policy::{PolicyConstraints, PolicySpec};
use clr_dram::sim::experiment::policies::{policy_cluster, policy_mem_config};
use clr_dram::sim::policyrun::{run_policy_workloads, PolicyRunConfig, PolicyRunResult};
use clr_dram::sim::system::RunConfig;
use clr_dram::trace::phase::PhaseShiftSpec;
use clr_dram::trace::workload::Workload;

const INTERVAL: u64 = 2_000;

/// The same 2-channel cross-channel policy scenario the tracing
/// differential uses — background migrations, demand-proportional
/// budgets, channel skew — so the series carry nonzero migration and
/// budget signals.
fn run(metrics: Option<MetricsConfig>, skip_ahead: bool) -> PolicyRunResult {
    let mut mem = policy_mem_config(0.0);
    mem.geometry.channels = 2;
    mem.relocation = RelocationConfig::background();
    mem.placement = DestinationPicker::CrossChannel;
    let base = RunConfig {
        mem,
        cluster: policy_cluster(),
        budget_insts: 15_000,
        warmup_insts: 1_000,
        seed: 5,
        skip_ahead,
        trace: None,
        metrics,
        threads: 1,
        clamp_threads: true,
        blame: false,
    };
    let cfg = PolicyRunConfig::new(
        base,
        PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
        PolicyConstraints::with_budget(0.25),
        2_500,
    )
    .with_budget_split(BudgetSplit::demand_proportional());
    let spec = PhaseShiftSpec {
        footprint_mib: 1,
        accesses_per_phase: 800,
        ..PhaseShiftSpec::paper_default()
    }
    .with_channel_skew(2, 0);
    run_policy_workloads(&[Workload::PhaseShift(spec)], &cfg)
}

fn metrics_on() -> Option<MetricsConfig> {
    Some(MetricsConfig::every(INTERVAL))
}

/// Asserts the full simulated outcome is bit-identical between two runs.
fn assert_same_outcome(a: &PolicyRunResult, b: &PolicyRunResult, what: &str) {
    assert_eq!(a.run.ipc, b.run.ipc, "IPC diverges: {what}");
    assert_eq!(a.run.cpu_cycles, b.run.cpu_cycles, "{what}");
    assert_eq!(a.run.dram_cycles, b.run.dram_cycles, "{what}");
    assert_eq!(a.run.mem, b.run.mem, "fused statistics diverge: {what}");
    assert_eq!(a.run.mem_per_channel, b.run.mem_per_channel, "{what}");
    assert_eq!(a.rows_remapped, b.rows_remapped, "{what}");
    assert_eq!(a.final_hp_fraction, b.final_hp_fraction, "{what}");
    assert_eq!(
        a.policy_stats_per_channel, b.policy_stats_per_channel,
        "{what}"
    );
}

#[test]
fn metrics_change_no_simulated_outcome_at_any_walk_level() {
    for skip_ahead in [false, true] {
        let off = run(None, skip_ahead);
        let on = run(metrics_on(), skip_ahead);
        assert_same_outcome(&off, &on, &format!("skip_ahead={skip_ahead}"));
        assert!(off.run.metrics.is_none());
        assert!(off.policy_series.is_none());
        assert!(on.run.metrics.is_some());
        assert!(on.policy_series.is_some());
    }
}

#[test]
fn series_are_bit_identical_across_walks() {
    let per_cycle = run(metrics_on(), false);
    let skip = run(metrics_on(), true);
    assert_same_outcome(&per_cycle, &skip, "per-cycle vs skip-ahead");

    let a = per_cycle.run.metrics.as_ref().unwrap();
    let b = skip.run.metrics.as_ref().unwrap();
    assert_eq!(
        a.per_channel, b.per_channel,
        "per-cycle vs skip-ahead series diverge"
    );
    assert_eq!(a.system(), b.system());
    assert_eq!(per_cycle.policy_series, skip.policy_series);
}

#[test]
fn windows_tile_the_run_at_exact_boundaries() {
    let r = run(metrics_on(), true);
    let m = r.run.metrics.as_ref().unwrap();
    assert_eq!(m.interval_cycles, INTERVAL);
    assert_eq!(m.per_channel.len(), 2);
    for series in &m.per_channel {
        assert!(series.len() >= 2, "run must span several windows");
        let windows: Vec<_> = series.windows().collect();
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            // Every window except the final partial one has exactly the
            // configured length, and consecutive windows tile with no
            // gaps — the boundary fired at the exact cycle.
            if i + 1 < windows.len() {
                assert_eq!(w.cycles(), INTERVAL, "window {i} off-boundary");
                assert_eq!(w.end_cycle, windows[i + 1].start_cycle);
            } else {
                assert!(w.cycles() <= INTERVAL);
            }
        }
        // The series totals reconcile with eviction accounting.
        let live: u64 = series.windows().map(|w| w.counters.reads).sum();
        assert_eq!(series.evicted_totals().reads + live, series.totals().reads);
    }

    // The windowed counters fuse to the whole-run channel activity:
    // metrics cover warmup too, so the totals bound the measurement
    // window's statistics from above.
    let fused = m.system();
    assert!(fused.totals().reads >= r.run.mem.reads);
    assert!(fused.totals().migration_jobs >= r.run.mem.migration_jobs_completed);
    assert!(
        fused.totals().migration_jobs > 0,
        "scenario must migrate in background"
    );
    assert!(fused.total_latency().count() > 0);

    // The policy series anchors one window per epoch boundary.
    let ps = r.policy_series.as_ref().unwrap();
    assert!(!ps.is_empty());
    assert!(ps.totals().mode_transitions > 0);
    for w in ps.windows() {
        assert_eq!(w.end_cycle % 2_500, 0, "epoch off-boundary");
    }
}

#[test]
fn slo_spec_evaluates_the_scenario_series() {
    let r = run(metrics_on(), true);
    let system = r.run.metrics.as_ref().unwrap().system();

    // The background-relocation scenario never stalls, so a hard
    // zero-stall objective must pass; an absurdly tight latency bound
    // must fail and name its worst window.
    let mut spec = SloSpec::named("metrics-inertness-smoke");
    spec.windowed
        .push(WindowedObjective::hard(WindowMetric::StallCycles, 0));
    let report = spec.evaluate(&system);
    assert!(report.pass(), "background relocation must never stall");
    assert_eq!(report.windows, system.len() as u64);

    let mut tight = SloSpec::named("impossible");
    tight
        .windowed
        .push(WindowedObjective::hard(WindowMetric::ReadP99, 0));
    let bad = tight.evaluate(&system);
    assert!(!bad.pass(), "a zero-latency bound cannot hold");
    assert!(bad.objectives[0].violations > 0);
    assert!(bad.objectives[0].worst_value > 0);

    // Determinism: evaluating twice yields the same report.
    assert_eq!(spec.evaluate(&system), spec.evaluate(&system));
}
