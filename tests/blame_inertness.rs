//! The wait-cause attribution contract, enforced end to end:
//!
//! 1. **Inertness** — enabling blame changes no simulated outcome
//!    (IPC, cycle counts, per-channel statistics, policy decisions), at
//!    every walk level: per-cycle and skip-ahead.
//! 2. **Exactness** — the per-cause budgets sum *exactly* to the
//!    latency histograms they decompose: every waited cycle is charged
//!    to exactly one cause, none twice, none dropped.
//! 3. **Walk-invariance** — the blame budgets themselves are
//!    bit-identical across both walks: causes are charged from
//!    lane analysis at state-change boundaries, which every walk visits
//!    at the same cycles.
//!
//! This is the attribution analogue of `tests/metrics_inertness.rs`
//! and `tests/trace_inertness.rs`.

use clr_dram::memsim::frames::DestinationPicker;
use clr_dram::memsim::migrate::RelocationConfig;
use clr_dram::obs::WaitCause;
use clr_dram::policy::budget::BudgetSplit;
use clr_dram::policy::policy::{PolicyConstraints, PolicySpec};
use clr_dram::sim::experiment::policies::{policy_cluster, policy_mem_config};
use clr_dram::sim::policyrun::{run_policy_workloads, PolicyRunConfig, PolicyRunResult};
use clr_dram::sim::system::RunConfig;
use clr_dram::trace::phase::PhaseShiftSpec;
use clr_dram::trace::workload::Workload;

/// The same 2-channel cross-channel policy scenario the tracing and
/// telemetry differentials use — background migrations,
/// demand-proportional budgets, channel skew — so the budgets carry
/// nonzero migration-block and conflict signals.
fn run(blame: bool, skip_ahead: bool) -> PolicyRunResult {
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
        metrics: None,
        threads: 1,
        clamp_threads: true,
        blame,
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

/// Asserts the full simulated outcome is bit-identical between two
/// runs, ignoring the blame budgets themselves (cleared on both sides).
fn assert_same_outcome(a: &PolicyRunResult, b: &PolicyRunResult, what: &str) {
    assert_eq!(a.run.ipc, b.run.ipc, "IPC diverges: {what}");
    assert_eq!(a.run.cpu_cycles, b.run.cpu_cycles, "{what}");
    assert_eq!(a.run.dram_cycles, b.run.dram_cycles, "{what}");
    let strip = |m: &clr_dram::memsim::stats::MemStats| {
        let mut m = m.clone();
        m.read_blame.clear();
        m.write_blame.clear();
        m
    };
    assert_eq!(
        strip(&a.run.mem),
        strip(&b.run.mem),
        "fused statistics diverge: {what}"
    );
    assert_eq!(a.run.mem_per_channel.len(), b.run.mem_per_channel.len());
    for (x, y) in a.run.mem_per_channel.iter().zip(&b.run.mem_per_channel) {
        assert_eq!(strip(x), strip(y), "per-channel statistics diverge: {what}");
    }
    assert_eq!(a.rows_remapped, b.rows_remapped, "{what}");
    assert_eq!(a.final_hp_fraction, b.final_hp_fraction, "{what}");
    assert_eq!(
        a.policy_stats_per_channel, b.policy_stats_per_channel,
        "{what}"
    );
}

#[test]
fn blame_changes_no_simulated_outcome_at_any_walk_level() {
    for skip_ahead in [false, true] {
        let off = run(false, skip_ahead);
        let on = run(true, skip_ahead);
        assert_same_outcome(&off, &on, &format!("skip_ahead={skip_ahead}"));
        assert!(off.run.mem.read_blame.is_empty());
        assert!(off.run.mem.write_blame.is_empty());
        assert!(!on.run.mem.read_blame.is_empty());
    }
}

#[test]
fn budgets_sum_exactly_to_latency_at_any_walk_level() {
    for skip_ahead in [false, true] {
        let on = run(true, skip_ahead);
        let what = format!("skip_ahead={skip_ahead}");
        // Fused and per-channel: every waited cycle charged exactly once.
        assert_eq!(
            on.run.mem.read_blame.total_cycles(),
            on.run.mem.read_latency_hist.sum(),
            "read budget leaks cycles: {what}"
        );
        assert_eq!(
            on.run.mem.write_blame.total_cycles(),
            on.run.mem.write_latency_hist.sum(),
            "write budget leaks cycles: {what}"
        );
        for (ch, m) in on.run.mem_per_channel.iter().enumerate() {
            assert_eq!(
                m.read_blame.total_cycles(),
                m.read_latency_hist.sum(),
                "channel {ch} read budget leaks cycles: {what}"
            );
            assert_eq!(
                m.write_blame.total_cycles(),
                m.write_latency_hist.sum(),
                "channel {ch} write budget leaks cycles: {what}"
            );
        }
        // One settle per completed request: the Service histogram has
        // exactly one sample per read.
        assert_eq!(
            on.run.mem.read_blame.of(WaitCause::Service).count(),
            on.run.mem.read_latency_hist.count(),
            "{what}"
        );
        // Reads always pay a service tail; the scenario's contention
        // must surface at least one non-service wait cause.
        assert!(on.run.mem.read_blame.of(WaitCause::Service).sum() > 0);
        let waits = on
            .run
            .mem
            .read_blame
            .dominant()
            .iter()
            .filter(|(c, _)| *c != WaitCause::Service)
            .count();
        assert!(
            waits > 0,
            "contention scenario must blame real waits: {what}"
        );
    }
}

#[test]
fn budgets_are_bit_identical_across_walks() {
    let per_cycle = run(true, false);
    let skip = run(true, true);
    assert_same_outcome(&per_cycle, &skip, "per-cycle vs skip-ahead");

    for cause in WaitCause::ALL {
        assert_eq!(
            per_cycle.run.mem.read_blame.of(cause),
            skip.run.mem.read_blame.of(cause),
            "per-cycle vs skip-ahead diverge on {}",
            cause.label()
        );
        assert_eq!(
            per_cycle.run.mem.write_blame.of(cause),
            skip.run.mem.write_blame.of(cause),
            "write budgets diverge on {}",
            cause.label()
        );
    }
    assert_eq!(
        per_cycle.run.mem_per_channel, skip.run.mem_per_channel,
        "full per-channel statistics (budgets included) diverge"
    );
}
