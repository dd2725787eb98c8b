//! `policy-contention`: two `run_policy_workloads` cells of the policy
//! sweep, configured as `policy_sweep` configures them (metrics and blame
//! on), at default scale:
//!
//! * the 4-core × 2-channel hysteresis cell (demand-proportional budget
//!   split, paced background relocation);
//! * the 2-core channel-skewed util-threshold cell with cross-channel
//!   frame placement.
//!
//! The epoch loop is crate-private, so the traced run takes the policy,
//! walk and merge split from the results' existing host-time fields, and
//! re-runs each cell four ways (observers off, metrics only, blame only,
//! both) to price the observers. Every way must leave IPC and `MemStats`
//! (outside the blame ledgers) bit-identical.

use std::time::Instant;

use clr_memsim::frames::DestinationPicker;
use clr_memsim::migrate::RelocationConfig;
use clr_obs::MetricsConfig;
use clr_policy::budget::BudgetSplit;
use clr_policy::policy::{PolicyConstraints, PolicySpec};
use clr_sim::experiment::policies::{
    contention_workloads, epoch_cycles, policy_cluster, policy_mem_config, skewed_workloads,
    DYNAMIC_BUDGET,
};
use clr_sim::{run_policy_workloads, PolicyRunConfig, PolicyRunResult, RunConfig, Scale};
use clr_trace::workload::Workload;

use crate::ledger::Ledger;
use crate::single::{hash_stats, DramTotals};
use crate::util::{guarded, quantile, ratio, Fingerprint};
use crate::{Pass, Traced};

const SCALE: Scale = Scale::Default;

/// One sweep cell.
struct Cell {
    label: &'static str,
    policy: PolicySpec,
    workloads: Vec<Workload>,
    placement: DestinationPicker,
}

fn cells() -> [Cell; 2] {
    [
        Cell {
            label: "4core/2ch hysteresis demand",
            policy: PolicySpec::Hysteresis,
            workloads: contention_workloads(SCALE, 4),
            placement: DestinationPicker::SameBank,
        },
        Cell {
            label: "2core/2ch skewed util-threshold cross-channel",
            policy: PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
            workloads: skewed_workloads(SCALE),
            placement: DestinationPicker::CrossChannel,
        },
    ]
}

/// The cell's policy-run configuration, built literally (no
/// environment), with the given observers.
fn cell_config(cell: &Cell, seed: u64, metrics: bool, blame: bool) -> PolicyRunConfig {
    let mut mem = policy_mem_config(0.0);
    mem.geometry.channels = 2;
    mem.refresh_enabled = true;
    mem.relocation = RelocationConfig::background_paced();
    mem.placement = cell.placement;
    let base = RunConfig {
        mem,
        cluster: policy_cluster(),
        budget_insts: SCALE.budget_insts(),
        warmup_insts: SCALE.warmup_insts(),
        seed,
        skip_ahead: true,
        trace: None,
        metrics: metrics.then(|| MetricsConfig {
            interval_cycles: epoch_cycles(SCALE),
            capacity: 4_096,
        }),
        threads: 1,
        clamp_threads: true,
        blame,
    };
    PolicyRunConfig::new(
        base,
        cell.policy,
        PolicyConstraints {
            max_hp_fraction: DYNAMIC_BUDGET,
            max_transitions_per_epoch: 512,
        },
        epoch_cycles(SCALE),
    )
    .with_budget_split(BudgetSplit::demand_proportional())
}

/// The output checks every cell must pass; one message per failed cell.
fn check(cell: &Cell, r: &PolicyRunResult, blame: bool) -> Result<(), String> {
    let mut bad = Vec::new();
    let mem = &r.run.mem;
    if blame && mem.read_blame.total_cycles() != mem.read_latency_hist.sum() {
        bad.push(format!(
            "blame cycles {} != read-latency mass {}",
            mem.read_blame.total_cycles(),
            mem.read_latency_hist.sum()
        ));
    }
    if mem.relocation_stall_cycles != 0 {
        bad.push(format!(
            "{} relocation stall cycles under background relocation",
            mem.relocation_stall_cycles
        ));
    }
    if cell.placement == DestinationPicker::CrossChannel && mem.migration_fills == 0 {
        bad.push("cross-channel placement landed no frame moves".into());
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("{}: {}", cell.label, bad.join("; ")))
    }
}

/// Runs one cell with the given observers; `(result, call wall seconds)`.
fn run(
    cell: &Cell,
    seed: u64,
    metrics: bool,
    blame: bool,
) -> Result<(PolicyRunResult, f64), String> {
    let cfg = cell_config(cell, seed, metrics, blame);
    let t = Instant::now();
    let r = guarded(cell.label, || run_policy_workloads(&cell.workloads, &cfg))?;
    Ok((r, t.elapsed().as_secs_f64()))
}

/// Runs both cells as the sweep does, handing each result to `each`.
fn both_cells(seed: u64, mut each: impl FnMut(&Cell, &PolicyRunResult)) -> Pass {
    let start = Instant::now();
    let mut aside = 0.0;
    let mut pass = Pass::default();
    let mut fp = Fingerprint::default();
    for cell in cells() {
        pass.attempted += 1;
        match run(&cell, seed, true, true) {
            Ok((r, wall)) => {
                pass.setup_s += wall - r.run.host_loop_s;
                pass.work_s += r.run.host_loop_s;
                pass.work += cell.workloads.len() as f64
                    * (SCALE.budget_insts() + SCALE.warmup_insts()) as f64
                    / 1e6;
                if let Err(e) = check(&cell, &r, true) {
                    pass.failures.push(e);
                }
                let t = Instant::now();
                fp.f64s(&r.run.ipc);
                hash_stats(&mut fp, &r.run.mem);
                fp.debug(&r.policy_stats);
                fp.debug(&(r.rows_remapped, r.final_hp_fraction.to_bits()));
                each(&cell, &r);
                aside += t.elapsed().as_secs_f64();
            }
            Err(e) => pass.failures.push(e),
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64() - aside;
    pass.fingerprint = fp.value();
    pass.manifest = vec![
        ("scale", SCALE.label().into()),
        ("cells", "2".into()),
        ("lanes_requested", "1".into()),
        ("lanes_effective", "1".into()),
    ];
    pass
}

/// One plain pass.
pub fn pass(seed: u64) -> Pass {
    both_cells(seed, |_, _| {})
}

/// IPC and every `MemStats` counter outside the blame ledgers (which only
/// exist when blame is on) must not depend on the observers.
fn same_outcome(a: &PolicyRunResult, b: &PolicyRunResult) -> bool {
    let strip = |r: &PolicyRunResult| {
        let mut m = r.run.mem.clone();
        m.read_blame = Default::default();
        m.write_blame = Default::default();
        m
    };
    a.run
        .ipc
        .iter()
        .map(|v| v.to_bits())
        .eq(b.run.ipc.iter().map(|v| v.to_bits()))
        && strip(a) == strip(b)
}

/// The plain pass, then each cell four ways for the observer-cost rows.
pub fn traced(seed: u64) -> Traced {
    let mut l = Ledger::default();
    let mut dram = DramTotals::default();
    let mut call_ms = Vec::new();
    let mut slot_util = Vec::new();
    let plain = both_cells(seed, |_, r| {
        dram.add(&r.run);
        l.add("policy.s", r.host_policy_s);
        l.add(
            "policy.transitions_applied",
            r.policy_stats.transitions_applied as f64,
        );
        l.add("migrate.jobs", r.run.mem.migration_jobs_completed as f64);
        l.add(
            "migrate.stall_cycles",
            r.run.mem.relocation_stall_cycles as f64,
        );
        l.add("placement.frames_moved", r.run.mem.migration_fills as f64);
        l.add("placement.rows_remapped", r.rows_remapped as f64);
        slot_util.push(r.migration_slot_utilization());
    });
    dram.write(&mut l);
    l.set(
        "migrate.slot_util",
        slot_util.iter().sum::<f64>() / slot_util.len().max(1) as f64,
    );

    // Observer-cost rows: loop seconds summed over both cells, per way.
    let ways = [(false, false), (true, false), (false, true), (true, true)];
    let mut loop_s = [0.0f64; 4];
    let mut mismatches = Vec::new();
    let mut attempted = 0;
    for cell in cells() {
        let mut reference: Option<PolicyRunResult> = None;
        for (k, &(metrics, blame)) in ways.iter().enumerate() {
            attempted += 1;
            match run(&cell, seed, metrics, blame) {
                Ok((r, wall)) => {
                    call_ms.push(wall * 1e3);
                    loop_s[k] += r.run.host_loop_s;
                    let changed = reference.as_ref().is_some_and(|off| !same_outcome(off, &r));
                    if changed {
                        mismatches.push(format!(
                            "{}: metrics={metrics} blame={blame} changed the simulated outcome",
                            cell.label
                        ));
                    } else if let Err(e) = check(&cell, &r, blame) {
                        mismatches.push(e);
                    }
                    reference.get_or_insert(r);
                }
                Err(e) => mismatches.push(e),
            }
        }
    }
    l.set(
        "obs.metrics.overhead_frac",
        ratio(loop_s[1], loop_s[0]) - 1.0,
    );
    l.set("obs.blame.overhead_frac", ratio(loop_s[2], loop_s[0]) - 1.0);
    l.set("obs.both.overhead_frac", ratio(loop_s[3], loop_s[0]) - 1.0);
    l.set("sim.run_ms_p50", quantile(&call_ms, 0.5));
    l.set("sim.run_ms_p95", quantile(&call_ms, 0.95));
    // The four-way rows carry no per-call spans; the observers-on way is
    // the plain pass re-run, so this is run-to-run drift, not span cost.
    l.set("traced.overhead_frac", ratio(loop_s[3], plain.work_s) - 1.0);
    Traced {
        plain,
        ledger: l,
        mismatches,
        attempted,
    }
}
