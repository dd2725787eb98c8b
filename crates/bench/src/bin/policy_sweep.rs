//! Regenerates the dynamic-policy sweep: mode-management policies × the
//! phase-shifting workload → IPC, DRAM energy, capacity loss — plus the
//! multi-core/multi-channel contention sweep (per-core IPC, weighted
//! speedup, max slowdown under a shared fast-row budget).
//!
//! The final stdout block is machine-readable JSON
//! (`clr-dram/policy-sweep/v7`) so successive PRs can track the
//! performance trajectory of the policies.
//!
//! Set `CLR_SWEEP=contention` to run only the contention sweep (the CI
//! smoke cell exercising the channel-sharded path), or
//! `CLR_SWEEP=placement` to run only the placement sweep (same-bank vs
//! cross-bank vs cross-channel destination placement on the
//! channel-skewed hot-set mix).

use clr_sim::experiment::policies;
use clr_sim::scale::Scale;
use clr_sim::system::{process_env, sweep_from, SweepPart};

/// Prints the contention block: the table plus per-core breakdowns.
fn print_contention(report: &policies::PolicySweepReport) {
    println!("\n--- contention sweep (cores × channels × budget splits) ---");
    print!("{}", report.render_contention());
    for c in &report.contention {
        let per_core = c
            .ipc_per_core
            .iter()
            .enumerate()
            .map(|(i, v)| format!("core{i} {v:.4}"))
            .collect::<Vec<_>>()
            .join(" | ");
        println!(
            "{} {} ({} split): per-core IPC {per_core} | weighted speedup {:.3} | max slowdown {:.3}",
            c.policy,
            c.workload,
            c.budget_split,
            c.weighted_speedup.unwrap_or(f64::NAN),
            c.max_slowdown.unwrap_or(f64::NAN),
        );
    }
}

/// Prints the placement block: same-bank (budget-only) vs cross-bank vs
/// cross-channel destination placement on the skewed hot-set mix.
fn print_placement(report: &policies::PolicySweepReport) {
    println!("\n--- placement sweep (destination placement on the channel-skewed mix) ---");
    print!("{}", report.render_placement());
    if let (Some(budget_only), Some(frames)) = (
        report.placement_cell("same-bank"),
        report.placement_cell("cross-channel"),
    ) {
        let (ws_b, ws_f) = (
            budget_only.weighted_speedup.unwrap_or(f64::NAN),
            frames.weighted_speedup.unwrap_or(f64::NAN),
        );
        println!(
            "cross-channel frame rebalancing vs budget-only: weighted speedup {ws_f:.3} vs {ws_b:.3} \
             ({:+.1}%), {} frame moves landed",
            (ws_f / ws_b - 1.0) * 100.0,
            frames.frames_moved,
        );
    }
}

fn main() {
    let scale = clr_bench::startup("policy sweep (dynamic capacity-latency trade-off, §6)");
    let part = sweep_from(process_env);
    let report = policies::run(scale, 42, part);
    if part == SweepPart::All {
        print_policy_block(&report, scale);
    }
    if !report.contention.is_empty() {
        print_contention(&report);
    }
    if !report.placement.is_empty() {
        print_placement(&report);
    }
    println!("\n--- machine-readable (clr-dram/policy-sweep/v7) ---");
    print!("{}", report.to_json());
    if !report.contention.is_empty() {
        sanity_check_contention(&report, scale);
    }
    if !report.placement.is_empty() {
        sanity_check_placement(&report);
    }
}

/// Prints the policy block: the cell table, background vs stall, the
/// 2-core shared-budget cell and the per-workload dynamic-vs-static
/// contrast.
fn print_policy_block(report: &policies::PolicySweepReport, scale: Scale) {
    print!("{}", report.render());

    // Relocation-model axis: background migration must dominate the
    // stall-the-world apply — same transitions, but the data movement
    // steals idle bank slots instead of freezing queue service.
    println!("\n--- background migration vs stall-the-world ---");
    for (policy, workload, bg, stall) in report.background_vs_stall() {
        let tag = if bg + 1e-9 >= stall {
            ""
        } else {
            "  [REGRESSION]"
        };
        println!(
            "{policy:<14} {workload:<28} IPC {:+6.2}%  (background {bg:.4} vs stall {stall:.4}){tag}",
            (bg / stall - 1.0) * 100.0,
        );
    }

    // The 2-core shared-budget contention cell: who wins the fast rows.
    for c in report
        .cells
        .iter()
        .filter(|c| c.workload.starts_with("2core:"))
    {
        let per_core = c
            .ipc_per_core
            .iter()
            .enumerate()
            .map(|(i, v)| format!("core{i} {v:.4}"))
            .collect::<Vec<_>>()
            .join(" | ");
        println!(
            "\n{} on {} ({}): per-core IPC {per_core}, migration util {:.2}%",
            c.policy,
            c.workload,
            c.reloc,
            c.migration_slot_utilization * 100.0
        );
    }

    // Per-workload contrast: the dynamic-policy win should appear on the
    // drifting hot set, shrink to parity on the stable hot set, and stay
    // non-negative (policy declines to relocate) on uniform-random.
    for workload in policies::workload_roster(scale) {
        let name = workload.name();
        let Some(dynamic) = report.cell_for("hysteresis", &name) else {
            continue;
        };
        let all_hp = report
            .cell_for("static-100", &name)
            .expect("all-HP is in the roster");
        match report.best_static_within_for(dynamic.avg_capacity_loss, &name) {
            Some(rival) => println!(
                "\n{name}: hysteresis vs best static within its capacity budget ({}):\n  \
                 IPC {:+.1}% | capacity loss {:.1}% vs {:.1}% | all-HP loses {:.1}%",
                rival.policy,
                (dynamic.ipc / rival.ipc - 1.0) * 100.0,
                dynamic.avg_capacity_loss * 100.0,
                rival.avg_capacity_loss * 100.0,
                all_hp.avg_capacity_loss * 100.0,
            ),
            None => println!("\n{name}: no static split fits the dynamic capacity budget"),
        }
    }
}

/// Hard acceptance checks on the placement sweep: every cell runs under
/// background relocation with zero stall cycles, the cross-channel cell
/// must exist, and its rebalancer must have actually landed frame moves
/// (staged evacuate → fill → remap) — otherwise the placement path
/// regressed.
fn sanity_check_placement(report: &policies::PolicySweepReport) {
    for c in &report.placement {
        assert_eq!(
            c.relocation_stall_cycles, 0,
            "placement cell {} stalled under background relocation",
            c.placement
        );
        assert!(c.weighted_speedup.is_some(), "fairness metrics missing");
    }
    let frames = report
        .placement_cell("cross-channel")
        .expect("cross-channel placement cell missing");
    assert!(
        frames.frames_moved > 0 && frames.rows_remapped > 0,
        "cross-channel rebalancing moved no frames (moved {}, remapped {})",
        frames.frames_moved,
        frames.rows_remapped,
    );
    // The subsystem's acceptance property: moving frames must beat
    // moving only budget on weighted speedup (runs are seeded and
    // deterministic, so this is a regression gate, not a flaky bound).
    if let Some(budget_only) = report.placement_cell("same-bank") {
        let (ws_f, ws_b) = (
            frames.weighted_speedup.unwrap_or(0.0),
            budget_only.weighted_speedup.unwrap_or(f64::MAX),
        );
        assert!(
            ws_f > ws_b,
            "cross-channel rebalancing ({ws_f:.3}) no longer beats budget-only ({ws_b:.3})"
        );
    }
}

/// Hard acceptance checks on the contention sweep: every cell must have
/// run under background relocation with zero stall cycles and report
/// the fairness columns. A violation is a regression in the sharded
/// path, so the binary fails loudly (CI runs it on every push).
fn sanity_check_contention(report: &policies::PolicySweepReport, scale: Scale) {
    for c in &report.contention {
        assert_eq!(
            c.relocation_stall_cycles, 0,
            "contention cell {} stalled under background relocation",
            c.workload
        );
        assert_eq!(c.ipc_per_core.len(), c.cores, "per-core IPC missing");
        let ws = c.weighted_speedup.expect("weighted speedup missing");
        let ms = c.max_slowdown.expect("max slowdown missing");
        assert!(
            ws > 0.0 && ws <= c.cores as f64 * 1.5,
            "ws {ws} out of range"
        );
        assert!(ms >= 0.5, "max slowdown {ms} out of range");
    }
    // The headline 4-core/2-channel hysteresis cell must be present at
    // every scale (it is the acceptance cell of the sharding work).
    assert!(
        report
            .contention
            .iter()
            .any(|c| c.cores == 4 && c.channels == 2 && c.policy == "hysteresis"),
        "4-core/2-channel hysteresis contention cell missing at scale {}",
        scale.label()
    );
}
