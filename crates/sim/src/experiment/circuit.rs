//! Table 1 and Figures 7, 8, 11 — the circuit-level experiments.

use clr_circuit::dram::{build, Topology};
use clr_circuit::montecarlo::worst_case_table1;
use clr_circuit::params::CircuitParams;
use clr_circuit::retention::{fig11_sweep, initial_cell_voltage, Fig11Point};
use clr_circuit::scenario::{run_act_pre, ActPreOptions, TracePoint};
use clr_circuit::timing::{measure_table1, Table1Measurement};
use clr_core::paper::TABLE1;

use crate::report::Table;
use crate::scale::Scale;

/// Most Monte-Carlo iterations [`run_table1`] runs, whatever the scale
/// asks for (the paper's §7.1 uses 10⁴).
const TABLE1_MC_CAP: usize = 200;

/// The paper's Monte-Carlo iteration count (§7.1).
const PAPER_MC_ITERATIONS: usize = 10_000;

/// Monte-Carlo iterations [`run_table1`] runs at `scale`: none at smoke
/// scale (nominal parameters), otherwise the scale's count capped at
/// [`TABLE1_MC_CAP`].
fn table1_iterations(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 0,
        _ => scale.monte_carlo_iterations().min(TABLE1_MC_CAP),
    }
}

/// Runs the Table 1 measurement: nominal at smoke scale, otherwise the
/// Monte-Carlo worst case over the scale's iteration count, capped at
/// 200 ([`render_table1`] states the count and the cap).
pub fn run_table1(scale: Scale, seed: u64) -> Table1Measurement {
    let p = CircuitParams::default_22nm();
    match table1_iterations(scale) {
        0 => measure_table1(&p),
        iterations => worst_case_table1(&p, iterations, seed),
    }
}

/// Renders Table 1 with measured values and paper-vs-measured reductions.
pub fn render_table1(m: &Table1Measurement, scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 1 — reduction in major DRAM timing parameters (scale: {})\n\n",
        scale.label()
    ));
    out.push_str(&monte_carlo_line(scale));
    let mut t = Table::new(vec![
        "parameter",
        "baseline",
        "max-cap",
        "HP w/o E.T.",
        "HP w/ E.T.",
        "reduction",
        "paper",
    ]);
    let rows = [
        (
            "tRCD (ns)",
            m.baseline.t_rcd_ns,
            m.max_capacity.t_rcd_ns,
            m.hp_no_et.t_rcd_ns,
            m.hp_et.t_rcd_ns,
        ),
        (
            "tRAS (ns)",
            m.baseline.t_ras_ns,
            m.max_capacity.t_ras_ns,
            m.hp_no_et.t_ras_ns,
            m.hp_et.t_ras_ns,
        ),
        (
            "tRP (ns)",
            m.baseline.t_rp_ns,
            m.max_capacity.t_rp_ns,
            m.hp_no_et.t_rp_ns,
            m.hp_et.t_rp_ns,
        ),
        (
            "tWR (ns)",
            m.baseline.t_wr_ns,
            m.max_capacity.t_wr_ns,
            m.hp_no_et.t_wr_ns,
            m.hp_et.t_wr_ns,
        ),
    ];
    for (i, (name, base, mc, no_et, et)) in rows.into_iter().enumerate() {
        let reduction = 1.0 - et / base;
        t.row(vec![
            name.to_string(),
            format!("{base:.1}"),
            format!("{mc:.1}"),
            format!("{no_et:.1}"),
            format!("{et:.1}"),
            format!("{:.1}%", reduction * 100.0),
            format!("{:.1}%", TABLE1[i].reduction * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nnote: absolute values depend on the calibrated analog parameters;\n\
         the mode-vs-baseline reductions are the topology-governed result.\n",
    );
    out
}

/// States how many Monte-Carlo iterations [`run_table1`] ran at `scale`,
/// against the paper's 10⁴, and names the cap when it cut the scale's
/// count.
fn monte_carlo_line(scale: Scale) -> String {
    let ran = table1_iterations(scale);
    let asked = scale.monte_carlo_iterations();
    if ran == 0 {
        format!(
            "Monte-Carlo: none, nominal parameters \
             (paper: worst case of {PAPER_MC_ITERATIONS} iterations)\n\n"
        )
    } else if ran < asked {
        format!(
            "Monte-Carlo: worst case of {ran} iterations, capped at {TABLE1_MC_CAP} from the \
             {asked} this scale asks for (paper: {PAPER_MC_ITERATIONS})\n\n"
        )
    } else {
        format!("Monte-Carlo: worst case of {ran} iterations (paper: {PAPER_MC_ITERATIONS})\n\n")
    }
}

/// Captures the Figure 7 waveforms: baseline vs high-performance mode
/// activation + precharge. Returns `(baseline, high_performance)` traces.
pub fn run_fig7() -> (Vec<TracePoint>, Vec<TracePoint>) {
    let p = CircuitParams::default_22nm();
    let v0 = initial_cell_voltage(&p, 64.0);
    let opts = ActPreOptions {
        initial_cell_v: v0,
        capture_trace: true,
        single_sa_twin_cell: false,
    };
    let base = run_act_pre(&build(Topology::OpenBitlineBaseline, &p), &p, opts);
    let hp = run_act_pre(&build(Topology::ClrHighPerformance, &p), &p, opts);
    assert!(base.sense_correct && hp.sense_correct);
    (base.trace, hp.trace)
}

/// Renders a waveform trace as CSV (`t_ns,bl,blb,cell,cellb`).
pub fn trace_csv(trace: &[TracePoint]) -> String {
    let mut out = String::from("t_ns,bl,blb,cell,cellb\n");
    for pt in trace {
        out.push_str(&format!(
            "{:.2},{:.4},{:.4},{:.4},{:.4}\n",
            pt.t_ns, pt.bl, pt.blb, pt.cell, pt.cellb
        ));
    }
    out
}

/// Figure 8 summary: the restoration tail and the early-termination
/// saving, from the high-performance activation waveform.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Summary {
    /// Time to restore the charged cell to VET (ns, from ACT).
    pub t_restore_et_ns: f64,
    /// Time to full restoration (ns, from ACT).
    pub t_restore_full_ns: f64,
    /// Time for the *discharged* cell to complete (ns, from ACT).
    pub t_discharged_done_ns: f64,
    /// tRAS saving from early termination (fraction).
    pub et_saving: f64,
}

/// Runs the Figure 8 analysis.
pub fn run_fig8() -> (Fig8Summary, Vec<TracePoint>) {
    let p = CircuitParams::default_22nm();
    let v0 = initial_cell_voltage(&p, 64.0);
    let sub = build(Topology::ClrHighPerformance, &p);
    let r = run_act_pre(
        &sub,
        &p,
        ActPreOptions {
            initial_cell_v: v0,
            capture_trace: true,
            single_sa_twin_cell: false,
        },
    );
    assert!(r.sense_correct);
    // Discharged-cell completion: first sample where cellb ≤ 5% VDD.
    let t_disc = r
        .trace
        .iter()
        .find(|pt| pt.cellb <= 0.05 * p.vdd)
        .map_or(f64::NAN, |pt| pt.t_ns);
    let summary = Fig8Summary {
        t_restore_et_ns: r.t_ras_et_ns,
        t_restore_full_ns: r.t_ras_full_ns,
        t_discharged_done_ns: t_disc,
        et_saving: 1.0 - r.t_ras_et_ns / r.t_ras_full_ns,
    };
    (summary, r.trace)
}

/// Renders the Figure 8 summary.
pub fn render_fig8(s: &Fig8Summary) -> String {
    let mut out = String::from("Figure 8 — early termination of charge restoration\n\n");
    out.push_str(&format!(
        "  full restoration of charged cell : {:>6.1} ns\n",
        s.t_restore_full_ns
    ));
    out.push_str(&format!(
        "  restoration to VET               : {:>6.1} ns\n",
        s.t_restore_et_ns
    ));
    out.push_str(&format!(
        "  discharged cell complete         : {:>6.1} ns\n",
        s.t_discharged_done_ns
    ));
    out.push_str(&format!(
        "  tRAS saving from E.T.            : {:>6.1}%  (paper: >30% on top of coupling)\n",
        s.et_saving * 100.0
    ));
    out
}

/// Runs the Figure 11 sweep (tREFW 64 → 204 ms, 10 ms steps).
pub fn run_fig11() -> Vec<Fig11Point> {
    fig11_sweep(&CircuitParams::default_22nm(), 204.0, 10.0)
}

/// Renders the Figure 11 table.
pub fn render_fig11(sweep: &[Fig11Point]) -> String {
    let mut out =
        String::from("Figure 11 — sensitivity of tRCD and tRAS to the refresh interval\n\n");
    let mut t = Table::new(vec!["tREFW (ms)", "tRCD (ns)", "tRAS (ns)", "senses"]);
    for pt in sweep {
        t.row(vec![
            format!("{:.0}", pt.refw_ms),
            format!("{:.2}", pt.t_rcd_ns),
            format!("{:.2}", pt.t_ras_ns),
            if pt.ok { "yes".into() } else { "NO".into() },
        ]);
    }
    out.push_str(&t.render());
    if let (Some(first), Some(last)) = (sweep.first(), sweep.iter().rfind(|p| p.ok)) {
        out.push_str(&format!(
            "\ngrowth 64 → {:.0} ms: tRCD x{:.2} (paper x1.58 at 194 ms), tRAS x{:.2} (paper x1.21)\n",
            last.refw_ms,
            last.t_rcd_ns / first.t_rcd_ns,
            last.t_ras_ns / first.t_ras_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_runs_and_renders() {
        let m = run_table1(Scale::Smoke, 1);
        let s = render_table1(&m, Scale::Smoke);
        assert!(s.contains("tRCD"));
        assert!(s.contains("paper"));
        assert!(s.contains("Monte-Carlo: none, nominal parameters"));
        let (rcd, ras, rp, wr) = m.reductions();
        assert!(rcd > 0.3 && ras > 0.4 && rp > 0.25 && wr > 0.1);
    }

    #[test]
    fn table1_states_its_monte_carlo_count_and_cap() {
        assert_eq!(table1_iterations(Scale::Smoke), 0);
        assert_eq!(table1_iterations(Scale::Default), 200);
        assert_eq!(table1_iterations(Scale::Full), TABLE1_MC_CAP);
        assert_eq!(
            monte_carlo_line(Scale::Default),
            "Monte-Carlo: worst case of 200 iterations (paper: 10000)\n\n"
        );
        let full = monte_carlo_line(Scale::Full);
        assert!(
            full.contains("200 iterations, capped at 200 from the 10000"),
            "{full}"
        );
    }

    #[test]
    fn fig7_traces_have_full_swing() {
        let (base, hp) = run_fig7();
        for (name, tr) in [("base", &base), ("hp", &hp)] {
            let max_bl = tr.iter().map(|p| p.bl).fold(0.0, f64::max);
            assert!(max_bl > 1.0, "{name} bl never reached the rail: {max_bl}");
        }
        let csv = trace_csv(&hp);
        assert!(csv.lines().count() > 50);
    }

    #[test]
    fn fig8_shows_early_termination_saving() {
        let (s, trace) = run_fig8();
        assert!(!trace.is_empty());
        assert!(s.et_saving > 0.15, "saving {}", s.et_saving);
        assert!(s.t_discharged_done_ns < s.t_restore_full_ns);
        assert!(render_fig8(&s).contains("VET"));
    }

    #[test]
    fn fig11_sweep_renders_with_growth() {
        let sweep = run_fig11();
        assert!(sweep.len() >= 10);
        let s = render_fig11(&sweep);
        assert!(s.contains("tREFW"));
        assert!(s.contains("growth"));
    }
}
