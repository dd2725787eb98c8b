//! Backward-Euler transient engine with Newton–Raphson per step.
//!
//! Unknowns are the non-ground node voltages plus one branch current per
//! connected driven source (classic MNA). Scenario logic interacts with
//! the running simulation through slewable sources — the same way a DRAM
//! control FSM drives wordlines, sense enables, and precharge gates.

use crate::devices::GMIN;
use crate::matrix::Matrix;
use crate::netlist::{Netlist, SourceId};

/// A running transient simulation.
#[derive(Debug, Clone)]
pub struct Transient {
    net: Netlist,
    v: Vec<f64>,
    t_ns: f64,
    dt_ns: f64,
    newton_iters_last: usize,
    /// Linear stamps and buffers for the current step size and source
    /// connectivity; `None` until the first step and after
    /// [`Transient::set_connected`].
    ws: Option<Workspace>,
}

/// Newton convergence tolerance (volts).
const TOL_V: f64 = 1e-6;
/// Maximum Newton iterations per (sub)step.
const MAX_ITERS: usize = 60;
/// Per-iteration voltage-update clamp for robustness (volts).
const DAMP_V: f64 = 0.4;

impl Transient {
    /// Creates an engine over `net` with the given time step. Initial node
    /// voltages are zero except source-driven nodes, which start at their
    /// source values; override with [`Transient::set_ic`].
    pub fn new(net: Netlist, dt_ns: f64) -> Self {
        assert!(dt_ns > 0.0, "time step must be positive");
        let mut v = vec![0.0; net.nodes()];
        for s in &net.sources {
            if s.connected {
                v[s.node] = s.value;
            }
        }
        Transient {
            net,
            v,
            t_ns: 0.0,
            dt_ns,
            newton_iters_last: 0,
            ws: None,
        }
    }

    /// Present simulation time in nanoseconds.
    pub fn time_ns(&self) -> f64 {
        self.t_ns
    }

    /// Voltage of a node.
    pub fn v(&self, node: usize) -> f64 {
        self.v[node]
    }

    /// Sets a node's initial condition (before the first step).
    pub fn set_ic(&mut self, node: usize, volts: f64) {
        self.v[node] = volts;
    }

    /// Starts slewing a source toward `target` at `slew_v_per_ns`.
    pub fn slew(&mut self, id: SourceId, target: f64, slew_v_per_ns: f64) {
        let s = &mut self.net.sources[id.0];
        s.target = target;
        s.slew_v_per_ns = slew_v_per_ns;
    }

    /// Immediately steps a source to `value`.
    pub fn set_source(&mut self, id: SourceId, value: f64) {
        let s = &mut self.net.sources[id.0];
        s.value = value;
        s.target = value;
    }

    /// Connects or disconnects a source (disconnected = floating node).
    pub fn set_connected(&mut self, id: SourceId, connected: bool) {
        self.net.sources[id.0].connected = connected;
        self.ws = None;
    }

    /// Present value of a source.
    pub fn source_value(&self, id: SourceId) -> f64 {
        self.net.sources[id.0].value
    }

    /// Newton iterations used by the last step (diagnostics).
    pub fn newton_iters(&self) -> usize {
        self.newton_iters_last
    }

    /// Advances one time step.
    ///
    /// # Panics
    ///
    /// Panics if Newton fails to converge even after sub-stepping — that
    /// indicates an unphysical netlist, which is a bug, not a data error.
    pub fn step(&mut self) {
        self.advance_sources(self.dt_ns);
        if !self.solve_step(self.dt_ns) {
            // Progressive sub-stepping with rollback: 4, 16, then 64
            // sub-steps of the interval.
            let mut done = false;
            'outer: for subdivisions in [4usize, 16, 64] {
                let saved = self.v.clone();
                let sub = self.dt_ns / subdivisions as f64;
                for _ in 0..subdivisions {
                    if !self.solve_step(sub) {
                        self.v = saved;
                        continue 'outer;
                    }
                }
                done = true;
                break;
            }
            assert!(
                done,
                "newton failed to converge at t = {} ns even with 64 sub-steps",
                self.t_ns
            );
        }
        self.t_ns += self.dt_ns;
    }

    /// Runs for `duration_ns`.
    pub fn run(&mut self, duration_ns: f64) {
        let end = self.t_ns + duration_ns;
        while self.t_ns < end - 1e-12 {
            self.step();
        }
    }

    fn advance_sources(&mut self, dt: f64) {
        for s in &mut self.net.sources {
            if s.value == s.target {
                continue;
            }
            if !s.slew_v_per_ns.is_finite() {
                s.value = s.target;
                continue;
            }
            let max_delta = s.slew_v_per_ns * dt;
            let delta = (s.target - s.value).clamp(-max_delta, max_delta);
            s.value += delta;
        }
    }

    /// One backward-Euler step of `dt`; returns convergence success.
    fn solve_step(&mut self, dt: f64) -> bool {
        if self.ws.as_ref().is_none_or(|ws| ws.dt_ns != dt) {
            self.ws = Some(Workspace::new(&self.net, dt));
        }
        let ws = self.ws.as_mut().expect("workspace was just built");
        let net = &self.net;
        let nodes = net.nodes();

        // Per-step right-hand side: capacitor history currents at the
        // previous step's voltages, then the source values.
        ws.rhs.fill(0.0);
        for (c, &gc) in net.capacitors.iter().zip(&ws.gc) {
            let hist = gc * (self.v[c.a] - self.v[c.b]);
            if let Some(a) = unknown(c.a) {
                ws.rhs[a] += hist;
            }
            if let Some(b) = unknown(c.b) {
                ws.rhs[b] -= hist;
            }
        }
        for (j, &si) in ws.connected.iter().enumerate() {
            ws.rhs[nodes - 1 + j] = net.sources[si].value;
        }

        let v = &mut ws.v;
        v.copy_from_slice(&self.v);
        let mut iters = 0;
        loop {
            iters += 1;
            let (g, x) = (&mut ws.g, &mut ws.x);
            g.clone_from(&ws.base);
            x.copy_from_slice(&ws.rhs);
            for m in &net.mosfets {
                let lin = m.linearize(v[m.d], v[m.g], v[m.s]);
                stamp_conductance(unknown(m.d), unknown(m.s), GMIN, |r, c, cond| {
                    g.add_within(r, c, cond)
                });
                // Jacobian rows for KCL at d (+I) and s (−I).
                let partials = [(m.d, lin.di_dvd), (m.g, lin.di_dvg), (m.s, lin.di_dvs)];
                let i_lin =
                    lin.ids - lin.di_dvd * v[m.d] - lin.di_dvg * v[m.g] - lin.di_dvs * v[m.s];
                if let Some(d) = unknown(m.d) {
                    for &(node, dp) in &partials {
                        if let Some(col) = unknown(node) {
                            g.add_within(d, col, dp);
                        }
                    }
                    x[d] -= i_lin;
                }
                if let Some(s) = unknown(m.s) {
                    for &(node, dp) in &partials {
                        if let Some(col) = unknown(node) {
                            g.add_within(s, col, -dp);
                        }
                    }
                    x[s] += i_lin;
                }
            }

            if !g.solve_in_place(x) {
                return false;
            }
            // Damped update + convergence check.
            let mut max_delta: f64 = 0.0;
            for node in 1..nodes {
                let newv = x[node - 1];
                let delta = (newv - v[node]).clamp(-DAMP_V, DAMP_V);
                max_delta = max_delta.max(delta.abs());
                v[node] += delta;
            }
            if max_delta < TOL_V {
                break;
            }
            if iters >= MAX_ITERS {
                return false;
            }
        }
        self.newton_iters_last = iters;
        std::mem::swap(&mut self.v, v);
        true
    }
}

/// The solver state one step size and one set of connected sources share:
/// the linear part of the MNA matrix and the per-step buffers.
///
/// Resistors, capacitor companions and source branches stamp the same
/// values every Newton iteration, so they are stamped once here; each
/// iteration copies this base and adds only the MOSFET stamps. That is
/// bit-identical to restamping everything each iteration: every matrix
/// entry sums its terms in the same order (resistors, then capacitors,
/// then MOSFETs), and no MOSFET touches a source-branch row or column.
#[derive(Debug, Clone)]
struct Workspace {
    /// The step size (ns) the capacitor companions were built for.
    dt_ns: f64,
    /// Connected sources in netlist order; source `connected[j]` owns
    /// branch unknown `nodes − 1 + j`.
    connected: Vec<usize>,
    /// Capacitor companion conductances `C/dt`, in netlist order.
    gc: Vec<f64>,
    /// Resistor, capacitor-companion and source-branch stamps, with the
    /// MOSFET stamp positions reserved in its pattern.
    base: Matrix,
    /// Per-step right-hand side (capacitor history, source values).
    rhs: Vec<f64>,
    /// The Newton iteration's matrix.
    g: Matrix,
    /// The Newton iteration's right-hand side, then its solution.
    x: Vec<f64>,
    /// The Newton iterate (node voltages).
    v: Vec<f64>,
}

impl Workspace {
    fn new(net: &Netlist, dt_ns: f64) -> Self {
        let nodes = net.nodes();
        let connected: Vec<usize> = net
            .sources
            .iter()
            .enumerate()
            .filter(|(_, s)| s.connected)
            .map(|(i, _)| i)
            .collect();
        let n = (nodes - 1) + connected.len();
        let mut base = Matrix::zeros(n);
        for r in &net.resistors {
            stamp_conductance(unknown(r.a), unknown(r.b), 1.0 / r.ohms, |i, j, v| {
                base.add(i, j, v)
            });
        }
        let dt_s = dt_ns * 1e-9;
        let gc: Vec<f64> = net.capacitors.iter().map(|c| c.farads / dt_s).collect();
        for (c, &g) in net.capacitors.iter().zip(&gc) {
            stamp_conductance(unknown(c.a), unknown(c.b), g, |i, j, v| base.add(i, j, v));
        }
        for (j, &si) in connected.iter().enumerate() {
            let br = nodes - 1 + j;
            let node = unknown(net.sources[si].node).expect("sources never drive ground");
            base.add(br, node, 1.0);
            base.add(node, br, 1.0);
        }
        // Reserve every MOSFET stamp position, so that each Newton
        // iteration adds its MOSFET terms without pattern bookkeeping.
        for m in &net.mosfets {
            for row in [m.d, m.s].into_iter().filter_map(unknown) {
                for col in [m.d, m.g, m.s].into_iter().filter_map(unknown) {
                    base.reserve(row, col);
                }
            }
        }
        Workspace {
            dt_ns,
            connected,
            gc,
            g: base.clone(),
            base,
            rhs: vec![0.0; n],
            x: vec![0.0; n],
            v: vec![0.0; nodes],
        }
    }
}

/// Unknown index of a node: node `k ≥ 1` is unknown `k − 1`; ground has
/// none.
fn unknown(node: usize) -> Option<usize> {
    node.checked_sub(1)
}

/// Stamps conductance `cond` between unknowns `a` and `b` (`None` =
/// ground) through `add`.
fn stamp_conductance(
    a: Option<usize>,
    b: Option<usize>,
    cond: f64,
    mut add: impl FnMut(usize, usize, f64),
) {
    if let Some(a) = a {
        add(a, a, cond);
    }
    if let Some(b) = b {
        add(b, b, cond);
    }
    if let (Some(a), Some(b)) = (a, b) {
        add(a, b, -cond);
        add(b, a, -cond);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MosParams;

    #[test]
    fn rc_discharge_matches_analytic() {
        // 1 kΩ to ground, 1 pF at 1 V: τ = 1 ns.
        let mut net = Netlist::new();
        let n = net.node("top");
        net.resistor(n, 0, 1000.0);
        net.capacitor(n, 0, 1e-12);
        let mut sim = Transient::new(net, 0.001);
        sim.set_ic(n, 1.0);
        sim.run(1.0);
        let expect = (-1.0f64).exp();
        assert!(
            (sim.v(n) - expect).abs() < 0.01,
            "v {} vs {expect}",
            sim.v(n)
        );
    }

    #[test]
    fn source_drives_rc_charge() {
        let mut net = Netlist::new();
        let top = net.node("top");
        let mid = net.node("mid");
        let src = net.source(top, 1.0);
        net.resistor(top, mid, 1000.0);
        net.capacitor(mid, 0, 1e-12);
        let mut sim = Transient::new(net, 0.001);
        sim.run(5.0);
        assert!((sim.v(mid) - 1.0).abs() < 0.01, "v {}", sim.v(mid));
        let _ = src;
    }

    #[test]
    fn slewed_source_ramps_linearly() {
        let mut net = Netlist::new();
        let n = net.node("drv");
        let src = net.source(n, 0.0);
        net.capacitor(n, 0, 1e-18); // keep the matrix non-singular
        let mut sim = Transient::new(net, 0.01);
        sim.slew(src, 1.0, 0.5); // 0.5 V/ns → 2 ns to reach 1 V
        sim.run(1.0);
        assert!((sim.v(n) - 0.5).abs() < 0.02, "v {}", sim.v(n));
        sim.run(1.5);
        assert!((sim.v(n) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nmos_pass_gate_charges_capacitor_to_vg_minus_vth() {
        // Source-follower limit: cap charges to vg − vth.
        let mut net = Netlist::new();
        let bl = net.node("bl");
        let cell = net.node("cell");
        let wl = net.node("wl");
        net.source(bl, 1.2);
        let _wl_src = net.source(wl, 2.4);
        net.nmos(
            bl,
            wl,
            cell,
            MosParams {
                k: 1e-4,
                vth: 0.5,
                lambda: 0.0,
            },
        );
        net.capacitor(cell, 0, 20e-15);
        let mut sim = Transient::new(net, 0.01);
        sim.run(50.0);
        // vpp − vth = 1.9 > vdd → cell reaches full 1.2 V.
        assert!((sim.v(cell) - 1.2).abs() < 0.02, "cell {}", sim.v(cell));
    }

    #[test]
    fn disconnected_source_floats_node() {
        let mut net = Netlist::new();
        let n = net.node("float");
        let src = net.source(n, 1.0);
        net.capacitor(n, 0, 1e-15);
        let mut sim = Transient::new(net, 0.01);
        sim.run(0.1);
        assert!((sim.v(n) - 1.0).abs() < 1e-6);
        sim.set_connected(src, false);
        sim.set_source(src, 0.0);
        sim.run(1.0);
        // Node holds its charge (no discharge path).
        assert!((sim.v(n) - 1.0).abs() < 0.01, "v {}", sim.v(n));
    }

    #[test]
    fn cross_coupled_inverter_latch_regenerates() {
        // A minimal sense-amp core: cross-coupled inverters between two
        // capacitive nodes with a small initial imbalance must regenerate
        // to the rails once enabled.
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        let sap = net.node("sap");
        let san = net.node("san");
        let sap_src = net.source(sap, 0.6);
        let san_src = net.source(san, 0.6);
        let nk = MosParams {
            k: 2.6e-4,
            vth: 0.42,
            lambda: 0.08,
        };
        let pk = MosParams {
            k: -1.3e-4,
            vth: -0.42,
            lambda: 0.08,
        };
        net.nmos(a, b, san, nk);
        net.nmos(b, a, san, nk);
        net.pmos(a, b, sap, pk);
        net.pmos(b, a, sap, pk);
        net.capacitor(a, 0, 50e-15);
        net.capacitor(b, 0, 50e-15);
        let mut sim = Transient::new(net, 0.01);
        sim.set_ic(a, 0.68);
        sim.set_ic(b, 0.60);
        sim.slew(sap_src, 1.2, 4.0);
        sim.slew(san_src, 0.0, 4.0);
        sim.run(15.0);
        assert!(sim.v(a) > 1.1, "a {}", sim.v(a));
        assert!(sim.v(b) < 0.1, "b {}", sim.v(b));
    }
}
