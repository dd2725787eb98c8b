//! Device models and their MNA companion stamps.
//!
//! All devices stamp into the conductance matrix `G` and right-hand side
//! `b` of `G·v = b`: resistors and capacitor companion conductances once
//! per step size, capacitor history currents once per step, MOSFETs once
//! per Newton iteration. Capacitors use the backward-Euler companion
//! (conductance `C/dt` plus history current); MOSFETs use the linearized
//! square-law model with symmetric source/drain handling so pass
//! transistors conduct in both directions.

use crate::params::MosParams;

/// Node identifier; node 0 is ground.
pub type Node = usize;

/// A linear resistor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resistor {
    /// First terminal.
    pub a: Node,
    /// Second terminal.
    pub b: Node,
    /// Resistance in ohms (must be positive).
    pub ohms: f64,
}

/// A capacitor (backward-Euler companion model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacitor {
    /// First terminal.
    pub a: Node,
    /// Second terminal.
    pub b: Node,
    /// Capacitance in farads.
    pub farads: f64,
}

/// MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosKind {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// A square-law MOSFET.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Drain terminal (interchangeable with source for conduction).
    pub d: Node,
    /// Gate terminal.
    pub g: Node,
    /// Source terminal.
    pub s: Node,
    /// Device parameters (`k` is negative for PMOS by convention).
    pub params: MosParams,
    /// Polarity.
    pub kind: MosKind,
}

/// Linearization of the channel current `I` (defined drain → source, in
/// the device's *external* terminal frame) at one Newton iterate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosLinear {
    /// Channel current at the iterate (A, external d → s).
    pub ids: f64,
    /// ∂I/∂v(d).
    pub di_dvd: f64,
    /// ∂I/∂v(g).
    pub di_dvg: f64,
    /// ∂I/∂v(s).
    pub di_dvs: f64,
}

/// Minimum conductance added across every MOSFET channel for Newton
/// robustness.
pub const GMIN: f64 = 1e-9;

impl Mosfet {
    /// Evaluates the square-law current and its terminal partial
    /// derivatives at terminal voltages `(vd, vg, vs)`.
    pub fn linearize(&self, vd: f64, vg: f64, vs: f64) -> MosLinear {
        match self.kind {
            MosKind::Nmos => Self::linearize_n(
                self.params.k.abs(),
                self.params.vth.abs(),
                self.params.lambda,
                vd,
                vg,
                vs,
            ),
            MosKind::Pmos => {
                // A PMOS is a mirrored NMOS: I_P(vd,vg,vs) = −I_N(−vd,−vg,−vs).
                // Partials carry over with unchanged sign (two negations).
                let n = Self::linearize_n(
                    self.params.k.abs(),
                    self.params.vth.abs(),
                    self.params.lambda,
                    -vd,
                    -vg,
                    -vs,
                );
                MosLinear {
                    ids: -n.ids,
                    di_dvd: n.di_dvd,
                    di_dvg: n.di_dvg,
                    di_dvs: n.di_dvs,
                }
            }
        }
    }

    fn linearize_n(k: f64, vth: f64, lambda: f64, vd: f64, vg: f64, vs: f64) -> MosLinear {
        // Symmetric device: the lower-voltage terminal acts as source.
        let swapped = vd < vs;
        let (vde, vse) = if swapped { (vs, vd) } else { (vd, vs) };
        let vgs = vg - vse;
        let vds = vde - vse;
        let vov = vgs - vth;
        let (i, gm, gds) = if vov <= 0.0 {
            (0.0, 0.0, 0.0)
        } else if vds < vov {
            // Triode.
            let clm = 1.0 + lambda * vds;
            let i0 = k * (vov * vds - 0.5 * vds * vds);
            (i0 * clm, k * vds * clm, k * (vov - vds) * clm + i0 * lambda)
        } else {
            // Saturation.
            let clm = 1.0 + lambda * vds;
            let i0 = 0.5 * k * vov * vov;
            (i0 * clm, k * vov * clm, i0 * lambda)
        };
        if swapped {
            // External current (d → s) is −I'; chain rule over
            // vgs' = vg − vd, vds' = vs − vd.
            MosLinear {
                ids: -i,
                di_dvd: gm + gds,
                di_dvg: -gm,
                di_dvs: -gds,
            }
        } else {
            MosLinear {
                ids: i,
                di_dvd: gds,
                di_dvg: gm,
                di_dvs: -gm - gds,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        Mosfet {
            d: 1,
            g: 2,
            s: 0,
            params: MosParams {
                k: 1e-3,
                vth: 0.4,
                lambda: 0.0,
            },
            kind: MosKind::Nmos,
        }
    }

    #[test]
    fn cutoff_below_threshold() {
        let lin = nmos().linearize(1.0, 0.3, 0.0);
        assert_eq!(lin.ids, 0.0);
        assert_eq!(lin.di_dvg, 0.0);
    }

    #[test]
    fn saturation_current_matches_square_law() {
        // vgs = 1.2, vds = 1.2 > vov = 0.8 → sat: 0.5·k·vov².
        let lin = nmos().linearize(1.2, 1.2, 0.0);
        assert!((lin.ids - 0.5 * 1e-3 * 0.8 * 0.8).abs() < 1e-12);
        assert!(lin.di_dvg > 0.0);
    }

    #[test]
    fn triode_current_matches() {
        let lin = nmos().linearize(0.2, 1.2, 0.0);
        let expect = 1e-3 * (0.8 * 0.2 - 0.5 * 0.2 * 0.2);
        assert!((lin.ids - expect).abs() < 1e-12);
    }

    #[test]
    fn symmetric_conduction_reverses_current() {
        let fwd = nmos().linearize(1.0, 1.2, 0.0);
        // Terminals swapped; the effective source is now the 0 V drain
        // terminal, so the same gate voltage gives the same overdrive.
        let rev = nmos().linearize(0.0, 1.2, 1.0);
        assert!(fwd.ids > 0.0);
        assert!(rev.ids < 0.0);
        assert!((fwd.ids + rev.ids).abs() < 1e-9);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = nmos();
        let eps = 1e-7;
        for (vd, vg, vs) in [
            (1.0, 1.2, 0.0),  // saturation
            (0.2, 1.2, 0.0),  // triode
            (0.0, 1.2, 1.0),  // swapped
            (0.5, 0.9, 0.25), // mid-range triode
        ] {
            let lin = m.linearize(vd, vg, vs);
            let dd = (m.linearize(vd + eps, vg, vs).ids - lin.ids) / eps;
            let dg = (m.linearize(vd, vg + eps, vs).ids - lin.ids) / eps;
            let ds = (m.linearize(vd, vg, vs + eps).ids - lin.ids) / eps;
            assert!((dd - lin.di_dvd).abs() < 1e-5, "dvd at {vd},{vg},{vs}");
            assert!((dg - lin.di_dvg).abs() < 1e-5, "dvg at {vd},{vg},{vs}");
            assert!((ds - lin.di_dvs).abs() < 1e-5, "dvs at {vd},{vg},{vs}");
        }
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let p = Mosfet {
            d: 1,
            g: 2,
            s: 3,
            params: MosParams {
                k: -1e-3,
                vth: -0.4,
                lambda: 0.0,
            },
            kind: MosKind::Pmos,
        };
        // Source at VDD = 1.2, gate 0, drain 0: strongly on, current flows
        // s → d, i.e. ids (d → s) negative.
        let lin = p.linearize(0.0, 0.0, 1.2);
        assert!(lin.ids < 0.0, "ids {}", lin.ids);
        // Off when the gate sits at VDD.
        let off = p.linearize(0.0, 1.2, 1.2);
        assert_eq!(off.ids, 0.0);
        // PMOS derivatives also match finite differences.
        let eps = 1e-7;
        let dd = (p.linearize(eps, 0.0, 1.2).ids - p.linearize(0.0, 0.0, 1.2).ids) / eps;
        assert!((dd - lin.di_dvd).abs() < 1e-5);
    }
}
