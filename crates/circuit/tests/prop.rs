//! Property-based tests of the circuit solver's numerical core.

use clr_circuit::matrix::Matrix;
use clr_circuit::montecarlo::perturb;
use clr_circuit::netlist::Netlist;
use clr_circuit::params::{CircuitParams, MosParams};
use clr_circuit::transient::Transient;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dense LU with partial pivoting that the sparse solver replaced,
/// kept operation for operation as the bit-identity oracle.
struct Dense {
    n: usize,
    a: Vec<f64>,
}

impl Dense {
    fn of(m: &Matrix) -> Self {
        let n = m.n();
        Dense {
            n,
            a: (0..n * n).map(|i| m.get(i / n, i % n)).collect(),
        }
    }

    fn get(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.n + c]
    }

    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.n + c] = v;
    }

    fn solve_in_place(&mut self, b: &mut [f64]) -> bool {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        for k in 0..n {
            // Pivot.
            let mut p = k;
            let mut max = self.get(k, k).abs();
            for r in (k + 1)..n {
                let v = self.get(r, k).abs();
                if v > max {
                    max = v;
                    p = r;
                }
            }
            if max < 1e-30 {
                return false;
            }
            if p != k {
                for c in 0..n {
                    let t = self.get(k, c);
                    self.set(k, c, self.get(p, c));
                    self.set(p, c, t);
                }
                b.swap(k, p);
            }
            // Eliminate.
            let pivot = self.get(k, k);
            for r in (k + 1)..n {
                let f = self.get(r, k) / pivot;
                if f == 0.0 {
                    continue;
                }
                for c in k..n {
                    let v = self.get(r, c) - f * self.get(k, c);
                    self.set(r, c, v);
                }
                b[r] -= f * b[k];
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let mut s = b[k];
            for (c, &bc) in b.iter().enumerate().take(n).skip(k + 1) {
                s -= self.get(k, c) * bc;
            }
            b[k] = s / self.get(k, k);
        }
        true
    }
}

/// Stamps conductance `g` between unknowns `a` and `b` (`None` = ground).
fn conductance(m: &mut Matrix, a: Option<usize>, b: Option<usize>, g: f64) {
    if let Some(a) = a {
        m.add(a, a, g);
    }
    if let Some(b) = b {
        m.add(b, b, g);
    }
    if let (Some(a), Some(b)) = (a, b) {
        m.add(a, b, -g);
        m.add(b, a, -g);
    }
}

/// How [`mna_system`] breaks a system on purpose.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Defect {
    /// None: a solvable circuit.
    None,
    /// One node gets no stamps at all (an empty row and column, unless a
    /// source drives it).
    FloatingNode,
    /// Two sources drive one node (two equal branch rows).
    SharedSource,
}

/// A random system shaped like the transient engine's: an RC ladder
/// with random cross resistors, a capacitor companion on most nodes,
/// MOSFET-like asymmetric Jacobian stamps (some in cutoff, so numerically
/// zero), and unit source-branch rows and columns, whose zero diagonals
/// force row swaps. Returns the matrix and a right-hand side with a few
/// exact zeros.
fn mna_system(nodes: usize, sources: usize, defect: Defect, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sources = sources.min(nodes);
    let n = nodes + sources;
    let mut m = Matrix::zeros(n);
    let floating = (defect == Defect::FloatingNode).then(|| rng.gen_range(0..nodes));
    let live = |k: usize| (Some(k) != floating).then_some(k);
    let pick = |rng: &mut StdRng| {
        if rng.gen_range(0..8) == 0 {
            None // ground
        } else {
            live(rng.gen_range(0..nodes))
        }
    };
    for k in 1..nodes {
        if rng.gen_range(0..4) != 0 {
            conductance(&mut m, live(k - 1), live(k), rng.gen_range(1e-4..1e-2));
        }
    }
    for _ in 0..nodes / 4 {
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        conductance(&mut m, a, b, rng.gen_range(1e-4..1e-2));
    }
    for k in 0..nodes {
        if rng.gen_range(0..4) != 0 {
            conductance(&mut m, live(k), None, rng.gen_range(1e-6..1e-3));
        }
    }
    for _ in 0..nodes / 3 {
        let (d, g, s) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
        let cutoff = rng.gen_range(0..4) == 0;
        let partial = |rng: &mut StdRng| {
            if cutoff {
                0.0
            } else {
                rng.gen_range(-1e-3..1e-3)
            }
        };
        let partials = [
            (d, partial(&mut rng)),
            (g, partial(&mut rng)),
            (s, partial(&mut rng)),
        ];
        conductance(&mut m, d, s, 1e-9);
        for (row, sign) in [(d, 1.0), (s, -1.0)] {
            if let Some(row) = row {
                for &(col, dp) in &partials {
                    if let Some(col) = col {
                        m.add(row, col, sign * dp);
                    }
                }
            }
        }
    }
    // Sources drive distinct nodes, except for the shared-source defect.
    let mut driven: Vec<usize> = (0..nodes).collect();
    for j in 0..sources {
        let pick = rng.gen_range(j..nodes);
        driven.swap(j, pick);
    }
    if defect == Defect::SharedSource && sources >= 2 {
        driven[1] = driven[0];
    }
    for (j, &node) in driven.iter().take(sources).enumerate() {
        m.add(nodes + j, node, 1.0);
        m.add(node, nodes + j, 1.0);
    }
    let b = (0..n)
        .map(|_| {
            if rng.gen_range(0..5) == 0 {
                0.0
            } else {
                rng.gen_range(-1.5..1.5)
            }
        })
        .collect();
    (m, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sparse solver reproduces the dense elimination bit for bit on
    /// MNA-shaped systems of up to 87 unknowns (two bitset words): the
    /// same singular verdicts and, solved or not, the same right-hand
    /// side to the last bit.
    #[test]
    fn sparse_lu_is_bit_identical_to_dense(
        nodes in 1usize..64,
        sources in 0usize..24,
        defect in 0u8..6,
        seed in any::<u64>(),
    ) {
        let defect = match defect {
            0 => Defect::FloatingNode,
            1 => Defect::SharedSource,
            _ => Defect::None,
        };
        let (m, b) = mna_system(nodes, sources, defect, seed);
        let mut dense = Dense::of(&m);
        let mut want = b.clone();
        let dense_ok = dense.solve_in_place(&mut want);
        let mut got = b;
        let sparse_ok = m.clone().solve_in_place(&mut got);
        prop_assert_eq!(sparse_ok, dense_ok, "singular verdicts differ");
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "x[{}]: sparse {:e} vs dense {:e}",
                k,
                g,
                w
            );
        }
    }
}

proptest! {
    /// LU solves diagonally-dominant systems to small residuals.
    #[test]
    fn lu_solves_diagonally_dominant(
        n in 1usize..12,
        seed_vals in proptest::collection::vec(-1.0f64..1.0, 144 + 12),
    ) {
        let mut m = Matrix::zeros(n);
        let mut x_true = vec![0.0; n];
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = seed_vals[i * 12 + j];
                    m.set(i, j, v);
                    row_sum += v.abs();
                }
            }
            m.set(i, i, row_sum + 1.0); // strictly dominant
            x_true[i] = seed_vals[144 + i];
        }
        // b = A·x_true.
        let mut b = vec![0.0; n];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, xj) in x_true.iter().enumerate() {
                *bi += m.get(i, j) * xj;
            }
        }
        let mut solved = b.clone();
        prop_assert!(m.clone().solve_in_place(&mut solved));
        for (s, t) in solved.iter().zip(&x_true) {
            prop_assert!((s - t).abs() < 1e-8, "{} vs {}", s, t);
        }
    }

    /// An RC divider driven by a source settles to the exact voltage
    /// divider value regardless of component scale.
    #[test]
    fn resistive_divider_settles(
        r1 in 100.0f64..1e5,
        r2 in 100.0f64..1e5,
        v in 0.1f64..3.0,
    ) {
        let mut net = Netlist::new();
        let top = net.node("top");
        let mid = net.node("mid");
        net.source(top, v);
        net.resistor(top, mid, r1);
        net.resistor(mid, 0, r2);
        net.capacitor(mid, 0, 1e-15);
        let mut sim = Transient::new(net, 0.01);
        sim.run(50.0);
        let expect = v * r2 / (r1 + r2);
        prop_assert!(
            (sim.v(mid) - expect).abs() < 0.01 * v.max(1.0),
            "divider {} vs {}",
            sim.v(mid),
            expect
        );
    }

    /// Charge conservation: a capacitor charge-sharing with another
    /// through an always-on pass transistor ends at the weighted mean.
    #[test]
    fn charge_sharing_conserves(
        v0 in 0.0f64..1.2,
        c1_f in 1.0f64..50.0,
        c2_f in 1.0f64..50.0,
    ) {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        let gate = net.node("gate");
        net.source(gate, 3.0);
        let c1 = c1_f * 1e-15;
        let c2 = c2_f * 1e-15;
        net.capacitor(a, 0, c1);
        net.capacitor(b, 0, c2);
        net.nmos(a, gate, b, MosParams { k: 1e-4, vth: 0.4, lambda: 0.0 });
        let mut sim = Transient::new(net, 0.01);
        sim.set_ic(a, v0);
        sim.set_ic(b, 0.0);
        sim.run(200.0);
        let expect = v0 * c1 / (c1 + c2);
        prop_assert!(
            (sim.v(a) - sim.v(b)).abs() < 0.02,
            "did not equalize: {} vs {}",
            sim.v(a),
            sim.v(b)
        );
        prop_assert!(
            (sim.v(a) - expect).abs() < 0.05,
            "final {} vs expected {}",
            sim.v(a),
            expect
        );
    }

    /// Monte-Carlo perturbation keeps parameters positive and within the
    /// clamped ±3σ band.
    #[test]
    fn perturbation_stays_in_band(seed in 0u64..5000) {
        let p = CircuitParams::default_22nm();
        let mut rng = StdRng::seed_from_u64(seed);
        let q = perturb(&p, &mut rng);
        for (a, b) in [
            (q.c_cell, p.c_cell),
            (q.c_bitline, p.c_bitline),
            (q.r_bitline, p.r_bitline),
            (q.access.k, p.access.k),
            (q.sa_nmos.k, p.sa_nmos.k),
        ] {
            prop_assert!(a > 0.0);
            prop_assert!((a / b - 1.0).abs() <= 0.16, "{} vs {}", a, b);
        }
    }
}
