//! Quenched gauge updates: Cabibbo–Marinari SU(2)-subgroup heatbath.
//!
//! The paper's solves run on importance-sampled configurations from
//! large-scale production runs (§9). Our substitute generates equilibrated
//! quenched configurations at coupling β with the standard
//! Cabibbo–Marinari sweep: each link is updated through its three SU(2)
//! subgroups, sampling each with the Kennedy–Pendleton heatbath against
//! the Wilson single-link action `(β/3)·Re tr(U·S)` (S = staple sum).
//!
//! Physics sanity anchors used in tests: plaquette → 1 at large β,
//! ≈ β/18 at strong coupling, and ≈ 0.55 at the much-studied β = 5.7.

use crate::field::GaugeField;
use crate::paths::staple_sum;
use lqcd_lattice::{Dims, Parity, NDIM};
use lqcd_su3::Su3;
use lqcd_util::rng::SeedTree;
use lqcd_util::{Complex, Real};
use rand::Rng;

/// A unit quaternion ≙ SU(2) element `a0 + i(a1 σ1 + a2 σ2 + a3 σ3)`.
///
/// The product matches matrix multiplication in that representation.
/// Because `(iσ1)(iσ2) = −iσ3`, this is the *conjugate*-Hamilton algebra:
/// `i·j = −k`, `j·k = −i`, `k·i = −j` (and `i² = j² = k² = −1`).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Quat(pub [f64; 4]);

impl Quat {
    /// Quaternion (SU(2)) product.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Quat) -> Quat {
        let [a0, a1, a2, a3] = self.0;
        let [b0, b1, b2, b3] = o.0;
        Quat([
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 - a2 * b3 + a3 * b2,
            a0 * b2 + a2 * b0 - a3 * b1 + a1 * b3,
            a0 * b3 + a3 * b0 - a1 * b2 + a2 * b1,
        ])
    }

    /// Conjugate (inverse for unit quaternions).
    pub fn conj(self) -> Quat {
        let [a0, a1, a2, a3] = self.0;
        Quat([a0, -a1, -a2, -a3])
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.0.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Normalize to the unit sphere.
    pub fn normalized(self) -> Quat {
        let n = self.norm();
        Quat([self.0[0] / n, self.0[1] / n, self.0[2] / n, self.0[3] / n])
    }

    /// The 2×2 complex matrix `[[a0+ia3, a2+ia1], [−a2+ia1, a0−ia3]]`.
    pub fn to_su2<R: Real>(self) -> [[Complex<R>; 2]; 2] {
        let [a0, a1, a2, a3] = self.0;
        let c = |re: f64, im: f64| Complex::new(R::from_f64(re), R::from_f64(im));
        [[c(a0, a3), c(a2, a1)], [c(-a2, a1), c(a0, -a3)]]
    }
}

/// SU(2)-project a 2×2 complex submatrix: the closest multiple of an
/// SU(2) element, returned as `(k, v)` with `k ≥ 0` the modulus and `v`
/// the unit quaternion (v arbitrary when k = 0).
pub fn su2_project<R: Real>(m: &[[Complex<R>; 2]; 2]) -> (f64, Quat) {
    let a0 = (m[0][0].re.to_f64() + m[1][1].re.to_f64()) / 2.0;
    let a1 = (m[0][1].im.to_f64() + m[1][0].im.to_f64()) / 2.0;
    let a2 = (m[0][1].re.to_f64() - m[1][0].re.to_f64()) / 2.0;
    let a3 = (m[0][0].im.to_f64() - m[1][1].im.to_f64()) / 2.0;
    let q = Quat([a0, a1, a2, a3]);
    let k = q.norm();
    if k < 1e-300 {
        (0.0, Quat([1.0, 0.0, 0.0, 0.0]))
    } else {
        (k, q.normalized())
    }
}

/// The three SU(2) subgroup row/column pairs of SU(3).
const SUBGROUPS: [(usize, usize); 3] = [(0, 1), (0, 2), (1, 2)];

/// Extract the 2×2 submatrix of rows/cols `(i, j)`.
fn submatrix<R: Real>(u: &Su3<R>, i: usize, j: usize) -> [[Complex<R>; 2]; 2] {
    [[u.m[i][i], u.m[i][j]], [u.m[j][i], u.m[j][j]]]
}

/// Embed an SU(2) element into SU(3) at rows/cols `(i, j)`.
fn embed<R: Real>(q: Quat, i: usize, j: usize) -> Su3<R> {
    let s = q.to_su2::<R>();
    let mut u = Su3::identity();
    u.m[i][i] = s[0][0];
    u.m[i][j] = s[0][1];
    u.m[j][i] = s[1][0];
    u.m[j][j] = s[1][1];
    u
}

/// Kennedy–Pendleton sampling of the SU(2) heatbath distribution
/// `P(h) ∝ √(1 − h0²) exp(α h0) δ(|h| − 1)`: returns a unit quaternion.
///
/// Derivation of the divisor: with `h0 = 1 − 2λ²` the target density in λ
/// is `λ² √(1−λ²) e^{−2αλ²}`; the `(ln r1 + cos² ln r3)` trick draws
/// `s ~ Γ(3/2, 1)`, so `λ² = s / (2α)` gives the `e^{−2αλ²}` proposal and
/// the `√(1−λ²)` acceptance completes it.
pub fn kennedy_pendleton<G: Rng>(rng: &mut G, alpha: f64) -> Quat {
    debug_assert!(alpha > 0.0);
    let h0 = loop {
        let r1: f64 = 1.0 - rng.gen::<f64>(); // (0,1]
        let r2: f64 = rng.gen();
        let r3: f64 = 1.0 - rng.gen::<f64>();
        let lam2 =
            -(r1.ln() + (2.0 * std::f64::consts::PI * r2).cos().powi(2) * r3.ln()) / (2.0 * alpha);
        if lam2 > 1.0 {
            continue;
        }
        let r4: f64 = rng.gen();
        if r4 * r4 <= 1.0 - lam2 {
            break 1.0 - 2.0 * lam2;
        }
    };
    // Direction uniform on the 2-sphere of radius √(1−h0²).
    let r = (1.0 - h0 * h0).max(0.0).sqrt();
    let cos_theta: f64 = 2.0 * rng.gen::<f64>() - 1.0;
    let sin_theta = (1.0 - cos_theta * cos_theta).sqrt();
    let phi = 2.0 * std::f64::consts::PI * rng.gen::<f64>();
    Quat([h0, r * sin_theta * phi.cos(), r * sin_theta * phi.sin(), r * cos_theta])
}

/// One Cabibbo–Marinari heatbath update of a single link given its staple
/// sum, at coupling `beta`.
pub fn update_link<R: Real, G: Rng>(u: &Su3<R>, staple: &Su3<R>, beta: f64, rng: &mut G) -> Su3<R> {
    let mut u = *u;
    for &(i, j) in &SUBGROUPS {
        let w = u.mul(staple);
        let (k, v) = su2_project(&submatrix(&w, i, j));
        if k < 1e-12 {
            continue;
        }
        // Action term: (β/3)·Re tr₂(g·m) = (2βk/3)·(g·v)₀, so the h = g·v
        // distribution has exponent coefficient α = 2βk/3.
        let alpha = 2.0 * beta * k / 3.0;
        let h = kennedy_pendleton(rng, alpha);
        // g = h · v̄ rotates the projected part onto h.
        let g = h.mul(v.conj());
        u = embed::<R>(g, i, j).mul(&u);
    }
    u.reunitarize()
}

/// One Cabibbo–Marinari *overrelaxation* update of a single link: for
/// each SU(2) subgroup, reflect the element about the staple direction —
/// `g = v̄²` preserves `Re tr₂(g·m)` exactly (microcanonical) while
/// moving the link as far as possible, decorrelating the Markov chain
/// between heatbath touches.
pub fn update_link_or<R: Real>(u: &Su3<R>, staple: &Su3<R>) -> Su3<R> {
    let mut u = *u;
    for &(i, j) in &SUBGROUPS {
        let w = u.mul(staple);
        let (k, v) = su2_project(&submatrix(&w, i, j));
        if k < 1e-12 {
            continue;
        }
        let g = v.conj().mul(v.conj());
        u = embed::<R>(g, i, j).mul(&u);
    }
    u.reunitarize()
}

/// One full overrelaxation sweep (microcanonical: the Wilson action is
/// unchanged to rounding).
pub fn overrelax_sweep<R: Real>(g: &mut GaugeField<R>, global: Dims) {
    let sub = g.sublattice().clone();
    assert!(sub.partitioned.iter().all(|&x| !x), "overrelaxation operates on global fields");
    for p in Parity::BOTH {
        for mu in 0..NDIM {
            let updates: Vec<(usize, Su3<R>)> = sub
                .sites(p)
                .map(|(idx, c)| {
                    let staple = staple_sum(g, global, c, mu);
                    (idx, update_link_or(&g.link(mu, p, idx), &staple))
                })
                .collect();
            for (idx, u) in updates {
                g.set_link(mu, p, idx, u);
            }
        }
    }
}

/// One full heatbath sweep over every link of a global field.
pub fn heatbath_sweep<R: Real>(
    g: &mut GaugeField<R>,
    global: Dims,
    beta: f64,
    seeds: &SeedTree,
    sweep_id: u64,
) {
    let sub = g.sublattice().clone();
    assert!(sub.partitioned.iter().all(|&x| !x), "heatbath operates on global fields");
    let tree = seeds.child("heatbath");
    for p in Parity::BOTH {
        for mu in 0..NDIM {
            let updates: Vec<(usize, Su3<R>)> = sub
                .sites(p)
                .map(|(idx, c)| {
                    let staple = staple_sum(g, global, c, mu);
                    let key = sweep_id.wrapping_mul(0x1_0000_0000).wrapping_add(
                        (global.index({
                            let mut gc = c;
                            for d in 0..NDIM {
                                gc[d] += sub.origin[d];
                            }
                            gc
                        }) * NDIM
                            + mu) as u64,
                    );
                    let mut rng = tree.stream(key);
                    let old = g.link(mu, p, idx);
                    (idx, update_link(&old, &staple, beta, &mut rng))
                })
                .collect();
            for (idx, u) in updates {
                g.set_link(mu, p, idx, u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::GaugeStart;
    use crate::plaquette::average_plaquette;
    use lqcd_lattice::{FaceGeometry, SubLattice};
    use std::sync::Arc;

    /// The Wilson gauge action `−(β/3) Σ_p Re tr U_p` (up to the constant).
    fn wilson_action<R: Real>(g: &GaugeField<R>, global: Dims, beta: f64) -> f64 {
        let n_plaq = (global.volume() * 6) as f64;
        -beta * average_plaquette(g, global) * n_plaq
    }

    #[test]
    fn quaternion_algebra() {
        let i = Quat([0.0, 1.0, 0.0, 0.0]);
        let j = Quat([0.0, 0.0, 1.0, 0.0]);
        let k = Quat([0.0, 0.0, 0.0, 1.0]);
        let neg = |q: Quat| Quat([-q.0[0], -q.0[1], -q.0[2], -q.0[3]]);
        // Conjugate-Hamilton convention (see type docs): i·j = −k, etc.
        assert_eq!(i.mul(j), neg(k));
        assert_eq!(j.mul(k), neg(i));
        assert_eq!(k.mul(i), neg(j));
        assert_eq!(i.mul(i), Quat([-1.0, 0.0, 0.0, 0.0]));
        // The product must represent matrix multiplication under to_su2.
        let a = Quat([0.5, 0.5, -0.5, 0.5]);
        let b = Quat([0.1, -0.7, 0.3, 0.2]).normalized();
        let lhs = a.mul(b).to_su2::<f64>();
        let (ma, mb) = (a.to_su2::<f64>(), b.to_su2::<f64>());
        for r in 0..2 {
            for c in 0..2 {
                let want = ma[r][0] * mb[0][c] + ma[r][1] * mb[1][c];
                assert!((lhs[r][c] - want).abs() < 1e-12);
            }
        }
        // Unit quaternions map to unitary 2×2 with det 1.
        let q = Quat([0.5, 0.5, 0.5, 0.5]);
        let m = q.to_su2::<f64>();
        let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
        assert!((det - Complex::one()).abs() < 1e-14);
    }

    #[test]
    fn embed_produces_special_unitary() {
        for &(i, j) in &SUBGROUPS {
            let u: Su3<f64> = embed(Quat([0.6, 0.8, 0.0, 0.0]), i, j);
            assert!(u.unitarity_error() < 1e-14);
            assert!((u.det() - Complex::one()).abs() < 1e-14);
        }
    }

    #[test]
    fn su2_project_recovers_pure_su2() {
        let q = Quat([0.1, -0.7, 0.3, 0.2]).normalized();
        let m = q.to_su2::<f64>();
        let (k, v) = su2_project(&m);
        assert!((k - 1.0).abs() < 1e-12);
        for d in 0..4 {
            assert!((v.0[d] - q.0[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn kp_sampler_favors_alignment_at_large_xi() {
        let t = SeedTree::new(1);
        let mut rng = t.rng();
        let n = 2000;
        let mean: f64 =
            (0..n).map(|_| kennedy_pendleton(&mut rng, 20.0).0[0]).sum::<f64>() / n as f64;
        // ⟨h0⟩ → 1 as ξ → ∞; at ξ=20 it's around 0.95.
        assert!(mean > 0.9, "mean h0 {mean}");
        let mean_weak: f64 =
            (0..n).map(|_| kennedy_pendleton(&mut rng, 0.05).0[0]).sum::<f64>() / n as f64;
        assert!(mean_weak < mean, "weak coupling should be less aligned");
    }

    #[test]
    fn heatbath_equilibrates_toward_known_plaquettes() {
        let global = Dims([4, 4, 4, 4]);
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let seeds = SeedTree::new(9);
        // Weak coupling: β large ⇒ plaquette close to 1.
        let mut g =
            GaugeField::<f64>::generate(sub.clone(), &faces, global, &seeds, GaugeStart::Cold);
        for sweep in 0..8 {
            heatbath_sweep(&mut g, global, 12.0, &seeds, sweep);
        }
        let p_weak = average_plaquette(&g, global);
        assert!(p_weak > 0.8, "β=12 plaquette {p_weak}");
        // Strong coupling: β small ⇒ plaquette ≈ β/18.
        let mut g = GaugeField::<f64>::generate(sub, &faces, global, &seeds, GaugeStart::Hot);
        for sweep in 0..8 {
            heatbath_sweep(&mut g, global, 0.9, &seeds, sweep);
        }
        let p_strong = average_plaquette(&g, global);
        let want = 0.9 / 18.0;
        assert!(
            (p_strong - want).abs() < 0.05,
            "β=0.9 plaquette {p_strong}, strong-coupling estimate {want}"
        );
    }

    #[test]
    fn overrelaxation_is_microcanonical() {
        // A full OR sweep must leave the Wilson action unchanged (to
        // rounding) while actually moving the links.
        let global = Dims([4, 4, 4, 4]);
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let seeds = SeedTree::new(21);
        let mut g =
            GaugeField::<f64>::generate(sub, &faces, global, &seeds, GaugeStart::Disordered(0.3));
        let s_before = wilson_action(&g, global, 5.7);
        let u_before = g.link(0, Parity::Even, 0);
        overrelax_sweep(&mut g, global);
        let s_after = wilson_action(&g, global, 5.7);
        // Each link update preserves its own local action exactly, but
        // subsequent updates see already-moved staples — a *sweep* is
        // microcanonical only to the per-update exactness; verify tightly.
        assert!(
            (s_after - s_before).abs() < 1e-6 * s_before.abs(),
            "action drifted: {s_before} -> {s_after}"
        );
        let u_after = g.link(0, Parity::Even, 0);
        assert!(
            u_before.sub(&u_after).norm_sqr() > 1e-6,
            "overrelaxation left the links unchanged"
        );
        assert!(u_after.unitarity_error() < 1e-10);
    }

    #[test]
    fn heatbath_plus_or_equilibrates_like_heatbath() {
        let global = Dims([4, 4, 4, 4]);
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let seeds = SeedTree::new(22);
        let mut g = GaugeField::<f64>::generate(sub, &faces, global, &seeds, GaugeStart::Cold);
        for sweep in 0..5 {
            heatbath_sweep(&mut g, global, 12.0, &seeds, sweep);
            overrelax_sweep(&mut g, global);
        }
        let p = average_plaquette(&g, global);
        assert!(p > 0.8, "β=12 with HB+OR should sit near the weak-coupling plaquette: {p}");
    }

    #[test]
    fn heatbath_links_stay_in_group() {
        let global = Dims([4, 4, 4, 4]);
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let seeds = SeedTree::new(10);
        let mut g =
            GaugeField::<f64>::generate(sub, &faces, global, &seeds, GaugeStart::Disordered(0.3));
        heatbath_sweep(&mut g, global, 5.7, &seeds, 0);
        for mu in 0..4 {
            for p in Parity::BOTH {
                for idx in 0..g.links[mu][p.index()].num_sites() {
                    assert!(g.link(mu, p, idx).unitarity_error() < 1e-10);
                }
            }
        }
    }
}
