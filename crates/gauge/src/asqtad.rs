//! Asqtad link improvement: fat links and long (Naik) links.
//!
//! The improved staggered operator (paper §2.3) replaces the thin link by
//! two precomputed fields: the *fat* link `Û_µ(x)` — a weighted sum of the
//! single link and 3-, 5-, 7-link staples plus the Lepage term — and the
//! *long* link `Ǔ_µ(x) = c_N · U_µ(x) U_µ(x+µ̂) U_µ(x+2µ̂)` carrying the
//! Naik coefficient.
//!
//! Coefficients are the standard asqtad set (MILC conventions, tadpole
//! factor u₀ = 1), fixed by three conditions the tests verify on the free
//! field: the Fat7 kernel sums to 1, the Lepage term's −3/8 is compensated
//! in the one-link, and the Naik compensation makes the total one-hop
//! coefficient 9/8 so that `(9/8)·sin(p) − (1/24)·sin(3p) = p + O(p⁵)`.
//!
//! # Field-level staple recursion
//!
//! The 85 fat-link paths per direction share most of their products, so
//! [`AsqtadLinks::compute`] builds them as whole fields, as MILC and QUDA
//! do. For a µ-direction field `X` and a transverse direction ν, the
//! staple of `X` is the sum of
//!
//! * the up staple `U_ν(x) X(x+ν̂) U_ν(x+µ̂)†`, and
//! * the down staple `U_ν(x−ν̂)† X(x−ν̂) U_ν(x−ν̂+µ̂)`.
//!
//! With `X = U_µ` this gives the 3-staple field of ν; its staple in ρ is
//! the 5-staple field of (ν, ρ), and that field's staple in the remaining
//! direction σ is the 7-staple field. Summed over ordered (ν, ρ, σ) this
//! is exactly the 6 + 24 + 48 paths of the enumeration. The Lepage term
//! wraps each 3-staple again in its *own* sign — up of the up staple,
//! down of the down staple — which is the 6 double-staple paths and
//! nothing else. MILC instead folds the mixed-sign wraps that a full
//! staple-of-staple produces back into the one-link (`c_1 − 6·c_L`); that
//! cancellation holds only for unitary thin links, and this build does
//! not assume unitarity.
//!
//! Each staple costs 4 SU(3) products per site (2 up, 2 down, using the
//! fused [`Su3::mul_adj`] and [`Su3::adj_mul`]). Per direction and site
//! that is, for each of the 3 ν: the 3-staple (4), the Lepage wraps (4),
//! 2 five-staples (8) and 2 seven-staples (8) — 72 products — plus 2 for
//! the long link: 74, against 508 for enumerating every path from every
//! site. The build holds three volume-sized temporaries (the fat
//! accumulator and two staple fields) besides the lexicographic copy of
//! the thin links. Fat links agree with the path enumeration (kept in the
//! tests as the oracle) to rounding; long links are bit-identical.

use crate::field::GaugeField;
use crate::paths::LexLinks;
use lqcd_lattice::{Dims, FaceGeometry, NDIM};
use lqcd_su3::Su3;
use lqcd_util::Real;

/// Path coefficients of the asqtad action (per path).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AsqtadCoeffs {
    /// Single thin link.
    pub one_link: f64,
    /// Each 3-link staple (6 paths per direction).
    pub three_staple: f64,
    /// Each 5-link staple (24 paths).
    pub five_staple: f64,
    /// Each 7-link staple (48 paths).
    pub seven_staple: f64,
    /// Each Lepage (double-staple) path (6 paths).
    pub lepage: f64,
    /// The Naik (3-hop) coefficient, folded into the long link.
    pub naik: f64,
}

impl Default for AsqtadCoeffs {
    fn default() -> Self {
        // one_link = 1/8 (Fat7) + 3/8 (Lepage compensation) + 1/8 (Naik
        // compensation) = 5/8.
        AsqtadCoeffs {
            one_link: 5.0 / 8.0,
            three_staple: 1.0 / 16.0,
            five_staple: 1.0 / 64.0,
            seven_staple: 1.0 / 384.0,
            lepage: -1.0 / 16.0,
            naik: -1.0 / 24.0,
        }
    }
}

impl AsqtadCoeffs {
    /// Free-field (cold-link) value of the fat link: the sum over all
    /// paths. Must be 9/8 for the default set.
    pub fn free_field_fat(&self) -> f64 {
        self.one_link
            + 6.0 * self.three_staple
            + 24.0 * self.five_staple
            + 48.0 * self.seven_staple
            + 6.0 * self.lepage
    }
}

/// The precomputed improved-staggered link pair.
#[derive(Clone, Debug)]
pub struct AsqtadLinks<R: Real> {
    /// Fat links `Û_µ` (not unitary — stored uncompressed, cf. Fig. 6's
    /// "no gauge reconstruction").
    pub fat: GaugeField<R>,
    /// Long links `Ǔ_µ` with the Naik coefficient folded in.
    pub long: GaugeField<R>,
}

/// The staple of the µ-direction field `x` in direction ν at site `i`:
/// up `U_ν(x) X(x+ν̂) U_ν(x+µ̂)†` plus down `U_ν(x−ν̂)† X(x−ν̂) U_ν(x−ν̂+µ̂)`.
#[inline]
fn staple<R: Real>(l: &LexLinks<R>, mu: usize, nu: usize, x: &[Su3<R>], i: usize) -> Su3<R> {
    up_staple(l, mu, nu, x, i).add(&down_staple(l, mu, nu, x, i))
}

#[inline]
fn up_staple<R: Real>(l: &LexLinks<R>, mu: usize, nu: usize, x: &[Su3<R>], i: usize) -> Su3<R> {
    let u = &l.u[nu];
    u[i].mul(&x[l.up(nu, i)]).mul_adj(&u[l.up(mu, i)])
}

#[inline]
fn down_staple<R: Real>(l: &LexLinks<R>, mu: usize, nu: usize, x: &[Su3<R>], i: usize) -> Su3<R> {
    let u = &l.u[nu];
    let j = l.dn(nu, i);
    u[j].adj_mul(&x[j]).mul(&u[l.up(mu, j)])
}

/// `acc[i] += c · f(i)` over the whole field.
fn accumulate<R: Real>(acc: &mut [Su3<R>], c: f64, f: impl Fn(usize) -> Su3<R>) {
    let c = R::from_f64(c);
    for (i, a) in acc.iter_mut().enumerate() {
        *a = a.add(&f(i).scale(c));
    }
}

impl<R: Real> AsqtadLinks<R> {
    /// Compute fat and long links from a *global* thin-link field by the
    /// field-level staple recursion (see module docs).
    pub fn compute(thin: &GaugeField<R>, global: Dims, coeffs: &AsqtadCoeffs) -> Self {
        let l = LexLinks::new(thin, global);
        let sub = thin.sublattice().clone();
        let faces = FaceGeometry::new(&sub, 3).expect("global face geometry");
        let mut fat = GaugeField::zeros(sub.clone(), &faces, 0);
        let mut long = GaugeField::zeros(sub, &faces, 0);
        let v = l.volume();
        let mut acc = vec![Su3::zero(); v];
        // `s3`/`s5` hold the up/down 3-staples, then their sum and the
        // 5-staple field.
        let mut s3 = vec![Su3::zero(); v];
        let mut s5 = vec![Su3::zero(); v];
        for mu in 0..NDIM {
            let x = &l.u[mu];
            let one = R::from_f64(coeffs.one_link);
            for (a, u) in acc.iter_mut().zip(x) {
                *a = u.scale(one);
            }
            for nu in (0..NDIM).filter(|&d| d != mu) {
                for i in 0..v {
                    s3[i] = up_staple(&l, mu, nu, x, i);
                    s5[i] = down_staple(&l, mu, nu, x, i);
                }
                accumulate(&mut acc, coeffs.lepage, |i| {
                    up_staple(&l, mu, nu, &s3, i).add(&down_staple(&l, mu, nu, &s5, i))
                });
                for (a, b) in s3.iter_mut().zip(&s5) {
                    *a = a.add(b);
                }
                accumulate(&mut acc, coeffs.three_staple, |i| s3[i]);
                for rho in (0..NDIM).filter(|&d| d != mu && d != nu) {
                    for (i, s) in s5.iter_mut().enumerate() {
                        *s = staple(&l, mu, rho, &s3, i);
                    }
                    accumulate(&mut acc, coeffs.five_staple, |i| s5[i]);
                    let sigma = (0..NDIM)
                        .find(|&d| d != mu && d != nu && d != rho)
                        .expect("four dimensions leave one σ");
                    accumulate(&mut acc, coeffs.seven_staple, |i| staple(&l, mu, sigma, &s5, i));
                }
            }
            l.scatter(&acc, mu, &mut fat);
            let naik = R::from_f64(coeffs.naik);
            for (i, a) in acc.iter_mut().enumerate() {
                let j = l.up(mu, i);
                *a = x[i].mul(&x[j]).mul(&x[l.up(mu, j)]).scale(naik);
            }
            l.scatter(&acc, mu, &mut long);
        }
        Self { fat, long }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::GaugeStart;
    use crate::paths::{path_product, Step};
    use lqcd_lattice::{Parity, SubLattice};
    use lqcd_util::rng::SeedTree;
    use std::sync::Arc;

    /// Enumerate the staple paths for direction `mu`.
    fn staple_paths(mu: usize) -> Vec<(f64, Vec<Step>)> {
        let c = AsqtadCoeffs::default();
        staple_paths_with(mu, &c)
    }

    /// Enumerate the staple paths for direction `mu` with explicit
    /// coefficients. Every path starts and ends displaced by +µ̂ overall.
    fn staple_paths_with(mu: usize, c: &AsqtadCoeffs) -> Vec<(f64, Vec<Step>)> {
        let mut out = Vec::new();
        let trans: Vec<usize> = (0..NDIM).filter(|&d| d != mu).collect();
        // One-link.
        out.push((c.one_link, vec![Step(mu, true)]));
        for (i, &nu) in trans.iter().enumerate() {
            for &s1 in &[true, false] {
                // 3-staple: ν, µ, ν̄.
                out.push((c.three_staple, vec![Step(nu, s1), Step(mu, true), Step(nu, !s1)]));
                // Lepage: ν, ν, µ, ν̄, ν̄.
                out.push((
                    c.lepage,
                    vec![Step(nu, s1), Step(nu, s1), Step(mu, true), Step(nu, !s1), Step(nu, !s1)],
                ));
                for (j, &rho) in trans.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    for &s2 in &[true, false] {
                        // 5-staple: ν, ρ, µ, ρ̄, ν̄.
                        out.push((
                            c.five_staple,
                            vec![
                                Step(nu, s1),
                                Step(rho, s2),
                                Step(mu, true),
                                Step(rho, !s2),
                                Step(nu, !s1),
                            ],
                        ));
                        for (k, &sig) in trans.iter().enumerate() {
                            if k == i || k == j {
                                continue;
                            }
                            for &s3 in &[true, false] {
                                // 7-staple: ν, ρ, σ, µ, σ̄, ρ̄, ν̄.
                                out.push((
                                    c.seven_staple,
                                    vec![
                                        Step(nu, s1),
                                        Step(rho, s2),
                                        Step(sig, s3),
                                        Step(mu, true),
                                        Step(sig, !s3),
                                        Step(rho, !s2),
                                        Step(nu, !s1),
                                    ],
                                ));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The oracle: every path of [`staple_paths_with`] walked from every
    /// site (the pre-recursion build).
    fn compute_by_paths(
        thin: &GaugeField<f64>,
        global: Dims,
        coeffs: &AsqtadCoeffs,
    ) -> AsqtadLinks<f64> {
        let sub = thin.sublattice().clone();
        let faces = FaceGeometry::new(&sub, 3).unwrap();
        let mut fat = GaugeField::zeros(sub.clone(), &faces, 0);
        let mut long = GaugeField::zeros(sub.clone(), &faces, 0);
        for mu in 0..NDIM {
            let paths = staple_paths_with(mu, coeffs);
            for p in Parity::BOTH {
                for (idx, x) in sub.sites(p) {
                    let mut acc = Su3::zero();
                    for (w, path) in &paths {
                        let prod = path_product(thin, global, x, path);
                        acc = acc.add(&prod.scale(*w));
                    }
                    let naik = [Step(mu, true), Step(mu, true), Step(mu, true)];
                    let l = path_product(thin, global, x, &naik).scale(coeffs.naik);
                    fat.set_link(mu, p, idx, acc);
                    long.set_link(mu, p, idx, l);
                }
            }
        }
        AsqtadLinks { fat, long }
    }

    fn field(global: Dims, start: GaugeStart, seed: u64) -> GaugeField<f64> {
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, 3).unwrap();
        GaugeField::generate(sub, &faces, global, &SeedTree::new(seed), start)
    }

    #[test]
    fn default_coefficients_satisfy_improvement_conditions() {
        let c = AsqtadCoeffs::default();
        // Free-field fat coefficient 9/8.
        assert!((c.free_field_fat() - 9.0 / 8.0).abs() < 1e-15);
        // Continuum normalization: c_fat + 3·c_naik = 1.
        assert!((c.free_field_fat() + 3.0 * c.naik - 1.0).abs() < 1e-15);
        // O(a²) dispersion: p³ terms cancel: c_fat·(1/6) = −c_naik·(27/6).
        assert!((c.free_field_fat() / 6.0 + c.naik * 27.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn path_counts_match_asqtad() {
        let paths = staple_paths(0);
        let count = |len: usize| paths.iter().filter(|(_, p)| p.len() == len).count();
        assert_eq!(count(1), 1, "one-link");
        assert_eq!(count(3), 6, "3-staples");
        // Length 5: 24 five-staples + 6 Lepage.
        assert_eq!(count(5), 30);
        assert_eq!(count(7), 48, "7-staples");
    }

    /// Largest per-link relative Frobenius distance between two fields.
    fn max_rel_diff(a: &GaugeField<f64>, b: &GaugeField<f64>) -> f64 {
        let sub = a.sublattice().clone();
        let mut worst = 0.0f64;
        for mu in 0..NDIM {
            for p in Parity::BOTH {
                for (idx, _) in sub.sites(p) {
                    let (x, y) = (a.link(mu, p, idx), b.link(mu, p, idx));
                    worst = worst.max((x.sub(&y).norm_sqr() / y.norm_sqr()).sqrt());
                }
            }
        }
        worst
    }

    fn assert_matches_path_oracle(global: Dims) {
        let c = AsqtadCoeffs::default();
        for (start, seed) in [(GaugeStart::Hot, 11), (GaugeStart::Disordered(0.3), 12)] {
            let thin = field(global, start, seed);
            let got = AsqtadLinks::compute(&thin, global, &c);
            let want = compute_by_paths(&thin, global, &c);
            let rel = max_rel_diff(&got.fat, &want.fat);
            assert!(rel <= 1e-13, "{global} {start:?}: fat links differ by {rel:e}");
            for mu in 0..NDIM {
                for p in Parity::BOTH {
                    let (a, b) = (&got.long.links[mu][p.index()], &want.long.links[mu][p.index()]);
                    let bits = |f: &lqcd_field::LatticeField<f64, Su3<f64>>| {
                        f.body().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(a), bits(b), "{global} {start:?}: long links µ={mu}");
                }
            }
        }
    }

    #[test]
    fn recursion_matches_path_oracle() {
        assert_matches_path_oracle(Dims([4, 4, 4, 4]));
    }

    #[test]
    fn recursion_matches_path_oracle_on_non_cubic_lattice() {
        assert_matches_path_oracle(Dims([4, 6, 4, 8]));
    }

    #[test]
    fn links_are_covariant_under_local_gauge_transform() {
        // U_µ(x) → g(x) U_µ(x) g(x+µ̂)† must carry F_µ(x) → g(x) F_µ(x) g(x+µ̂)†
        // and L_µ(x) → g(x) L_µ(x) g(x+3µ̂)†. A staple wired with the wrong
        // orientation breaks this while still passing the free-field test.
        let global = Dims([4, 4, 4, 6]);
        let c = AsqtadCoeffs::default();
        for (start, seed) in [(GaugeStart::Hot, 21), (GaugeStart::Disordered(0.3), 22)] {
            let thin = field(global, start, seed);
            let sub = thin.sublattice().clone();
            let tree = SeedTree::new(seed + 100);
            let mut rng = tree.rng();
            let g: Vec<Su3<f64>> = (0..global.volume()).map(|_| Su3::random(&mut rng)).collect();
            let g_at = |x: [usize; NDIM]| g[global.index(x)];
            let mut rotated = thin.clone();
            for mu in 0..NDIM {
                for p in Parity::BOTH {
                    for (idx, x) in sub.sites(p) {
                        let u = thin.link(mu, p, idx);
                        let gx = g_at(x).mul(&u).mul_adj(&g_at(global.displace(x, mu, 1)));
                        rotated.set_link(mu, p, idx, gx);
                    }
                }
            }
            let before = AsqtadLinks::compute(&thin, global, &c);
            let after = AsqtadLinks::compute(&rotated, global, &c);
            for mu in 0..NDIM {
                for p in Parity::BOTH {
                    for (idx, x) in sub.sites(p) {
                        let gx = g_at(x);
                        let f = gx.mul(&before.fat.link(mu, p, idx));
                        let f = f.mul_adj(&g_at(global.displace(x, mu, 1)));
                        let l = gx.mul(&before.long.link(mu, p, idx));
                        let l = l.mul_adj(&g_at(global.displace(x, mu, 3)));
                        let df = f.sub(&after.fat.link(mu, p, idx)).norm_sqr().sqrt();
                        let dl = l.sub(&after.long.link(mu, p, idx)).norm_sqr().sqrt();
                        assert!(df <= 1e-12, "{start:?} fat µ={mu} {x:?}: {df:e}");
                        assert!(dl <= 1e-12, "{start:?} long µ={mu} {x:?}: {dl:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn cold_field_fat_and_long_links() {
        let global = Dims([4, 4, 4, 8]);
        let thin = field(global, GaugeStart::Cold, 1);
        let links = AsqtadLinks::compute(&thin, global, &AsqtadCoeffs::default());
        let want_fat = Su3::identity().scale(9.0 / 8.0);
        let want_long = Su3::identity().scale(-1.0 / 24.0);
        for mu in 0..4 {
            for p in Parity::BOTH {
                for idx in [0, 5, 17] {
                    assert!(links.fat.link(mu, p, idx).sub(&want_fat).norm_sqr() < 1e-20);
                    assert!(links.long.link(mu, p, idx).sub(&want_long).norm_sqr() < 1e-20);
                }
            }
        }
    }

    #[test]
    fn fat_links_are_not_unitary_on_rough_fields() {
        let global = Dims([4, 4, 4, 4]);
        let thin = field(global, GaugeStart::Disordered(0.3), 2);
        let links = AsqtadLinks::compute(&thin, global, &AsqtadCoeffs::default());
        let u = links.fat.link(0, Parity::Even, 3);
        assert!(u.unitarity_error() > 1e-3, "smeared links should leave the group");
    }

    #[test]
    fn smearing_is_gauge_covariant_under_global_center_phase() {
        // Multiplying every T-link on a fixed timeslice by a center phase
        // commutes with smearing of spatial links away from that slice
        // (weak but cheap covariance check: fat spatial links on distant
        // slices are unchanged).
        let global = Dims([4, 4, 4, 8]);
        let thin = field(global, GaugeStart::Disordered(0.2), 3);
        let links = AsqtadLinks::compute(&thin, global, &AsqtadCoeffs::default());
        let mut twisted = thin.clone();
        let sub = thin.sublattice().clone();
        for p in Parity::BOTH {
            for (idx, c) in sub.sites(p) {
                if c[3] == 0 {
                    let u = twisted.link(3, p, idx);
                    twisted.set_link(3, p, idx, u.scale(-1.0));
                }
            }
        }
        let links_tw = AsqtadLinks::compute(&twisted, global, &AsqtadCoeffs::default());
        // A spatial fat link at t = 4 involves paths within t ∈ [3, 5]
        // (staples step at most ±1 in T), so it never touches t = 0 links.
        for p in Parity::BOTH {
            for (idx, c) in sub.sites(p) {
                if c[3] == 4 {
                    let a = links.fat.link(0, p, idx);
                    let b = links_tw.fat.link(0, p, idx);
                    assert!(a.sub(&b).norm_sqr() < 1e-24);
                }
            }
        }
    }
}
