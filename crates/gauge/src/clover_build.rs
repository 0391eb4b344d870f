//! Clover-leaf field strength and construction of the packed clover term.
//!
//! The Wilson-clover operator's site-diagonal term is
//! `(4 + m + A_x)` with `A_x = c_sw Σ_{µ<ν} σ_µν ⊗ (i F̂_µν(x))`, where
//! `F̂_µν = (Q_µν − Q†_µν)/8` is the traceless anti-Hermitian clover
//! average of the four plaquette leaves and `σ_µν = (i/2)[γ_µ, γ_ν]`
//! (paper §2.2). In our chiral basis σ_µν is block diagonal, so `A_x`
//! packs into two 6×6 Hermitian blocks — the 72-real [`CloverSite`].
//!
//! A rank builds the clover term of its own sites only, from its
//! [`LexLinks`] box: the body links plus the one-site halo that
//! [`GaugeField::exchange_halo`] receives. The global build is the same
//! leaf loop on a box without halo, and [`restrict_clover`] cuts a rank's
//! sites out of it; together they are the test oracle of the rank-local
//! build.

use crate::field::GaugeField;
use crate::paths::LexLinks;
use lqcd_field::LatticeField;
use lqcd_lattice::{Dims, FaceGeometry, Parity, SubLattice, NDIM};
use lqcd_su3::clover::{CloverSite, HermBlock, BLOCK_DIM};
use lqcd_su3::gamma::GAMMA;
use lqcd_su3::Su3;
use lqcd_util::{Complex, Real};
use std::sync::Arc;

/// The clover sum `Q_µν(x)` of the four plaquette leaves around site `i`
/// in the µ–ν plane, each multiplied in path order starting at `x`.
fn leaf_sum<R: Real>(l: &LexLinks<R>, i: usize, mu: usize, nu: usize) -> Su3<R> {
    let (um, un) = (&l.u[mu], &l.u[nu]);
    let (xpm, xpn, xmm, xmn) = (l.up(mu, i), l.up(nu, i), l.dn(mu, i), l.dn(nu, i));
    let xmm_pn = l.up(nu, xmm);
    let xmm_mn = l.dn(nu, xmm);
    let xmn_pm = l.up(mu, xmn);
    // µ, ν, µ̄, ν̄.
    let q1 = um[i].mul(&un[xpm]).mul_adj(&um[xpn]).mul_adj(&un[i]);
    // ν, µ̄, ν̄, µ.
    let q2 = un[i].mul_adj(&um[xmm_pn]).mul_adj(&un[xmm]).mul(&um[xmm]);
    // µ̄, ν̄, µ, ν.
    let q3 = um[xmm].adjoint().mul_adj(&un[xmm_mn]).mul(&um[xmm_mn]).mul(&un[xmn]);
    // ν̄, µ, ν, µ̄.
    let q4 = un[xmn].adj_mul(&um[xmn]).mul(&un[xmn_pm]).mul_adj(&um[i]);
    q1.add(&q2).add(&q3).add(&q4)
}

/// `F̂ = (Q − Q†)/8` with its trace removed: the traceless anti-Hermitian
/// clover average of a leaf sum.
fn clover_average<R: Real>(q: &Su3<R>) -> Su3<R> {
    let f = q.sub(&q.adjoint()).scale(R::from_f64(1.0 / 8.0));
    let tr = f.trace().scale(R::from_f64(1.0 / 3.0));
    let mut out = f;
    for i in 0..3 {
        out.m[i][i] -= tr;
    }
    out
}

/// Dense 4×4 value of `σ_µν = i γ_µ γ_ν` (for µ ≠ ν the commutator
/// collapses to a single product).
fn sigma_entry<R: Real>(mu: usize, nu: usize, row: usize, col: usize) -> Complex<R> {
    let prod = GAMMA[mu].mul(&GAMMA[nu]);
    if prod.col[row] == col {
        prod.phase[row].value::<R>().mul_i()
    } else {
        Complex::zero()
    }
}

/// `σ_µν` restricted to its chirality blocks: `[µ][ν][χ][s][s′]` is the
/// entry at row `2χ+s`, column `2χ+s′`.
type SigmaBlocks<R> = [[[[[Complex<R>; 2]; 2]; 2]; NDIM]; NDIM];

fn sigma_blocks<R: Real>() -> SigmaBlocks<R> {
    use std::array::from_fn;
    from_fn(|mu| {
        from_fn(|nu| {
            from_fn(|chi| from_fn(|s| from_fn(|s2| sigma_entry(mu, nu, 2 * chi + s, 2 * chi + s2))))
        })
    })
}

/// Construct the packed clover term for every site of a *global* gauge
/// field: `A_x = c_sw Σ_{µ<ν} σ_µν ⊗ (i F̂_µν)` (no mass/diagonal shift —
/// operators fold `4 + m` in at apply time).
pub fn build_clover_field<R: Real>(
    g: &GaugeField<R>,
    global: Dims,
    c_sw: f64,
) -> [LatticeField<R, CloverSite<R>>; 2] {
    build_clover(&LexLinks::new(g, global), c_sw)
}

/// Construct the packed clover term on the body sites of a links box
/// (one rank's sites, or every site of a global box), as
/// [`build_clover_field`] does. Each leaf reads the box's halo where it
/// crosses a partitioned boundary, so every site is bit-identical to the
/// restricted global build.
pub fn build_clover<R: Real>(l: &LexLinks<R>, c_sw: f64) -> [LatticeField<R, CloverSite<R>>; 2] {
    let sub = l.sublattice().clone();
    let sigma = sigma_blocks::<R>();
    let faces = FaceGeometry::new(&sub, 1).expect("face geometry");
    let mut out = [
        LatticeField::zeros(sub.clone(), &faces, Parity::Even, 0),
        LatticeField::zeros(sub.clone(), &faces, Parity::Odd, 0),
    ];
    for (i, c) in l.body() {
        let site = pack_clover(|mu, nu| clover_average(&leaf_sum(l, i, mu, nu)), &sigma, c_sw);
        out[sub.parity(c).index()].set_site(sub.cb_index(c), site);
    }
    out
}

/// The clover term at one site from its six field strengths `f(µ, ν)`.
fn pack_clover<R: Real>(
    f: impl Fn(usize, usize) -> Su3<R>,
    sigma: &SigmaBlocks<R>,
    c_sw: f64,
) -> CloverSite<R> {
    let mut dense = [[[Complex::<R>::zero(); BLOCK_DIM]; BLOCK_DIM]; 2];
    for mu in 0..NDIM {
        for nu in (mu + 1)..NDIM {
            // H = iF is Hermitian in color.
            let h = f(mu, nu).scale_c(Complex::i());
            for chi in 0..2 {
                for s in 0..2 {
                    for s2 in 0..2 {
                        let ph = sigma[mu][nu][chi][s][s2];
                        if ph == Complex::zero() {
                            continue;
                        }
                        for c in 0..3 {
                            for c2 in 0..3 {
                                dense[chi][s * 3 + c][s2 * 3 + c2] +=
                                    ph * h.m[c][c2] * Complex::from_re(R::from_f64(c_sw));
                            }
                        }
                    }
                }
            }
        }
    }
    // Verify hermiticity before packing (cheap; debug builds only).
    #[cfg(debug_assertions)]
    for block in &dense {
        for i in 0..BLOCK_DIM {
            for j in 0..BLOCK_DIM {
                let d = block[i][j] - block[j][i].conj();
                debug_assert!(
                    d.norm_sqr().to_f64() < 1e-16,
                    "clover block not Hermitian at ({i},{j})"
                );
            }
        }
    }
    CloverSite { blocks: [HermBlock::from_dense(&dense[0]), HermBlock::from_dense(&dense[1])] }
}

/// Restrict a globally-built clover field to one rank's subvolume.
pub fn restrict_clover<R: Real>(
    global_clover: &[LatticeField<R, CloverSite<R>>; 2],
    sub: Arc<SubLattice>,
    faces: &FaceGeometry,
) -> [LatticeField<R, CloverSite<R>>; 2] {
    [
        LatticeField::restrict_from_global(&global_clover[0], sub.clone(), faces, Parity::Even, 0),
        LatticeField::restrict_from_global(&global_clover[1], sub, faces, Parity::Odd, 0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::GaugeStart;
    use crate::paths::{path_product, Step};
    use lqcd_su3::WilsonSpinor;
    use lqcd_util::rng::SeedTree;

    /// Oracle: the clover-averaged field strength `F̂_µν(x)`, each of the
    /// four leaves walked as a path.
    fn field_strength<R: Real>(
        g: &GaugeField<R>,
        global: Dims,
        x: [usize; NDIM],
        mu: usize,
        nu: usize,
    ) -> Su3<R> {
        debug_assert!(mu != nu);
        let leaves: [[Step; 4]; 4] = [
            [Step(mu, true), Step(nu, true), Step(mu, false), Step(nu, false)],
            [Step(nu, true), Step(mu, false), Step(nu, false), Step(mu, true)],
            [Step(mu, false), Step(nu, false), Step(mu, true), Step(nu, true)],
            [Step(nu, false), Step(mu, true), Step(nu, true), Step(mu, false)],
        ];
        let mut q = Su3::zero();
        for leaf in &leaves {
            q = q.add(&path_product(g, global, x, leaf));
        }
        clover_average(&q)
    }

    /// Oracle: the clover term at one site, as built before the field-level
    /// build (σ entries recomputed per site).
    fn clover_site<R: Real>(
        g: &GaugeField<R>,
        global: Dims,
        x: [usize; NDIM],
        c_sw: f64,
    ) -> CloverSite<R> {
        let mut dense = [[[Complex::<R>::zero(); BLOCK_DIM]; BLOCK_DIM]; 2];
        for mu in 0..NDIM {
            for nu in (mu + 1)..NDIM {
                let f = field_strength(g, global, x, mu, nu);
                // H = iF is Hermitian in color.
                let h = f.scale_c(Complex::i());
                for chi in 0..2 {
                    for s in 0..2 {
                        for s2 in 0..2 {
                            let ph = sigma_entry::<R>(mu, nu, 2 * chi + s, 2 * chi + s2);
                            if ph == Complex::zero() {
                                continue;
                            }
                            for c in 0..3 {
                                for c2 in 0..3 {
                                    dense[chi][s * 3 + c][s2 * 3 + c2] +=
                                        ph * h.m[c][c2] * Complex::from_re(R::from_f64(c_sw));
                                }
                            }
                        }
                    }
                }
            }
        }
        // Verify hermiticity before packing (cheap; debug builds only).
        #[cfg(debug_assertions)]
        for block in &dense {
            for i in 0..BLOCK_DIM {
                for j in 0..BLOCK_DIM {
                    let d = block[i][j] - block[j][i].conj();
                    debug_assert!(
                        d.norm_sqr().to_f64() < 1e-16,
                        "clover block not Hermitian at ({i},{j})"
                    );
                }
            }
        }
        CloverSite { blocks: [HermBlock::from_dense(&dense[0]), HermBlock::from_dense(&dense[1])] }
    }

    fn field(global: Dims, start: GaugeStart, seed: u64) -> GaugeField<f64> {
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        GaugeField::generate(sub, &faces, global, &SeedTree::new(seed), start)
    }

    #[test]
    fn field_build_equals_per_site_oracle_exactly() {
        let global = Dims([4, 6, 4, 8]);
        for (start, seed) in [(GaugeStart::Hot, 8), (GaugeStart::Disordered(0.3), 9)] {
            let g = field(global, start, seed);
            let whole = build_clover_field(&g, global, 1.3);
            for p in Parity::BOTH {
                for (idx, x) in g.sublattice().sites(p) {
                    let want = clover_site(&g, global, x, 1.3);
                    assert_eq!(whole[p.index()].site(idx), want, "{start:?} at {x:?}");
                }
            }
        }
    }

    #[test]
    fn free_field_strength_vanishes() {
        let global = Dims([4, 4, 4, 4]);
        let g = field(global, GaugeStart::Cold, 1);
        for mu in 0..4 {
            for nu in (mu + 1)..4 {
                let f = field_strength(&g, global, [1, 2, 0, 3], mu, nu);
                assert!(f.norm_sqr() < 1e-24, "F_{mu}{nu} ≠ 0 on free field");
            }
        }
    }

    #[test]
    fn field_strength_is_traceless_antihermitian() {
        let global = Dims([4, 4, 4, 4]);
        let g = field(global, GaugeStart::Disordered(0.3), 2);
        let f = field_strength(&g, global, [0, 1, 2, 3], 0, 2);
        assert!(f.norm_sqr() > 1e-6, "disordered field should have flux");
        assert!(f.trace().abs() < 1e-12);
        // F† = −F.
        assert!(f.adjoint().add(&f).norm_sqr() < 1e-24);
    }

    #[test]
    fn sigma_is_hermitian_and_block_diagonal() {
        for mu in 0..4 {
            for nu in 0..4 {
                if mu == nu {
                    continue;
                }
                for r in 0..4 {
                    for c in 0..4 {
                        let a: Complex<f64> = sigma_entry(mu, nu, r, c);
                        let b: Complex<f64> = sigma_entry(mu, nu, c, r);
                        assert!((a - b.conj()).abs() < 1e-15, "σ not Hermitian");
                        // Chirality block structure: rows 0,1 couple only
                        // to cols 0,1 etc.
                        if (r < 2) != (c < 2) {
                            assert_eq!(a, Complex::zero(), "σ crosses chirality");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn clover_term_vanishes_on_free_field() {
        let global = Dims([4, 4, 4, 4]);
        let g = field(global, GaugeStart::Cold, 3);
        let a = clover_site(&g, global, [0, 0, 0, 0], 1.0);
        let t = SeedTree::new(4);
        let v = WilsonSpinor::<f64>::random(&mut t.rng());
        assert!(a.apply(&v).norm_sqr() < 1e-20);
    }

    #[test]
    fn clover_term_is_hermitian_operator() {
        let global = Dims([4, 4, 4, 4]);
        let g = field(global, GaugeStart::Disordered(0.25), 5);
        let a = clover_site(&g, global, [1, 0, 2, 3], 1.2);
        let t = SeedTree::new(6);
        let mut rng = t.rng();
        let v = WilsonSpinor::<f64>::random(&mut rng);
        let w = WilsonSpinor::<f64>::random(&mut rng);
        let lhs = w.dot(&a.apply(&v));
        let rhs = a.apply(&w).dot(&v);
        assert!((lhs - rhs).abs() < 1e-10);
        // And it is genuinely nonzero.
        assert!(a.apply(&v).norm_sqr() > 1e-8);
    }

    #[test]
    fn build_and_restrict_roundtrip() {
        use lqcd_lattice::ProcessGrid;
        let global = Dims([4, 4, 4, 8]);
        let g = field(global, GaugeStart::Disordered(0.2), 7);
        let whole = build_clover_field(&g, global, 1.0);
        let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), global).unwrap();
        let gsub = g.sublattice().clone();
        for rank in 0..2 {
            let sub = Arc::new(SubLattice::for_rank(&grid, rank));
            let faces = FaceGeometry::new(&sub, 1).unwrap();
            let local = restrict_clover(&whole, sub.clone(), &faces);
            for p in Parity::BOTH {
                for (idx, c) in sub.sites(p) {
                    let mut gc = c;
                    gc[3] += sub.origin[3];
                    let want = whole[gsub.parity(gc).index()].site(gsub.cb_index(gc));
                    assert_eq!(local[p.index()].site(idx), want);
                }
            }
        }
    }

    #[test]
    fn rank_local_clover_equals_restricted_global_exactly() {
        use crate::paths::tests::GRIDS;
        use lqcd_comms::{run_on_grid, Communicator};
        use lqcd_lattice::ProcessGrid;
        for (dims, global) in GRIDS {
            let global = Dims(global);
            for (start, seed) in [(GaugeStart::Disordered(0.3), 12), (GaugeStart::Hot, 13)] {
                let whole = build_clover_field(&field(global, start, seed), global, 1.3);
                let whole = &whole;
                run_on_grid(ProcessGrid::new(Dims(dims), global).unwrap(), |mut comm| {
                    let sub = Arc::new(SubLattice::for_rank(comm.grid(), comm.rank()));
                    let faces = FaceGeometry::new(&sub, 1).unwrap();
                    let mut g = GaugeField::generate(
                        sub.clone(),
                        &faces,
                        global,
                        &SeedTree::new(seed),
                        start,
                    );
                    let local = build_clover(&g.exchange_halo(&mut comm).unwrap(), 1.3);
                    let want = restrict_clover(whole, sub.clone(), &faces);
                    for p in Parity::BOTH {
                        for (idx, c) in sub.sites(p) {
                            assert_eq!(
                                local[p.index()].site(idx),
                                want[p.index()].site(idx),
                                "{dims:?} {start:?} rank {} at {c:?}",
                                comm.rank()
                            );
                        }
                    }
                });
            }
        }
    }
}
