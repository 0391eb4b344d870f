//! Declarative problem descriptions.
//!
//! A *problem* carries everything needed to reconstruct the same physical
//! system on any rank of any process grid: the global volume, the gauge
//! configuration recipe (seed + disorder), the fermion parameters, and
//! solver settings. Determinism is by construction — field generation is
//! keyed on global coordinates (see `lqcd-gauge`) — so a problem solved
//! on 1 rank and on 16 is the same linear system.

use lqcd_comms::Communicator;
use lqcd_dirac::wilson::SpinorField;
use lqcd_dirac::{StaggeredOp, WilsonCloverOp, STAGGERED_DEPTH, WILSON_DEPTH};
use lqcd_gauge::asqtad::{AsqtadCoeffs, AsqtadLinks};
use lqcd_gauge::clover_build::build_clover;
use lqcd_gauge::field::GaugeStart;
use lqcd_gauge::GaugeField;
use lqcd_lattice::{Dims, FaceGeometry, Parity, ProcessGrid, SubLattice};
use lqcd_solvers::{GcrParams, WatchdogConfig};
use lqcd_su3::{ColorVector, WilsonSpinor};
use lqcd_util::rng::SeedTree;
use lqcd_util::{Real, Result};
use std::sync::Arc;

/// A Wilson-clover solve specification.
#[derive(Clone, Debug)]
pub struct WilsonProblem {
    /// Global lattice extents.
    pub global: Dims,
    /// Master seed (gauge field, right-hand side).
    pub seed: u64,
    /// Gauge-field roughness in `[0, 1]` (our conditioning knob standing
    /// in for the ensemble's coupling/quark mass; see DESIGN.md).
    pub disorder: f64,
    /// Quark mass parameter `m`.
    pub mass: f64,
    /// Clover coefficient (`None` = plain Wilson).
    pub csw: Option<f64>,
    /// Solver tolerance (relative residual).
    pub tol: f64,
    /// Iteration budget.
    pub maxiter: usize,
    /// GCR parameters (for the GCR-DD driver).
    pub gcr: GcrParams,
    /// MR steps in the Schwarz preconditioner.
    pub mr_steps: usize,
    /// Solver-health watchdog thresholds (threaded through every rung of
    /// the GCR-DD drivers' precision ladder).
    pub watchdog: WatchdogConfig,
}

impl WilsonProblem {
    /// A small, well-conditioned default suitable for tests and examples.
    pub fn small() -> Self {
        WilsonProblem {
            global: Dims([8, 8, 8, 8]),
            seed: 20260707,
            disorder: 0.25,
            mass: 0.15,
            csw: Some(1.0),
            tol: 1e-8,
            maxiter: 4000,
            gcr: GcrParams {
                tol: 1e-8,
                kmax: 16,
                delta: 0.05,
                maxiter: 4000,
                quantize_krylov: false,
            },
            mr_steps: 8,
            watchdog: WatchdogConfig::default(),
        }
    }

    /// Build this rank's operator from the rank's own sites: gauge links
    /// generated on the body, one extended gauge-halo exchange that fills
    /// the backward gauge ghosts and feeds the rank-local clover build,
    /// and the `T⁻¹` tables.
    pub fn build_operator<C: Communicator>(
        &self,
        comm: &mut C,
        grid: &ProcessGrid,
    ) -> Result<WilsonCloverOp<f64>> {
        let seed = SeedTree::new(self.seed);
        let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
        let faces = FaceGeometry::new(&sub, WILSON_DEPTH)?;
        let mut gauge = GaugeField::<f64>::generate(
            sub,
            &faces,
            self.global,
            &seed,
            GaugeStart::Disordered(self.disorder),
        );
        let links = gauge.exchange_halo(comm)?;
        let clover = self.csw.map(|csw| build_clover(&links, csw));
        // Only the clover build reads the box: free it before `T⁻¹` allocates.
        drop(links);
        let mut op = WilsonCloverOp::new(gauge, clover, self.mass)?;
        op.build_t_inverse()?;
        Ok(op)
    }

    /// The deterministic Gaussian right-hand side on this rank (odd
    /// parity, as the even-odd preconditioned system expects).
    pub fn rhs<R: Real>(&self, op: &WilsonCloverOp<R>) -> SpinorField<R> {
        let seed = SeedTree::new(self.seed).child("rhs");
        let sub = op.sublattice().clone();
        let global = self.global;
        let mut b = op.alloc(Parity::Odd);
        b.fill(|idx| {
            let c = sub.cb_coords(Parity::Odd, idx);
            let mut gc = c;
            for d in 0..4 {
                gc[d] = c[d] + sub.origin[d];
            }
            WilsonSpinor::<f64>::random(&mut seed.stream(global.index(gc) as u64)).cast::<R>()
        });
        b
    }
}

/// An improved-staggered (asqtad) solve specification.
#[derive(Clone, Debug)]
pub struct StaggeredProblem {
    /// Global lattice extents.
    pub global: Dims,
    /// Master seed.
    pub seed: u64,
    /// Gauge roughness.
    pub disorder: f64,
    /// Quark mass `m` (the base of the shifted systems).
    pub mass: f64,
    /// The shifts σ_i of Eq. 4.
    pub shifts: Vec<f64>,
    /// Solver tolerance.
    pub tol: f64,
    /// Iteration budget.
    pub maxiter: usize,
}

impl StaggeredProblem {
    /// A small default for tests and examples.
    pub fn small() -> Self {
        StaggeredProblem {
            global: Dims([8, 8, 8, 8]),
            seed: 20260708,
            disorder: 0.2,
            mass: 0.2,
            shifts: vec![0.0, 0.1, 0.4, 1.6],
            tol: 1e-8,
            maxiter: 8000,
        }
    }

    /// Build this rank's operator. Fat/long links are computed on the
    /// global lattice (identically on every rank — they are precomputed
    /// inputs in production, §2.3) and restricted with their gauge
    /// ghosts.
    pub fn build_operator(&self, grid: &ProcessGrid, rank: usize) -> Result<StaggeredOp<f64>> {
        let seed = SeedTree::new(self.seed);
        let gsub = Arc::new(SubLattice::single(self.global)?);
        let gfaces = FaceGeometry::new(&gsub, STAGGERED_DEPTH)?;
        let thin = GaugeField::<f64>::generate(
            gsub,
            &gfaces,
            self.global,
            &seed,
            GaugeStart::Disordered(self.disorder),
        );
        let links = AsqtadLinks::compute(&thin, self.global, &AsqtadCoeffs::default());
        let sub = Arc::new(SubLattice::for_rank(grid, rank));
        let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH)?;
        let fat = GaugeField::restrict_from_global(&links.fat, sub.clone(), &faces, self.global);
        let long = GaugeField::restrict_from_global(&links.long, sub, &faces, self.global);
        StaggeredOp::new(fat, long, self.mass)
    }

    /// The deterministic right-hand side (even parity — the decoupled
    /// normal system).
    pub fn rhs(&self, op: &StaggeredOp<f64>) -> lqcd_dirac::staggered::StaggeredField<f64> {
        let seed = SeedTree::new(self.seed).child("rhs");
        let sub = op.sublattice().clone();
        let global = self.global;
        let mut b = op.alloc(Parity::Even);
        b.fill(|idx| {
            let c = sub.cb_coords(Parity::Even, idx);
            let mut gc = c;
            for d in 0..4 {
                gc[d] = c[d] + sub.origin[d];
            }
            ColorVector::random(&mut seed.stream(global.index(gc) as u64))
        });
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_comms::SingleComm;

    #[test]
    fn wilson_problem_builds_on_single_rank() {
        let p = WilsonProblem::small();
        let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), p.global).unwrap();
        let mut comm = SingleComm::new(p.global).unwrap();
        let op = p.build_operator(&mut comm, &grid).unwrap();
        assert!(op.t_inv.is_some());
        assert!(op.clover.is_some());
        let b = p.rhs(&op);
        assert!(lqcd_field::blas::norm2_local(&b) > 0.0);
    }

    #[test]
    fn staggered_problem_builds_on_single_rank() {
        let p = StaggeredProblem::small();
        let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), p.global).unwrap();
        let op = p.build_operator(&grid, 0).unwrap();
        let b = p.rhs(&op);
        assert!(lqcd_field::blas::norm2_local(&b) > 0.0);
        assert_eq!(op.mass, p.mass);
    }

    #[test]
    fn rhs_is_partition_invariant() {
        let p = WilsonProblem::small();
        // Single rank.
        let grid1 = ProcessGrid::new(Dims([1, 1, 1, 1]), p.global).unwrap();
        let mut comm = SingleComm::new(p.global).unwrap();
        let op1 = p.build_operator(&mut comm, &grid1).unwrap();
        let b1 = p.rhs(&op1);
        let sub1 = op1.sublattice().clone();
        // The (0,0,0,1) site on a split grid must carry the same value.
        let grid2 = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
        let sub2 = Arc::new(SubLattice::for_rank(&grid2, 0));
        let faces2 = FaceGeometry::new(&sub2, WILSON_DEPTH).unwrap();
        // Build rank 0's rhs directly without comms (fields only).
        let seed = SeedTree::new(p.seed).child("rhs");
        let mut b2: SpinorField<f64> =
            lqcd_field::LatticeField::zeros(sub2.clone(), &faces2, Parity::Odd, 0);
        let s2 = sub2.clone();
        let global = p.global;
        b2.fill(|idx| {
            let c = s2.cb_coords(Parity::Odd, idx);
            WilsonSpinor::random(&mut seed.stream(global.index(c) as u64))
        });
        // Compare the overlapping region (rank 0's origin is [0,0,0,0]).
        for (idx2, c) in sub2.sites(Parity::Odd) {
            let v2 = b2.site(idx2);
            let v1 = b1.site(sub1.cb_index(c));
            assert_eq!(v1, v2, "rhs differs at {c:?}");
        }
    }

    /// Oracle: the global build this crate used before the rank-local one.
    /// Every rank regenerates the whole gauge field, builds the clover
    /// term on every site and keeps its own; the gauge ghosts come from
    /// `exchange_ghosts`.
    fn global_build_operator<C: Communicator>(
        p: &WilsonProblem,
        comm: &mut C,
        grid: &ProcessGrid,
    ) -> Result<WilsonCloverOp<f64>> {
        use lqcd_gauge::clover_build::{build_clover_field, restrict_clover};
        let seed = SeedTree::new(p.seed);
        let start = GaugeStart::Disordered(p.disorder);
        let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
        let faces = FaceGeometry::new(&sub, WILSON_DEPTH)?;
        let mut gauge = GaugeField::<f64>::generate(sub.clone(), &faces, p.global, &seed, start);
        gauge.exchange_ghosts(comm, &faces)?;
        let clover = p.csw.map(|csw| -> Result<_> {
            let gsub = Arc::new(SubLattice::single(p.global)?);
            let gfaces = FaceGeometry::new(&gsub, WILSON_DEPTH)?;
            let ggauge = GaugeField::<f64>::generate(gsub, &gfaces, p.global, &seed, start);
            Ok(restrict_clover(&build_clover_field(&ggauge, p.global, csw), sub.clone(), &faces))
        });
        let mut op = WilsonCloverOp::new(gauge, clover.transpose()?, p.mass)?;
        op.build_t_inverse()?;
        Ok(op)
    }

    #[test]
    fn rank_local_build_equals_the_global_build_bitwise() {
        use lqcd_comms::{run_on_grid, ExchangeHandle};
        use lqcd_field::LatticeField;
        use lqcd_su3::clover::CloverSite;
        type Clover = Option<[LatticeField<f64, CloverSite<f64>>; 2]>;
        fn same(a: &Clover, b: &Clover) -> bool {
            match (a, b) {
                (Some(a), Some(b)) => (0..2).all(|q| a[q].body() == b[q].body()),
                (a, b) => a.is_none() && b.is_none(),
            }
        }
        /// Counts the exchanges and reductions a rank posts.
        struct Counted<C> {
            inner: C,
            messages: u64,
        }
        impl<C: Communicator> Communicator for Counted<C> {
            fn rank(&self) -> usize {
                self.inner.rank()
            }
            fn size(&self) -> usize {
                self.inner.size()
            }
            fn grid(&self) -> &ProcessGrid {
                self.inner.grid()
            }
            fn send_recv(&mut self, mu: usize, fwd: bool, s: &[f64], r: &mut [f64]) -> Result<()> {
                self.messages += 1;
                self.inner.send_recv(mu, fwd, s, r)
            }
            fn start_send_recv(
                &mut self,
                mu: usize,
                fwd: bool,
                s: &[f64],
            ) -> Result<ExchangeHandle> {
                self.messages += 1;
                self.inner.start_send_recv(mu, fwd, s)
            }
            fn complete_send_recv(&mut self, h: ExchangeHandle, r: &mut [f64]) -> Result<()> {
                self.inner.complete_send_recv(h, r)
            }
            fn allreduce_sum(&mut self, vals: &mut [f64]) -> Result<()> {
                self.messages += 1;
                self.inner.allreduce_sum(vals)
            }
            fn allreduce_max(&mut self, vals: &mut [f64]) -> Result<()> {
                self.messages += 1;
                self.inner.allreduce_max(vals)
            }
        }
        let grids = [
            ([1, 1, 1, 1], [4, 4, 4, 8]),
            ([1, 1, 1, 2], [4, 4, 4, 8]),
            ([1, 1, 2, 2], [4, 4, 8, 8]),
            ([2, 1, 2, 2], [8, 4, 8, 8]),
            ([2, 2, 2, 2], [4, 4, 4, 4]),
        ];
        for (dims, global) in grids {
            for csw in [Some(1.3), None] {
                let p = WilsonProblem { global: Dims(global), csw, ..WilsonProblem::small() };
                let grid = ProcessGrid::new(Dims(dims), p.global).unwrap();
                // Two data messages per partitioned dimension.
                let messages = 2 * grid.shape.0.iter().filter(|&&n| n > 1).count() as u64;
                run_on_grid(grid.clone(), |comm| {
                    let mut c = Counted { inner: comm, messages: 0 };
                    let local = p.build_operator(&mut c, &grid).unwrap();
                    assert_eq!(c.messages, messages, "{dims:?}: messages of a build");
                    let mut c = Counted { inner: c.inner, messages: 0 };
                    let want = global_build_operator(&p, &mut c, &grid).unwrap();
                    assert_eq!(c.messages, messages, "{dims:?}: messages of the global build");
                    assert!(same(&local.clover, &want.clover), "{dims:?} {csw:?}: clover");
                    assert!(same(&local.t_inv, &want.t_inv), "{dims:?} {csw:?}: T⁻¹");
                    for mu in 0..4 {
                        for q in 0..2 {
                            let (a, b) = (&local.gauge.links[mu][q], &want.gauge.links[mu][q]);
                            assert!(a.body() == b.body(), "{dims:?}: gauge links µ={mu}");
                            if grid.is_partitioned(mu) {
                                for fwd in [false, true] {
                                    assert_eq!(
                                        a.ghost_zone(mu, fwd),
                                        b.ghost_zone(mu, fwd),
                                        "{dims:?}: gauge ghosts µ={mu}"
                                    );
                                }
                            }
                        }
                    }
                });
            }
        }
    }
}
