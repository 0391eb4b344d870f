//! The lattice field container.

use crate::layout::FieldLayout;
use crate::site::SiteObject;
use lqcd_lattice::{FaceGeometry, Parity, SubLattice, NDIM};
use lqcd_util::{Error, Real, Result};
use std::marker::PhantomData;
use std::sync::Arc;

/// One parity of a lattice field in a single contiguous allocation
/// (body + pad + ghost zones; see [`FieldLayout`]).
///
/// `R` is the storage precision and `S` the typed per-site object
/// (spinor / color vector / link matrix / clover term).
#[derive(Clone, Debug)]
pub struct LatticeField<R: Real, S: SiteObject<R>> {
    data: Vec<R>,
    layout: Arc<FieldLayout>,
    sub: Arc<SubLattice>,
    parity: Parity,
    _site: PhantomData<S>,
}

impl<R: Real, S: SiteObject<R>> LatticeField<R, S> {
    /// Allocate a zero field for one parity of `sub`.
    pub fn zeros(sub: Arc<SubLattice>, faces: &FaceGeometry, parity: Parity, pad: usize) -> Self {
        let layout = Arc::new(FieldLayout::new(&sub, faces, pad));
        let data = vec![R::ZERO; layout.total_sites * S::REALS];
        Self { data, layout, sub, parity, _site: PhantomData }
    }

    /// Allocate with a shared, precomputed layout (cheap for Krylov spaces).
    pub fn zeros_like(other: &Self) -> Self {
        Self {
            data: vec![R::ZERO; other.data.len()],
            layout: other.layout.clone(),
            sub: other.sub.clone(),
            parity: other.parity,
            _site: PhantomData,
        }
    }

    /// Fill the body from a closure over the checkerboard index.
    pub fn fill(&mut self, mut f: impl FnMut(usize) -> S) {
        for idx in 0..self.layout.body_sites {
            let s = f(idx);
            s.write(&mut self.data[idx * S::REALS..(idx + 1) * S::REALS]);
        }
    }

    /// The subvolume this field lives on.
    pub fn sublattice(&self) -> &Arc<SubLattice> {
        &self.sub
    }

    /// The field's parity.
    pub fn parity(&self) -> Parity {
        self.parity
    }

    /// The memory layout.
    pub fn layout(&self) -> &FieldLayout {
        &self.layout
    }

    /// Number of body sites (`Vh`).
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.layout.body_sites
    }

    /// Read a body site.
    #[inline(always)]
    pub fn site(&self, idx: usize) -> S {
        debug_assert!(idx < self.layout.body_sites);
        S::read(&self.data[idx * S::REALS..(idx + 1) * S::REALS])
    }

    /// Write a body site.
    #[inline(always)]
    pub fn set_site(&mut self, idx: usize, s: S) {
        debug_assert!(idx < self.layout.body_sites);
        s.write(&mut self.data[idx * S::REALS..(idx + 1) * S::REALS]);
    }

    /// Read a ghost site by the `offset` produced by
    /// [`SubLattice::neighbor`](lqcd_lattice::SubLattice::neighbor).
    #[inline(always)]
    pub fn ghost(&self, mu: usize, forward: bool, offset: usize) -> S {
        let base = self.layout.ghost_base(mu, forward) + offset;
        S::read(&self.data[base * S::REALS..(base + 1) * S::REALS])
    }

    /// The flat body slice (BLAS kernels operate on this).
    #[inline]
    pub fn body(&self) -> &[R] {
        &self.data[..self.layout.body_sites * S::REALS]
    }

    /// Mutable flat body slice.
    #[inline]
    pub fn body_mut(&mut self) -> &mut [R] {
        &mut self.data[..self.layout.body_sites * S::REALS]
    }

    /// Mutable view of one ghost zone as flat reals (receive target).
    pub fn ghost_zone_mut(&mut self, mu: usize, forward: bool) -> &mut [R] {
        let base = self.layout.ghost_base(mu, forward) * S::REALS;
        let len = self.layout.ghost_sites[mu] * S::REALS;
        &mut self.data[base..base + len]
    }

    /// Read-only view of one ghost zone.
    pub fn ghost_zone(&self, mu: usize, forward: bool) -> &[R] {
        let base = self.layout.ghost_base(mu, forward) * S::REALS;
        let len = self.layout.ghost_sites[mu] * S::REALS;
        &self.data[base..base + len]
    }

    /// Split the allocation into a shared body view and exclusive ghost
    /// zones. This is the borrow shape of the overlapped dslash: the
    /// interior kernel reads the body (from any number of worker
    /// threads) while completed receives land in the ghost zones.
    pub fn body_and_ghosts_mut(&mut self) -> (BodyView<'_, R, S>, GhostZonesMut<'_, R>) {
        let body_len = self.layout.body_sites * S::REALS;
        let pad_len = self.layout.pad_sites * S::REALS;
        let (body, rest) = self.data.split_at_mut(body_len);
        let mut rest = &mut rest[pad_len..];
        let mut zones: [[Option<&mut [R]>; 2]; NDIM] = Default::default();
        // Zones follow body+pad in layout order: ascending mu, backward
        // then forward (see `FieldLayout::new`).
        for (mu, zone) in zones.iter_mut().enumerate() {
            let n = self.layout.ghost_sites[mu] * S::REALS;
            if n == 0 {
                continue;
            }
            let (bwd, r) = rest.split_at_mut(n);
            let (fwd, r) = r.split_at_mut(n);
            zone[0] = Some(bwd);
            zone[1] = Some(fwd);
            rest = r;
        }
        (BodyView { body, _site: PhantomData }, GhostZonesMut { zones })
    }

    /// Read-only body view (same site accessors as the split view).
    pub fn body_view(&self) -> BodyView<'_, R, S> {
        BodyView { body: self.body(), _site: PhantomData }
    }

    /// Gather body sites listed in `table` into a contiguous send buffer
    /// (the "gather kernel" of §6.1). `out` must hold
    /// `table.len() * S::REALS` reals.
    pub fn gather(&self, table: &[u32], out: &mut [R]) {
        assert_eq!(out.len(), table.len() * S::REALS, "gather buffer size");
        for (k, &idx) in table.iter().enumerate() {
            let src = &self.data[idx as usize * S::REALS..(idx as usize + 1) * S::REALS];
            out[k * S::REALS..(k + 1) * S::REALS].copy_from_slice(src);
        }
    }

    /// Check two fields are compatible for BLAS (same layout & parity).
    pub fn check_compatible(&self, other: &Self) -> Result<()> {
        if self.layout != other.layout || self.parity != other.parity {
            return Err(Error::Shape(format!(
                "incompatible fields: {} vs {} body sites / parity {:?} vs {:?}",
                self.layout.body_sites, other.layout.body_sites, self.parity, other.parity
            )));
        }
        Ok(())
    }

    /// Restrict a *global* (single-rank, site-local) field to one rank's
    /// subvolume: body sites are copied by global coordinate; ghosts are
    /// left zero (appropriate for site-diagonal data like clover terms, or
    /// for fields whose ghosts are exchanged afterwards).
    pub fn restrict_from_global(
        global_field: &LatticeField<R, S>,
        sub: Arc<SubLattice>,
        faces: &FaceGeometry,
        parity: Parity,
        pad: usize,
    ) -> Self {
        let gsub = global_field.sublattice();
        assert!(
            gsub.partitioned.iter().all(|&x| !x),
            "restriction source must be a single-rank field"
        );
        let mut out = Self::zeros(sub.clone(), faces, parity, pad);
        for (idx, c) in sub.sites(parity) {
            let mut gc = c;
            for (d, o) in sub.origin.iter().enumerate() {
                gc[d] = c[d] + o;
            }
            debug_assert_eq!(gsub.parity(gc), parity);
            out.set_site(idx, global_field.site(gsub.cb_index(gc)));
        }
        out
    }

    /// Convert the *entire allocation* (body, pad, ghosts) elementwise to
    /// another precision. Used to clone operators (gauge/clover fields)
    /// across precisions with their ghost zones intact.
    pub fn cast_all<R2: Real>(&self) -> LatticeField<R2, S2Of<R2, S>>
    where
        S: CastSite<R, R2>,
    {
        LatticeField::<R2, S::Target> {
            data: self.data.iter().map(|x| R2::from_f64(x.to_f64())).collect(),
            layout: self.layout.clone(),
            sub: self.sub.clone(),
            parity: self.parity,
            _site: PhantomData,
        }
    }

    /// Convert this field's body into an existing field of another
    /// precision (shapes must match; ghosts of `dst` untouched).
    pub fn convert_body_into<R2: Real>(&self, dst: &mut LatticeField<R2, S2Of<R2, S>>)
    where
        S: CastSite<R, R2>,
    {
        assert_eq!(self.layout.body_sites, dst.layout.body_sites, "site count mismatch");
        let n = self.layout.body_sites * S::REALS;
        for (d, s) in dst.data[..n].iter_mut().zip(&self.data[..n]) {
            *d = R2::from_f64(s.to_f64());
        }
    }

    /// Convert the body to another precision (ghosts are zeroed; they are
    /// refreshed by the next exchange).
    pub fn cast_body<R2: Real>(&self) -> LatticeField<R2, S2Of<R2, S>>
    where
        S: CastSite<R, R2>,
    {
        let mut out = LatticeField::<R2, S::Target> {
            data: vec![R2::ZERO; self.data.len()],
            layout: self.layout.clone(),
            sub: self.sub.clone(),
            parity: self.parity,
            _site: PhantomData,
        };
        for idx in 0..self.layout.body_sites {
            let s = self.site(idx);
            out.set_site(idx, s.cast_site());
        }
        out
    }
}

/// Shared view of a field's body sites, cheap to copy into worker
/// threads (`&[R]` is `Sync`). Produced by
/// [`LatticeField::body_and_ghosts_mut`] / [`LatticeField::body_view`].
#[derive(Clone, Copy)]
pub struct BodyView<'a, R: Real, S: SiteObject<R>> {
    body: &'a [R],
    _site: PhantomData<S>,
}

impl<'a, R: Real, S: SiteObject<R>> BodyView<'a, R, S> {
    /// Read a body site (same indexing as [`LatticeField::site`]).
    #[inline(always)]
    pub fn site(&self, idx: usize) -> S {
        S::read(&self.body[idx * S::REALS..(idx + 1) * S::REALS])
    }

    /// Number of body sites in the view.
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.body.len() / S::REALS
    }

    /// The body as flat reals (`S::REALS` per site).
    #[inline]
    pub fn reals(&self) -> &'a [R] {
        self.body
    }
}

/// Exclusive access to every ghost zone of a field, independent of the
/// body. Receive targets for the completion half of a split exchange.
pub struct GhostZonesMut<'a, R: Real> {
    zones: [[Option<&'a mut [R]>; 2]; NDIM],
}

impl<R: Real> GhostZonesMut<'_, R> {
    /// Mutable flat view of one ghost zone.
    ///
    /// # Panics
    /// Panics if the dimension has no ghost zone, mirroring
    /// [`FieldLayout::ghost_base`].
    pub fn zone_mut(&mut self, mu: usize, forward: bool) -> &mut [R] {
        self.zones[mu][forward as usize]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("no ghost zone for dimension {mu}"))
    }
}

/// Helper alias for the target site type of a precision cast.
pub type S2Of<R2, S> = <S as CastSiteAny<R2>>::Target;

/// Site-level precision conversion (implementation detail of
/// [`LatticeField::cast_body`]).
pub trait CastSiteAny<R2: Real> {
    /// The same site shape at the new precision.
    type Target: SiteObject<R2>;
}

/// Site-level precision conversion.
pub trait CastSite<R: Real, R2: Real>: SiteObject<R> + CastSiteAny<R2> {
    /// Convert through `f64`.
    fn cast_site(&self) -> Self::Target;
}

macro_rules! impl_cast_site {
    ($ty:ident) => {
        impl<R2: Real> CastSiteAny<R2> for lqcd_su3::$ty<f64> {
            type Target = lqcd_su3::$ty<R2>;
        }
        impl<R2: Real> CastSiteAny<R2> for lqcd_su3::$ty<f32> {
            type Target = lqcd_su3::$ty<R2>;
        }
        impl<R2: Real> CastSite<f64, R2> for lqcd_su3::$ty<f64> {
            fn cast_site(&self) -> lqcd_su3::$ty<R2> {
                self.cast()
            }
        }
        impl<R2: Real> CastSite<f32, R2> for lqcd_su3::$ty<f32> {
            fn cast_site(&self) -> lqcd_su3::$ty<R2> {
                self.cast()
            }
        }
    };
}

impl_cast_site!(ColorVector);
impl_cast_site!(WilsonSpinor);
impl_cast_site!(Su3);
impl_cast_site!(CloverSite);

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_lattice::{Dims, ProcessGrid};
    use lqcd_su3::WilsonSpinor;
    use lqcd_util::rng::SeedTree;

    fn make_field() -> LatticeField<f64, WilsonSpinor<f64>> {
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8])).unwrap();
        let sub = Arc::new(SubLattice::for_rank(&grid, 0));
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        LatticeField::zeros(sub, &faces, Parity::Even, 4)
    }

    #[test]
    fn site_roundtrip() {
        let mut f = make_field();
        let t = SeedTree::new(1);
        let mut rng = t.rng();
        let a = WilsonSpinor::random(&mut rng);
        let b = WilsonSpinor::random(&mut rng);
        f.set_site(0, a);
        f.set_site(f.num_sites() - 1, b);
        assert_eq!(f.site(0), a);
        assert_eq!(f.site(f.num_sites() - 1), b);
    }

    #[test]
    fn gather_reads_table_order() {
        let mut f = make_field();
        f.fill(|idx| {
            let mut s = WilsonSpinor::zero();
            s.s[0].c[0] = lqcd_util::Complex::from_re(idx as f64);
            s
        });
        let table = [5u32, 0, 9];
        let mut buf = vec![0.0f64; 3 * 24];
        f.gather(&table, &mut buf);
        assert_eq!(buf[0], 5.0);
        assert_eq!(buf[24], 0.0);
        assert_eq!(buf[48], 9.0);
    }

    #[test]
    fn ghost_zone_write_then_typed_read() {
        let mut f = make_field();
        let t = SeedTree::new(2);
        let s = WilsonSpinor::random(&mut t.rng());
        {
            let zone = f.ghost_zone_mut(3, true);
            s.write(&mut zone[..24]);
        }
        assert_eq!(f.ghost(3, true, 0), s);
    }

    #[test]
    fn body_excludes_pad_and_ghosts() {
        let f = make_field();
        assert_eq!(f.body().len(), f.num_sites() * 24);
        assert!(f.body().len() < f.data.len());
    }

    #[test]
    fn cast_body_roundtrip() {
        let mut f = make_field();
        let t = SeedTree::new(3);
        let mut rng = t.rng();
        f.fill(|_| WilsonSpinor::random(&mut rng));
        let f32_field: LatticeField<f32, WilsonSpinor<f32>> = f.cast_body();
        let back: LatticeField<f64, WilsonSpinor<f64>> = f32_field.cast_body();
        for idx in (0..f.num_sites()).step_by(7) {
            assert!(f.site(idx).sub(&back.site(idx)).norm_sqr() < 1e-10);
        }
    }

    #[test]
    fn split_borrow_matches_whole_field_accessors() {
        let mut f = make_field();
        f.fill(|idx| {
            let mut s = WilsonSpinor::zero();
            s.s[0].c[0] = lqcd_util::Complex::from_re(idx as f64);
            s
        });
        let t = SeedTree::new(4);
        let (g2, g3) = (WilsonSpinor::random(&mut t.rng()), WilsonSpinor::random(&mut t.rng()));
        let n = f.num_sites();
        {
            let (body, mut zones) = f.body_and_ghosts_mut();
            // The body is readable (e.g. from interior workers) while
            // ghost zones are written.
            assert_eq!(body.num_sites(), n);
            g2.write(&mut zones.zone_mut(2, false)[..24]);
            g3.write(&mut zones.zone_mut(3, true)[..24]);
            assert_eq!(body.site(5).s[0].c[0].re, 5.0);
        }
        assert_eq!(f.ghost(2, false, 0), g2);
        assert_eq!(f.ghost(3, true, 0), g3);
        assert_eq!(f.site(5).s[0].c[0].re, 5.0, "body untouched by zone writes");
    }

    #[test]
    #[should_panic(expected = "no ghost zone")]
    fn split_borrow_panics_for_unpartitioned_dim() {
        let mut f = make_field();
        let (_, mut zones) = f.body_and_ghosts_mut();
        let _ = zones.zone_mut(0, true);
    }

    #[test]
    fn incompatible_fields_detected() {
        let f = make_field();
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8])).unwrap();
        let sub = Arc::new(SubLattice::for_rank(&grid, 0));
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let odd: LatticeField<f64, WilsonSpinor<f64>> =
            LatticeField::zeros(sub, &faces, Parity::Odd, 4);
        assert!(f.check_compatible(&odd).is_err());
        let other = LatticeField::zeros_like(&f);
        assert!(f.check_compatible(&other).is_ok());
    }
}
