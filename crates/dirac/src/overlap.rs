//! The dslash pipeline: its stages, per-operator exchange buffers,
//! interior worker count, and per-apply timing counters.
//!
//! Both operators run their stencil through the same two drivers,
//! `dslash` (the overlapped pipeline of the paper's Fig. 4) and
//! `dslash_sequential` (its blocking baseline); an operator supplies
//! only its site kernels, as a `Stencil`. The pipeline has one
//! schedule: gather and post, stage the source in the form the interior
//! reads (asqtad only), run the interior while the exchanges are in
//! flight, complete the partitioned dimensions in ascending µ, then run
//! the exteriors in the same order. The interior worker count is
//! its only knob. What persists between applies lives behind one
//! `Mutex` per operator so `dslash` can stay `&self` (operators are
//! shared across solver layers) while buffers and counters mutate.

use crate::exchange::{
    complete_ghost_dim, exchange_ghosts_with, post_ghost_sends, ExchangeBuffers,
};
use crate::BoundaryMode;
use lqcd_comms::Communicator;
use lqcd_field::{BodyView, LatticeField, SiteObject};
use lqcd_lattice::{FaceGeometry, Parity, SubLattice, NDIM};
use lqcd_util::{trace, Error, Real, Result};
use std::sync::Mutex;
use std::time::Instant;

/// Cumulative timing of dslash applies, nanosecond resolution.
///
/// `exposed_comm_ns` is the time communication completion kept the
/// calling thread waiting *beyond* the interior kernel — the quantity
/// the paper's pipeline drives toward zero. `overlap_efficiency` is
/// `1 − exposed/total`: 1.0 means communication fully hidden.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DslashCounters {
    /// Number of dslash applications.
    pub applies: u64,
    /// Wall time of the applies, end to end.
    pub total_ns: u64,
    /// Face gather + nonblocking posts.
    pub gather_ns: u64,
    /// Interior kernel (max over workers when parallel).
    pub interior_ns: u64,
    /// Exterior (boundary) kernels.
    pub exterior_ns: u64,
    /// Communication time not hidden behind the interior kernel.
    pub exposed_comm_ns: u64,
}

impl DslashCounters {
    /// Fraction of wall time *not* lost to exposed communication, or
    /// `None` before any apply. Clamped to `[0, 1]`, so a record a caller
    /// assembles from several snapshots can never report a negative
    /// efficiency or one above 1.
    pub fn overlap_efficiency(&self) -> Option<f64> {
        (self.applies > 0 && self.total_ns > 0)
            .then(|| (1.0 - self.exposed_comm_ns as f64 / self.total_ns as f64).clamp(0.0, 1.0))
    }
}

/// Mutable per-operator overlap state (exchange buffers, staged source,
/// counters, interior worker count), kept behind a `Mutex` on the
/// operator.
pub struct OverlapPipeline<R: Real> {
    /// Persistent exchange staging buffers.
    pub bufs: ExchangeBuffers<R>,
    /// The source body in the form the interior reads, when a stencil
    /// stages it (sized on first use, then reused).
    pub staged: Vec<R>,
    /// Cumulative apply timings.
    pub counters: DslashCounters,
    /// Interior kernel workers (min 1); 1 = run on the calling thread
    /// (still overlapped: completion happens after the interior). Every
    /// count produces bit-identical results.
    pub threads: usize,
}

impl<R: Real> OverlapPipeline<R> {
    /// Fresh state with `threads` interior workers (min 1).
    pub fn with_threads(threads: usize) -> Self {
        OverlapPipeline {
            bufs: ExchangeBuffers::default(),
            staged: Vec::new(),
            counters: DslashCounters::default(),
            threads: threads.max(1),
        }
    }
}

impl<R: Real> Default for OverlapPipeline<R> {
    fn default() -> Self {
        Self::with_threads(1)
    }
}

/// Shared accessors for operators that own an [`OverlapPipeline`]
/// behind a `Mutex` — the thread/counter plumbing that used to be
/// duplicated verbatim between the Wilson-clover and staggered
/// operators. Implementors provide the one state accessor; everything
/// else is derived.
pub trait OverlapHost<R: Real> {
    /// The operator's overlap pipeline state.
    fn overlap_state(&self) -> &Mutex<OverlapPipeline<R>>;

    /// Set the number of interior-kernel worker threads (min 1).
    /// Results are bit-identical for every count; this only changes
    /// scheduling.
    fn set_interior_threads(&self, n: usize) {
        self.overlap_state().lock().unwrap().threads = n.max(1);
    }

    /// Current interior-kernel worker count.
    fn interior_threads(&self) -> usize {
        self.overlap_state().lock().unwrap().threads
    }

    /// Snapshot of the cumulative per-apply timing counters.
    fn dslash_counters(&self) -> DslashCounters {
        self.overlap_state().lock().unwrap().counters
    }

    /// Zero the cumulative timing counters.
    fn reset_dslash_counters(&self) {
        self.overlap_state().lock().unwrap().counters = DslashCounters::default();
    }
}

/// Run `kernel` over disjoint site-range chunks of `body`, each starting
/// on a multiple of `group` sites, while `complete` (the
/// communication-completion stage) runs on the calling thread. Returns
/// `(interior_ns, wall_ns)` where `interior_ns` is the kernel time (max
/// over workers) and `wall_ns` covers the whole stage — their difference
/// is the *exposed* communication time.
///
/// With `threads == 1` the kernel runs inline and `complete` after it:
/// no spawn overhead, and communication posted before this call still
/// overlaps the kernel. Chunking never changes results — each site's
/// value is computed independently by the same code path, so output is
/// bit-identical for every thread count.
pub fn run_overlapped<R, K, F>(
    threads: usize,
    body: &mut [R],
    reals_per_site: usize,
    group: usize,
    kernel: &K,
    complete: F,
) -> Result<(u64, u64)>
where
    R: Real,
    K: Fn(&mut [R], usize) + Sync,
    F: FnOnce() -> Result<()>,
{
    let wall = Instant::now();
    if threads <= 1 || body.is_empty() {
        let t = Instant::now();
        kernel(body, 0);
        let interior_ns = t.elapsed().as_nanos() as u64;
        complete()?;
        return Ok((interior_ns, wall.elapsed().as_nanos() as u64));
    }
    let n_sites = body.len() / reals_per_site;
    let chunk_sites = n_sites.div_ceil(threads).next_multiple_of(group).max(group);
    let interior_ns = std::thread::scope(|s| -> Result<u64> {
        let workers: Vec<_> = body
            .chunks_mut(chunk_sites * reals_per_site)
            .enumerate()
            .map(|(k, chunk)| {
                s.spawn(move || {
                    let t = Instant::now();
                    kernel(chunk, k * chunk_sites);
                    t.elapsed().as_nanos() as u64
                })
            })
            .collect();
        complete()?;
        let mut max_ns = 0u64;
        for w in workers {
            max_ns = max_ns.max(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        Ok(max_ns)
    })?;
    Ok((interior_ns, wall.elapsed().as_nanos() as u64))
}

/// Geometry validation for a dslash apply, shared by every stencil
/// operator: parity pairing plus allocation shape of both fields
/// against the operator's subvolume and face geometry (structured
/// [`Error::Shape`], never a panic).
pub fn check_dslash_pair<R: Real, S: SiteObject<R>>(
    out: &LatticeField<R, S>,
    src: &LatticeField<R, S>,
    sub: &SubLattice,
    faces: &FaceGeometry,
) -> Result<()> {
    if out.parity() != src.parity().other() {
        return Err(Error::Shape("dslash: out must have opposite parity to src".into()));
    }
    check_field_geometry("out", out, sub, faces)?;
    check_field_geometry("src", src, sub, faces)
}

/// Validate that `field` was allocated against the operator's subvolume
/// and face geometry, so a depth/pad mismatch surfaces as a structured
/// [`Error::Shape`] instead of an index panic deep inside a gather.
pub fn check_field_geometry<R: Real, S: SiteObject<R>>(
    name: &str,
    field: &LatticeField<R, S>,
    sub: &SubLattice,
    faces: &FaceGeometry,
) -> Result<()> {
    if field.sublattice().dims != sub.dims {
        return Err(Error::Shape(format!(
            "dslash {name}: field subvolume {:?} does not match the operator's {:?}",
            field.sublattice().dims,
            sub.dims
        )));
    }
    let layout = field.layout();
    if layout.body_sites != sub.volume_cb() {
        return Err(Error::Shape(format!(
            "dslash {name}: field has {} body sites, operator subvolume has {}",
            layout.body_sites,
            sub.volume_cb()
        )));
    }
    for mu in 0..NDIM {
        let want = if sub.partitioned[mu] { faces.ghost_sites(mu) } else { 0 };
        if layout.ghost_sites[mu] != want {
            return Err(Error::Shape(format!(
                "dslash {name}: ghost zone of dimension {mu} holds {} sites, the \
                 operator's face geometry needs {want} (stencil depth mismatch?)",
                layout.ghost_sites[mu]
            )));
        }
    }
    Ok(())
}

/// An operator bound to its site kernels: everything the shared dslash
/// drivers need from it.
pub(crate) trait Stencil<R: Real>: Sync {
    /// The per-site object of the fields the stencil acts on.
    type Site: SiteObject<R>;

    /// Sites the interior takes together: worker chunks start on
    /// multiples of it.
    const GROUP: usize = 1;

    /// The operator's subvolume.
    fn sub(&self) -> &SubLattice;

    /// The operator's face geometry.
    fn faces(&self) -> &FaceGeometry;

    /// The operator's pipeline state.
    fn state(&self) -> &Mutex<OverlapPipeline<R>>;

    /// Copy the source body into `staged`, in the form the interior
    /// reads, before the interior runs (nothing by default).
    fn stage(&self, _src: BodyView<'_, R, Self::Site>, _staged: &mut Vec<R>) {}

    /// Interior hops of sites `lo_site ..` written to `out_chunk`, from
    /// the source body `src` and what [`Stencil::stage`] left in
    /// `staged`; each site is computed independently, so chunking never
    /// changes bits.
    fn interior(
        &self,
        out_chunk: &mut [R],
        lo_site: usize,
        src: BodyView<'_, R, Self::Site>,
        staged: &[R],
        out_parity: Parity,
        src_parity: Parity,
    );

    /// Ghost hops across dimension `mu`, added to the face sites of `out`.
    fn exterior(
        &self,
        out: &mut LatticeField<R, Self::Site>,
        src: &LatticeField<R, Self::Site>,
        mu: usize,
    );
}

/// The stencil `out = D src`, pipelined as in the paper's Fig. 4: face
/// gathers are packed and posted as nonblocking exchanges, the interior
/// kernel runs while they are in flight (optionally on worker threads —
/// see [`OverlapHost::set_interior_threads`]), the partitioned
/// dimensions' ghosts are completed in ascending µ, and the exterior
/// kernels run last. Output is bit-identical to [`dslash_sequential`]
/// for every thread count.
///
/// When tracing, the apply records an `interior` span, an
/// `exchange_inflight` span (`Full` mode) and one `exterior` span per
/// partitioned dimension.
pub(crate) fn dslash<R: Real, St: Stencil<R>, C: Communicator>(
    st: &St,
    out: &mut LatticeField<R, St::Site>,
    src: &mut LatticeField<R, St::Site>,
    comm: &mut C,
    mode: BoundaryMode,
) -> Result<()> {
    let (sub, faces) = (st.sub(), st.faces());
    check_dslash_pair(out, src, sub, faces)?;
    let traced = trace::is_enabled();
    let apply_t = Instant::now();
    let mut guard = st.state().lock().unwrap();
    let OverlapPipeline { bufs, staged, counters, threads } = &mut *guard;
    let threads = *threads;
    let exchange = mode == BoundaryMode::Full;

    // Stage 1: gather faces, pack to wire precision, post sends.
    let gather_t = Instant::now();
    let mut pending =
        if exchange { post_ghost_sends(src, faces, comm, bufs)? } else { Default::default() };
    let gather_ns = gather_t.elapsed().as_nanos() as u64;

    // Stage 2: interior kernel concurrent with ghost completion. The
    // block scopes the split borrow of `src` (body view + ghost zones)
    // so the exterior kernels can reborrow it whole below.
    let out_parity = out.parity();
    let src_parity = src.parity();
    let post_end_ns = if traced { trace::now_ns() } else { 0 };
    let mut comm_done_ns = post_end_ns;
    // The interior's time includes staging its source, which runs while
    // the exchanges are in flight.
    let (interior_ns, wall_ns) = {
        let (src_view, mut zones) = src.body_and_ghosts_mut();
        let stage_t = Instant::now();
        st.stage(src_view, staged);
        let stage_ns = stage_t.elapsed().as_nanos() as u64;
        let staged = &staged[..];
        let kernel = |chunk: &mut [R], lo_site: usize| {
            st.interior(chunk, lo_site, src_view, staged, out_parity, src_parity);
        };
        let body = out.body_mut();
        let (interior_ns, wall_ns) =
            run_overlapped(threads, body, St::Site::REALS, St::GROUP, &kernel, || {
                if exchange {
                    // Every partitioned dimension completes before the first
                    // exterior runs, so the completion order cannot move the
                    // critical path; ascending µ, like the exteriors.
                    for mu in 0..NDIM {
                        if sub.partitioned[mu] {
                            complete_ghost_dim(&mut pending, mu, &mut zones, comm, bufs)?;
                        }
                    }
                    if traced {
                        comm_done_ns = trace::now_ns();
                    }
                }
                Ok(())
            })?;
        (stage_ns + interior_ns, stage_ns + wall_ns)
    };
    if traced {
        // The interior kernel ran on worker threads between the post and
        // now; reconstruct its span retroactively so the trace shows it
        // overlapping the in-flight exchange.
        trace::span_at(
            trace::Track::Interior,
            "interior",
            post_end_ns,
            post_end_ns + interior_ns,
            threads as i64,
        );
        if exchange {
            trace::span_at(trace::Track::Comm, "exchange_inflight", post_end_ns, comm_done_ns, 0);
        }
    }

    // Stage 3: exterior kernels, fixed ascending-µ order (corner sites
    // accumulate across dimensions — §6.2).
    let ext_t = Instant::now();
    if exchange {
        for mu in 0..NDIM {
            if sub.partitioned[mu] {
                let _sp = trace::span_arg(trace::Track::Exterior, "exterior", mu as i64);
                st.exterior(out, src, mu);
            }
        }
    }
    counters.applies += 1;
    counters.gather_ns += gather_ns;
    counters.interior_ns += interior_ns;
    counters.exterior_ns += ext_t.elapsed().as_nanos() as u64;
    counters.exposed_comm_ns += wall_ns.saturating_sub(interior_ns);
    counters.total_ns += apply_t.elapsed().as_nanos() as u64;
    Ok(())
}

/// The same stencil with blocking communication: exchange every ghost
/// zone up front, then the interior (boundary sites are *partially*
/// updated, with all their interior hops, as §6.2 describes), then the
/// exteriors. The baseline [`dslash`] is measured and bit-compared
/// against.
pub(crate) fn dslash_sequential<R: Real, St: Stencil<R>, C: Communicator>(
    st: &St,
    out: &mut LatticeField<R, St::Site>,
    src: &mut LatticeField<R, St::Site>,
    comm: &mut C,
    mode: BoundaryMode,
) -> Result<()> {
    let (sub, faces) = (st.sub(), st.faces());
    check_dslash_pair(out, src, sub, faces)?;
    let mut guard = st.state().lock().unwrap();
    let OverlapPipeline { bufs, staged, .. } = &mut *guard;
    if mode == BoundaryMode::Full {
        exchange_ghosts_with(src, faces, comm, bufs)?;
    }
    let (out_parity, src_parity) = (out.parity(), src.parity());
    st.stage(src.body_view(), staged);
    st.interior(out.body_mut(), 0, src.body_view(), staged, out_parity, src_parity);
    if mode == BoundaryMode::Full {
        for mu in 0..NDIM {
            if sub.partitioned[mu] {
                st.exterior(out, src, mu);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_efficiency_is_clamped_and_gated_on_applies() {
        // No applies → no meaningful efficiency, even with stray
        // nanoseconds on the record.
        let none = DslashCounters { total_ns: 500, ..Default::default() };
        assert_eq!(DslashCounters::default().overlap_efficiency(), None);
        assert_eq!(none.overlap_efficiency(), None, "zero applies must yield None");
        let eff = |applies, exposed_comm_ns| {
            DslashCounters { applies, total_ns: 1_000, exposed_comm_ns, ..Default::default() }
                .overlap_efficiency()
        };
        // More exposed time than wall time clamps to 0, never negative.
        assert_eq!(eff(4, 3_000), Some(0.0));
        // Fully hidden comm stays exactly 1.
        assert_eq!(eff(2, 0), Some(1.0));
        // A partial overlap is reported untouched.
        assert_eq!(eff(1, 250), Some(0.75));
    }
}
