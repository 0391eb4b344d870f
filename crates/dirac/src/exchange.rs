//! Ghost-zone exchange for spinor fields.
//!
//! The exchange is split into the stages of the paper's Fig. 4 pipeline:
//!
//! * [`post_ghost_sends`] gathers the boundary faces of a source field
//!   into persistent buffers (the "gather kernels" of §6.1), packs them
//!   at the field's storage precision, and *posts* both faces of every
//!   partitioned dimension with nonblocking
//!   [`Communicator::start_send_recv`]s;
//! * [`complete_ghost_dim`] finishes one dimension's pair of exchanges,
//!   unpacking received wire data straight into the field's ghost zones
//!   — callable while the interior kernel still runs, since the ghost
//!   zones are borrowed independently of the body
//!   ([`lqcd_field::LatticeField::body_and_ghosts_mut`]);
//! * [`exchange_ghosts`] is the blocking composition of the two (post
//!   everything, complete every dimension in order).
//!
//! Face data travels at the field's true storage width: `f32` fields
//! bit-pack two values per `f64` wire word ([`Real::pack_wire`]), so the
//! byte volume matches what the perf model's message pricing assumes.
//!
//! Direction convention (one collective `send_recv` pair per dimension,
//! deadlock-free by construction):
//!
//! * low face → sent to the −µ neighbour → lands in *its* forward ghost;
//! * high face → sent to the +µ neighbour → lands in *its* backward ghost.

use lqcd_comms::{Communicator, ExchangeHandle};
use lqcd_field::{GhostZonesMut, LatticeField, SiteObject};
use lqcd_lattice::{FaceGeometry, NDIM};
use lqcd_util::{trace, Error, Real, Result};

/// Persistent staging buffers for one operator's ghost exchanges,
/// indexed `[mu][dir]` with `dir = 0` for the low-face (backward) send
/// and `1` for the high-face (forward) send. Sized on first use and
/// reused for the lifetime of the operator, so solver hot loops stop
/// churning the allocator.
#[derive(Default)]
pub struct ExchangeBuffers<R: Real> {
    /// Typed gather targets (one face of sites each).
    send: [[Vec<R>; 2]; NDIM],
    /// Packed outgoing wire words.
    wire_send: [[Vec<f64>; 2]; NDIM],
    /// Incoming wire words, unpacked into ghost zones at completion.
    wire_recv: [[Vec<f64>; 2]; NDIM],
}

/// Handles of the in-flight exchanges started by [`post_ghost_sends`],
/// indexed like [`ExchangeBuffers`].
#[derive(Default)]
pub struct PendingGhosts {
    handles: [[Option<ExchangeHandle>; 2]; NDIM],
}

/// Gather and post both faces of every partitioned dimension of `field`.
/// Returns the in-flight handles; each dimension must be finished with
/// [`complete_ghost_dim`] before its ghost zones are read.
pub fn post_ghost_sends<R: Real, S: SiteObject<R>, C: Communicator>(
    field: &LatticeField<R, S>,
    faces: &FaceGeometry,
    comm: &mut C,
    bufs: &mut ExchangeBuffers<R>,
) -> Result<PendingGhosts> {
    let _sp = trace::span(trace::Track::Gather, "post_ghost_sends");
    let sub = field.sublattice();
    let parity = field.parity();
    let mut pending = PendingGhosts::default();
    for mu in 0..NDIM {
        if !sub.partitioned[mu] {
            continue;
        }
        let n = faces.ghost_sites(mu) * S::REALS;
        for (dir, table) in [(0usize, faces.low_face(mu, parity)), (1, faces.high_face(mu, parity))]
        {
            let send = &mut bufs.send[mu][dir];
            send.resize(n, R::ZERO);
            field.gather(table, send);
            let wire = &mut bufs.wire_send[mu][dir];
            wire.resize(R::wire_words(n), 0.0);
            R::pack_wire(send, wire);
            pending.handles[mu][dir] = Some(comm.start_send_recv(mu, dir == 1, wire)?);
        }
    }
    Ok(pending)
}

/// Complete dimension `mu`'s pair of exchanges, depositing received
/// faces into the matching ghost zones: the low-face send (dir 0) pairs
/// with a receive from +µ into the *forward* ghost, the high-face send
/// (dir 1) with a receive from −µ into the *backward* ghost.
pub fn complete_ghost_dim<R: Real, C: Communicator>(
    pending: &mut PendingGhosts,
    mu: usize,
    zones: &mut GhostZonesMut<'_, R>,
    comm: &mut C,
    bufs: &mut ExchangeBuffers<R>,
) -> Result<()> {
    let _sp = trace::span_arg(trace::Track::Comm, "complete_ghost_dim", mu as i64);
    for dir in 0..2 {
        let Some(handle) = pending.handles[mu][dir].take() else {
            return Err(Error::Comms(format!(
                "ghost completion for dimension {mu} has no exchange in flight"
            )));
        };
        let zone = zones.zone_mut(mu, dir == 0);
        let wire = &mut bufs.wire_recv[mu][dir];
        wire.resize(R::wire_words(zone.len()), 0.0);
        comm.complete_send_recv(handle, wire)?;
        R::unpack_wire(wire, zone);
    }
    Ok(())
}

/// Exchange every ghost zone of `field` (all partitioned dimensions, both
/// directions) through persistent buffers. The field's own parity
/// determines which face tables are used — ghost zones always hold sites
/// of the field's parity.
pub fn exchange_ghosts_with<R: Real, S: SiteObject<R>, C: Communicator>(
    field: &mut LatticeField<R, S>,
    faces: &FaceGeometry,
    comm: &mut C,
    bufs: &mut ExchangeBuffers<R>,
) -> Result<()> {
    let partitioned = field.sublattice().partitioned;
    let mut pending = post_ghost_sends(field, faces, comm, bufs)?;
    let (_, mut zones) = field.body_and_ghosts_mut();
    for mu in 0..NDIM {
        if partitioned[mu] {
            complete_ghost_dim(&mut pending, mu, &mut zones, comm, bufs)?;
        }
    }
    Ok(())
}

/// One-shot [`exchange_ghosts_with`] using throwaway buffers. Prefer an
/// operator-owned [`ExchangeBuffers`] in hot loops.
pub fn exchange_ghosts<R: Real, S: SiteObject<R>, C: Communicator>(
    field: &mut LatticeField<R, S>,
    faces: &FaceGeometry,
    comm: &mut C,
) -> Result<()> {
    exchange_ghosts_with(field, faces, comm, &mut ExchangeBuffers::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_comms::run_on_grid;
    use lqcd_lattice::{Dims, Neighbor, Parity, ProcessGrid, SubLattice};
    use lqcd_su3::ColorVector;
    use lqcd_util::Complex;
    use std::sync::Arc;

    /// Fill a field with its global site index encoded in component 0,
    /// exchange ghosts, and verify every ghost hop reads the global index
    /// of the physically-targeted site.
    #[test]
    fn ghosts_carry_the_right_global_sites() {
        let global = Dims([4, 4, 8, 8]);
        for (shape, depth) in
            [(Dims([1, 1, 2, 2]), 1usize), (Dims([1, 1, 1, 2]), 3), (Dims([1, 1, 2, 2]), 3)]
        {
            let grid = ProcessGrid::new(shape, global).unwrap();
            let grid2 = grid.clone();
            let checks = run_on_grid(grid, move |mut comm| {
                let sub = Arc::new(SubLattice::for_rank(&grid2, comm.rank()));
                let faces = FaceGeometry::new(&sub, depth).unwrap();
                let mut checked = 0usize;
                for parity in Parity::BOTH {
                    let mut field: LatticeField<f64, ColorVector<f64>> =
                        LatticeField::zeros(sub.clone(), &faces, parity, 3);
                    let subc = sub.clone();
                    field.fill(|idx| {
                        let c = subc.cb_coords(parity, idx);
                        let mut gc = c;
                        for d in 0..4 {
                            gc[d] = c[d] + subc.origin[d];
                        }
                        let mut v = ColorVector::zero();
                        v.c[0] = Complex::from_re(global.index(gc) as f64);
                        v
                    });
                    exchange_ghosts(&mut field, &faces, &mut comm).unwrap();
                    // Every ghost-resolved hop must read the right site.
                    for (_, c) in sub.sites(parity.other()) {
                        for mu in 0..4 {
                            for step in [-(depth as isize), -1, 1, depth as isize] {
                                if step.unsigned_abs() > depth || step % 2 == 0 {
                                    continue;
                                }
                                let hop = sub.neighbor(c, mu, step, depth);
                                let Neighbor::Ghost { mu: gmu, forward, offset } = hop else {
                                    continue;
                                };
                                let got = field.ghost(gmu, forward, offset).c[0].re;
                                let mut gc = c;
                                for d in 0..4 {
                                    gc[d] = c[d] + sub.origin[d];
                                }
                                let want = global.index(global.displace(gc, mu, step)) as f64;
                                assert_eq!(
                                    got,
                                    want,
                                    "rank {} parity {parity:?} µ={mu} step {step} {c:?}",
                                    comm.rank()
                                );
                                checked += 1;
                            }
                        }
                    }
                }
                checked
            });
            assert!(checks.iter().all(|&n| n > 0), "no ghost hops checked");
        }
    }

    /// Single-rank fields have no partitioned dims; exchange is a no-op.
    #[test]
    fn single_rank_exchange_is_noop() {
        let global = Dims([4, 4, 4, 4]);
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let mut comm = lqcd_comms::SingleComm::new(global).unwrap();
        let mut field: LatticeField<f64, ColorVector<f64>> =
            LatticeField::zeros(sub, &faces, Parity::Even, 0);
        exchange_ghosts(&mut field, &faces, &mut comm).unwrap();
    }

    /// Split stages with reused buffers must equal the one-shot path,
    /// with f32 faces shipping bit-exactly through packed wire words.
    #[test]
    fn split_stages_and_reused_buffers_match_oneshot() {
        let global = Dims([4, 4, 8, 8]);
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), global).unwrap();
        let grid2 = grid.clone();
        let ok = run_on_grid(grid, move |mut comm| {
            let sub = Arc::new(SubLattice::for_rank(&grid2, comm.rank()));
            let faces = FaceGeometry::new(&sub, 1).unwrap();
            let mut bufs = ExchangeBuffers::default();
            for round in 0..3u32 {
                for parity in Parity::BOTH {
                    let mut field: LatticeField<f32, ColorVector<f32>> =
                        LatticeField::zeros(sub.clone(), &faces, parity, 2);
                    let subc = sub.clone();
                    field.fill(|idx| {
                        let c = subc.cb_coords(parity, idx);
                        let mut gc = c;
                        for d in 0..4 {
                            gc[d] = c[d] + subc.origin[d];
                        }
                        let mut v = ColorVector::zero();
                        // 0.1 is inexact in binary: a value that would
                        // not survive rounding through a narrower path.
                        v.c[0] = Complex::from_re(global.index(gc) as f32 + 0.1 + round as f32);
                        v
                    });
                    let mut oneshot = field.clone();
                    exchange_ghosts(&mut oneshot, &faces, &mut comm).unwrap();

                    let partitioned = sub.partitioned;
                    let mut pending =
                        post_ghost_sends(&field, &faces, &mut comm, &mut bufs).unwrap();
                    let (_, mut zones) = field.body_and_ghosts_mut();
                    // Complete in reverse dimension order to prove
                    // per-dimension independence.
                    for mu in (0..NDIM).rev() {
                        if partitioned[mu] {
                            complete_ghost_dim(&mut pending, mu, &mut zones, &mut comm, &mut bufs)
                                .unwrap();
                        }
                    }
                    for mu in 0..NDIM {
                        assert!(pending.handles[mu].iter().all(Option::is_none));
                        if !partitioned[mu] {
                            continue;
                        }
                        for fwd in [false, true] {
                            let a = field.ghost_zone(mu, fwd);
                            let b = oneshot.ghost_zone(mu, fwd);
                            assert!(
                                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                                "zone ({mu}, {fwd}) differs from one-shot exchange"
                            );
                        }
                    }
                }
            }
            true
        });
        assert!(ok.iter().all(|&b| b));
    }

    /// Completing a dimension that was never posted is a structured error.
    #[test]
    fn completing_unposted_dimension_errors() {
        let global = Dims([4, 4, 4, 8]);
        let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), global).unwrap();
        let results = run_on_grid(grid.clone(), move |mut comm| {
            let sub = Arc::new(SubLattice::for_rank(&grid, comm.rank()));
            let faces = FaceGeometry::new(&sub, 1).unwrap();
            let mut field: LatticeField<f64, ColorVector<f64>> =
                LatticeField::zeros(sub, &faces, Parity::Even, 0);
            let mut bufs = ExchangeBuffers::default();
            let mut pending = PendingGhosts::default();
            let (_, mut zones) = field.body_and_ghosts_mut();
            complete_ghost_dim(&mut pending, 3, &mut zones, &mut comm, &mut bufs)
                .err()
                .map(|e| e.to_string())
        });
        for err in results {
            assert!(err.unwrap().contains("no exchange in flight"));
        }
    }
}
