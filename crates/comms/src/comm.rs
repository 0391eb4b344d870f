//! The communicator trait.

use lqcd_lattice::ProcessGrid;
use lqcd_util::{Error, Result};

/// An in-flight nonblocking exchange started by
/// [`Communicator::start_send_recv`] and finished by
/// [`Communicator::complete_send_recv`] — the `MPI_Isend`/`MPI_Wait`
/// split the paper's overlapped dslash pipeline is built on.
///
/// Backends that can truly post (the threaded world) carry routing state
/// here; backends that cannot defer the whole exchange to completion
/// time, so every communicator conforms to the same two-phase protocol.
#[derive(Debug)]
pub struct ExchangeHandle {
    pub(crate) mu: usize,
    pub(crate) forward: bool,
    pub(crate) state: HandleState,
}

#[derive(Debug)]
pub(crate) enum HandleState {
    /// Fallback for backends without a real nonblocking path: the
    /// payload is held and the blocking exchange runs at completion.
    Deferred(Vec<f64>),
    /// The threaded backend posted the message at start time; completion
    /// runs the receive (and, under ARQ, the ack/retransmit loop — its
    /// deadline is clocked from the completion call).
    Posted {
        to: usize,
        from: usize,
        tag: u64,
        posted_at: std::time::Instant,
        /// Payload retained for retransmission (ARQ worlds only).
        resend: Option<Vec<f64>>,
    },
}

impl ExchangeHandle {
    /// The grid dimension this exchange shifts along.
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// The send direction passed to `start_send_recv`.
    pub fn forward(&self) -> bool {
        self.forward
    }

    pub(crate) fn deferred(mu: usize, forward: bool, payload: Vec<f64>) -> Self {
        ExchangeHandle { mu, forward, state: HandleState::Deferred(payload) }
    }

    pub(crate) fn posted(
        mu: usize,
        forward: bool,
        to: usize,
        from: usize,
        tag: u64,
        posted_at: std::time::Instant,
        resend: Option<Vec<f64>>,
    ) -> Self {
        ExchangeHandle {
            mu,
            forward,
            state: HandleState::Posted { to, from, tag, posted_at, resend },
        }
    }
}

/// Message-passing surface used by the distributed Dirac operators and
/// solvers. Mirrors the subset of QMP/MPI the paper's implementation
/// relies on: grid-neighbour exchange plus global reductions.
pub trait Communicator {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Total number of ranks.
    fn size(&self) -> usize;

    /// The process grid ranks are arranged in.
    fn grid(&self) -> &ProcessGrid;

    /// Simultaneous shift along grid dimension `mu`: send `send` to the
    /// neighbour in direction (`mu`, `forward`) and receive into `recv`
    /// from the neighbour in the opposite direction.
    ///
    /// Every rank of the grid must call this collectively with matching
    /// buffer lengths; mismatches surface as [`lqcd_util::Error::Comms`].
    fn send_recv(&mut self, mu: usize, forward: bool, send: &[f64], recv: &mut [f64])
        -> Result<()>;

    /// Begin a nonblocking shift along dimension `mu`: post `send`
    /// toward (`mu`, `forward`) and return a handle for the matching
    /// receive. Several exchanges (e.g. one per partitioned dimension)
    /// may be outstanding at once; each must be finished with
    /// [`Communicator::complete_send_recv`], and handles on the *same*
    /// `(mu, forward)` edge must be completed in start order.
    ///
    /// The default implementation defers the whole exchange to
    /// completion time (correct for any backend); the threaded backend
    /// overrides it to genuinely put the message on the wire here.
    fn start_send_recv(
        &mut self,
        mu: usize,
        forward: bool,
        send: &[f64],
    ) -> Result<ExchangeHandle> {
        Ok(ExchangeHandle::deferred(mu, forward, send.to_vec()))
    }

    /// Finish a nonblocking shift: block until the matching message from
    /// the opposite neighbour lands in `recv`. Deadline and ARQ retry
    /// semantics apply at completion time, exactly as for a blocking
    /// [`Communicator::send_recv`].
    fn complete_send_recv(&mut self, handle: ExchangeHandle, recv: &mut [f64]) -> Result<()> {
        match handle.state {
            HandleState::Deferred(payload) => {
                self.send_recv(handle.mu, handle.forward, &payload, recv)
            }
            HandleState::Posted { .. } => Err(Error::Comms(
                "posted exchange completed on a backend that did not start it".into(),
            )),
        }
    }

    /// Global sum over all ranks, elementwise into `vals` (in place).
    fn allreduce_sum(&mut self, vals: &mut [f64]) -> Result<()>;

    /// Global max over all ranks, elementwise into `vals` (in place).
    fn allreduce_max(&mut self, vals: &mut [f64]) -> Result<()>;

    /// Block until every rank has arrived.
    fn barrier(&mut self) -> Result<()> {
        let mut dummy = [0.0f64];
        self.allreduce_sum(&mut dummy)
    }

    /// Convenience: global sum of a single scalar.
    fn sum_scalar(&mut self, v: f64) -> Result<f64> {
        let mut buf = [v];
        self.allreduce_sum(&mut buf)?;
        Ok(buf[0])
    }

    /// Convenience: global sum of a complex value packed as `[re, im]`.
    fn sum_complex(&mut self, re: f64, im: f64) -> Result<(f64, f64)> {
        let mut buf = [re, im];
        self.allreduce_sum(&mut buf)?;
        Ok((buf[0], buf[1]))
    }

    /// Retransmissions this endpoint has performed under the
    /// deadline/retry protocol (0 for backends without one).
    fn exchange_retries(&self) -> u64 {
        0
    }

    /// Injected faults this endpoint's world has absorbed so far
    /// (0 when no fault plan is attached).
    fn faults_survived(&self) -> u64 {
        0
    }
}

/// A rank-local shared handle to a communicator, so several operator
/// precisions (the mixed-precision solver stack) can use one rank's
/// endpoint. Single-threaded within a rank, hence `Rc<RefCell>`; the
/// process grid is cached at construction so `grid()` needs no borrow.
pub struct SharedComm<C> {
    inner: std::rc::Rc<std::cell::RefCell<C>>,
    grid: ProcessGrid,
}

impl<C: Communicator> SharedComm<C> {
    /// Wrap a communicator for sharing within one rank.
    pub fn new(comm: C) -> Self {
        let grid = comm.grid().clone();
        SharedComm { inner: std::rc::Rc::new(std::cell::RefCell::new(comm)), grid }
    }
}

impl<C> Clone for SharedComm<C> {
    fn clone(&self) -> Self {
        SharedComm { inner: self.inner.clone(), grid: self.grid.clone() }
    }
}

impl<C: Communicator> Communicator for SharedComm<C> {
    fn rank(&self) -> usize {
        self.inner.borrow().rank()
    }
    fn size(&self) -> usize {
        self.inner.borrow().size()
    }
    fn grid(&self) -> &ProcessGrid {
        &self.grid
    }
    fn send_recv(
        &mut self,
        mu: usize,
        forward: bool,
        send: &[f64],
        recv: &mut [f64],
    ) -> Result<()> {
        self.inner.borrow_mut().send_recv(mu, forward, send, recv)
    }
    fn start_send_recv(
        &mut self,
        mu: usize,
        forward: bool,
        send: &[f64],
    ) -> Result<ExchangeHandle> {
        self.inner.borrow_mut().start_send_recv(mu, forward, send)
    }
    fn complete_send_recv(&mut self, handle: ExchangeHandle, recv: &mut [f64]) -> Result<()> {
        self.inner.borrow_mut().complete_send_recv(handle, recv)
    }
    fn allreduce_sum(&mut self, vals: &mut [f64]) -> Result<()> {
        self.inner.borrow_mut().allreduce_sum(vals)
    }
    fn allreduce_max(&mut self, vals: &mut [f64]) -> Result<()> {
        self.inner.borrow_mut().allreduce_max(vals)
    }
    fn exchange_retries(&self) -> u64 {
        self.inner.borrow().exchange_retries()
    }
    fn faults_survived(&self) -> u64 {
        self.inner.borrow().faults_survived()
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use crate::single::SingleComm;
    use lqcd_lattice::Dims;

    #[test]
    fn shared_comm_multiplexes_one_endpoint() {
        // Two handles to the same endpoint (as the mixed-precision solver
        // stack holds one per operator precision) both work and see the
        // same grid.
        let base = SingleComm::new(Dims([4, 4, 4, 8])).unwrap();
        let mut a = SharedComm::new(base);
        let mut b = a.clone();
        assert_eq!(a.rank(), 0);
        assert_eq!(b.size(), 1);
        assert_eq!(a.grid().num_ranks(), b.grid().num_ranks());
        assert_eq!(a.sum_scalar(2.0).unwrap(), 2.0);
        let mut recv = [0.0f64; 2];
        b.send_recv(3, true, &[5.0, 6.0], &mut recv).unwrap();
        assert_eq!(recv, [5.0, 6.0]);
        a.barrier().unwrap();
    }

    #[test]
    fn deferred_nonblocking_exchange_conforms() {
        // SingleComm has no real nonblocking path: the default deferred
        // handle must still deliver the payload at completion time, with
        // several exchanges outstanding at once.
        let mut c = SingleComm::new(Dims([4, 4, 4, 8])).unwrap();
        let h2 = c.start_send_recv(2, true, &[1.0, 2.0]).unwrap();
        let h3 = c.start_send_recv(3, false, &[7.0]).unwrap();
        assert_eq!((h3.mu(), h3.forward()), (3, false));
        // Complete out of start order across edges.
        let mut r3 = [0.0f64];
        c.complete_send_recv(h3, &mut r3).unwrap();
        let mut r2 = [0.0f64; 2];
        c.complete_send_recv(h2, &mut r2).unwrap();
        assert_eq!(r3, [7.0]);
        assert_eq!(r2, [1.0, 2.0]);
        // Length mismatch surfaces at completion, like the blocking path.
        let h = c.start_send_recv(0, true, &[1.0]).unwrap();
        let mut bad = [0.0f64; 3];
        assert!(c.complete_send_recv(h, &mut bad).is_err());
    }

    #[test]
    fn shared_comm_over_threaded_world() {
        use crate::threaded::run_on_grid;
        use lqcd_lattice::ProcessGrid;
        let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), Dims([4, 4, 4, 8])).unwrap();
        let sums = run_on_grid(grid, |comm| {
            let mut a = SharedComm::new(comm);
            let mut b = a.clone();
            // Interleave use of both handles.
            let s1 = a.sum_scalar(1.0).unwrap();
            let s2 = b.sum_scalar(10.0).unwrap();
            (s1, s2)
        });
        assert!(sums.iter().all(|&(s1, s2)| s1 == 2.0 && s2 == 20.0));
    }
}
