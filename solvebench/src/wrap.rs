//! Bench-side instrumentation wrappers for the traced run.
//!
//! The library is measured from outside: [`CountingComm`] counts and times
//! every message and reduction a rank issues, [`TimedSpace`] times every
//! call a solver makes into its vector space, and [`TimedPrecond`] times
//! the preconditioner's own work. Each wrapper forwards to the wrapped
//! object unchanged, so a wrapped solve computes bit-identical results
//! (checked by the self-tests in `checks.rs`).

use lqcd_comms::{Communicator, ExchangeHandle};
use lqcd_dirac::{DslashCounters, OverlapHost};
use lqcd_lattice::ProcessGrid;
use lqcd_solvers::spaces::{EoWilsonSpace, StaggeredNormalSpace};
use lqcd_solvers::{DirichletMatvec, Preconditioner, SolverSpace};
use lqcd_util::{Complex, Real, Result};
use std::time::Instant;

/// Cumulative message and reduction totals of one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommTotals {
    /// Halo messages sent (blocking and nonblocking shifts).
    pub exchanges: u64,
    /// Payload bytes of those messages.
    pub exchange_bytes: u64,
    /// Time spent blocked completing them.
    pub exchange_wait_ns: u64,
    /// Global reductions (sums and maxima).
    pub allreduces: u64,
    /// Time spent inside them.
    pub allreduce_ns: u64,
}

impl CommTotals {
    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &CommTotals) -> CommTotals {
        CommTotals {
            exchanges: self.exchanges - earlier.exchanges,
            exchange_bytes: self.exchange_bytes - earlier.exchange_bytes,
            exchange_wait_ns: self.exchange_wait_ns - earlier.exchange_wait_ns,
            allreduces: self.allreduces - earlier.allreduces,
            allreduce_ns: self.allreduce_ns - earlier.allreduce_ns,
        }
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A counting, timing [`Communicator`] around any backend.
pub struct CountingComm<C> {
    /// The wrapped communicator.
    pub inner: C,
    /// Totals since construction.
    pub totals: CommTotals,
}

impl<C: Communicator> CountingComm<C> {
    /// Wrap `inner` with zeroed totals.
    pub fn new(inner: C) -> Self {
        CountingComm { inner, totals: CommTotals::default() }
    }

    fn sent(&mut self, send: &[f64]) {
        self.totals.exchanges += 1;
        self.totals.exchange_bytes += std::mem::size_of_val(send) as u64;
    }
}

impl<C: Communicator> Communicator for CountingComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn grid(&self) -> &ProcessGrid {
        self.inner.grid()
    }
    fn send_recv(
        &mut self,
        mu: usize,
        forward: bool,
        send: &[f64],
        recv: &mut [f64],
    ) -> Result<()> {
        self.sent(send);
        let t = Instant::now();
        let r = self.inner.send_recv(mu, forward, send, recv);
        self.totals.exchange_wait_ns += ns_since(t);
        r
    }
    fn start_send_recv(
        &mut self,
        mu: usize,
        forward: bool,
        send: &[f64],
    ) -> Result<ExchangeHandle> {
        self.sent(send);
        self.inner.start_send_recv(mu, forward, send)
    }
    fn complete_send_recv(&mut self, handle: ExchangeHandle, recv: &mut [f64]) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.complete_send_recv(handle, recv);
        self.totals.exchange_wait_ns += ns_since(t);
        r
    }
    fn allreduce_sum(&mut self, vals: &mut [f64]) -> Result<()> {
        self.totals.allreduces += 1;
        let t = Instant::now();
        let r = self.inner.allreduce_sum(vals);
        self.totals.allreduce_ns += ns_since(t);
        r
    }
    fn allreduce_max(&mut self, vals: &mut [f64]) -> Result<()> {
        self.totals.allreduces += 1;
        let t = Instant::now();
        let r = self.inner.allreduce_max(vals);
        self.totals.allreduce_ns += ns_since(t);
        r
    }
    fn exchange_retries(&self) -> u64 {
        self.inner.exchange_retries()
    }
    fn faults_survived(&self) -> u64 {
        self.inner.faults_survived()
    }
}

/// Message totals of a communicator, when it keeps any.
pub trait CommProbe: Communicator {
    /// Totals so far (zero for uninstrumented backends).
    fn comm_totals(&self) -> CommTotals {
        CommTotals::default()
    }
}

impl CommProbe for lqcd_comms::ThreadedComm {}

impl<C: Communicator> CommProbe for CountingComm<C> {
    fn comm_totals(&self) -> CommTotals {
        self.totals
    }
}

/// Cumulative time split of the calls a solver makes into its space.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpaceTimes {
    /// Communicating matvecs.
    pub matvecs: u64,
    /// Their wall time.
    pub matvec_ns: u64,
    /// Dirichlet (rank-local block) matvecs.
    pub dirichlet_matvecs: u64,
    /// Their wall time.
    pub dirichlet_ns: u64,
    /// Inner products and norms, global and rank-local.
    pub dot_ns: u64,
    /// Vector updates: copy, zero, axpy family, scale.
    pub blas_ns: u64,
    /// Half-precision storage round trips.
    pub quantize_ns: u64,
    /// Preconditioner self time: its wall time minus the space calls
    /// above that it issued.
    pub precond_ns: u64,
}

impl SpaceTimes {
    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &SpaceTimes) -> SpaceTimes {
        SpaceTimes {
            matvecs: self.matvecs - earlier.matvecs,
            matvec_ns: self.matvec_ns - earlier.matvec_ns,
            dirichlet_matvecs: self.dirichlet_matvecs - earlier.dirichlet_matvecs,
            dirichlet_ns: self.dirichlet_ns - earlier.dirichlet_ns,
            dot_ns: self.dot_ns - earlier.dot_ns,
            blas_ns: self.blas_ns - earlier.blas_ns,
            quantize_ns: self.quantize_ns - earlier.quantize_ns,
            precond_ns: self.precond_ns - earlier.precond_ns,
        }
    }

    /// Every timed part, nanoseconds.
    pub fn timed_ns(&self) -> u64 {
        self.matvec_ns
            + self.dirichlet_ns
            + self.dot_ns
            + self.blas_ns
            + self.quantize_ns
            + self.precond_ns
    }
}

/// What the benchmark reads from a rank's solver space, wrapped or not.
pub trait BenchSpace: SolverSpace {
    /// The space's communicator.
    type Comm: CommProbe;
    /// The communicator (for barriers, verification and decisions).
    fn comm(&mut self) -> &mut Self::Comm;
    /// The operator's cumulative dslash counters.
    fn dslash_counters(&self) -> DslashCounters;
    /// The space-call time split so far (zero when not wrapped).
    fn space_times(&self) -> SpaceTimes {
        SpaceTimes::default()
    }
}

impl<R: Real, C: CommProbe> BenchSpace for EoWilsonSpace<R, C>
where
    EoWilsonSpace<R, C>: SolverSpace,
{
    type Comm = C;
    fn comm(&mut self) -> &mut C {
        &mut self.comm
    }
    fn dslash_counters(&self) -> DslashCounters {
        self.op.dslash_counters()
    }
}

impl<R: Real, C: CommProbe> BenchSpace for StaggeredNormalSpace<R, C>
where
    StaggeredNormalSpace<R, C>: SolverSpace,
{
    type Comm = C;
    fn comm(&mut self) -> &mut C {
        &mut self.comm
    }
    fn dslash_counters(&self) -> DslashCounters {
        self.op.dslash_counters()
    }
}

/// A [`SolverSpace`] that times every call into the wrapped space.
pub struct TimedSpace<S> {
    /// The wrapped space.
    pub inner: S,
    /// Totals since construction.
    pub times: SpaceTimes,
}

impl<S> TimedSpace<S> {
    /// Wrap `inner` with zeroed totals.
    pub fn new(inner: S) -> Self {
        TimedSpace { inner, times: SpaceTimes::default() }
    }
}

/// Time `$body`, adding the elapsed nanoseconds to `$self.times.$field`.
macro_rules! timed {
    ($self:ident, $field:ident, $body:expr) => {{
        let t = Instant::now();
        let r = $body;
        $self.times.$field += ns_since(t);
        r
    }};
}

impl<S: SolverSpace> SolverSpace for TimedSpace<S> {
    type V = S::V;

    fn alloc(&mut self) -> Self::V {
        self.inner.alloc()
    }
    fn matvec(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.times.matvecs += 1;
        timed!(self, matvec_ns, self.inner.matvec(out, x))
    }
    fn dot(&mut self, a: &Self::V, b: &Self::V) -> Result<Complex<f64>> {
        timed!(self, dot_ns, self.inner.dot(a, b))
    }
    fn norm2(&mut self, a: &Self::V) -> Result<f64> {
        timed!(self, dot_ns, self.inner.norm2(a))
    }
    fn copy(&mut self, dst: &mut Self::V, src: &Self::V) {
        timed!(self, blas_ns, self.inner.copy(dst, src))
    }
    fn zero(&mut self, v: &mut Self::V) {
        timed!(self, blas_ns, self.inner.zero(v))
    }
    fn axpy(&mut self, a: f64, x: &Self::V, y: &mut Self::V) {
        timed!(self, blas_ns, self.inner.axpy(a, x, y))
    }
    fn caxpy(&mut self, a: Complex<f64>, x: &Self::V, y: &mut Self::V) {
        timed!(self, blas_ns, self.inner.caxpy(a, x, y))
    }
    fn xpay(&mut self, x: &Self::V, a: f64, y: &mut Self::V) {
        timed!(self, blas_ns, self.inner.xpay(x, a, y))
    }
    fn cxpay(&mut self, x: &Self::V, a: Complex<f64>, y: &mut Self::V) {
        timed!(self, blas_ns, self.inner.cxpay(x, a, y))
    }
    fn scale(&mut self, v: &mut Self::V, a: f64) {
        timed!(self, blas_ns, self.inner.scale(v, a))
    }
    fn quantize(&mut self, v: &mut Self::V) {
        timed!(self, quantize_ns, self.inner.quantize(v))
    }
    fn matvec_count(&self) -> usize {
        self.inner.matvec_count()
    }
}

impl<S: DirichletMatvec> DirichletMatvec for TimedSpace<S> {
    fn matvec_dirichlet(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.times.dirichlet_matvecs += 1;
        timed!(self, dirichlet_ns, self.inner.matvec_dirichlet(out, x))
    }
    fn dot_local(&mut self, a: &Self::V, b: &Self::V) -> Complex<f64> {
        timed!(self, dot_ns, self.inner.dot_local(a, b))
    }
    fn norm2_local(&mut self, a: &Self::V) -> f64 {
        timed!(self, dot_ns, self.inner.norm2_local(a))
    }
    fn dirichlet_count(&self) -> usize {
        self.inner.dirichlet_count()
    }
}

impl<S: BenchSpace> BenchSpace for TimedSpace<S> {
    type Comm = S::Comm;
    fn comm(&mut self) -> &mut S::Comm {
        self.inner.comm()
    }
    fn dslash_counters(&self) -> DslashCounters {
        self.inner.dslash_counters()
    }
    fn space_times(&self) -> SpaceTimes {
        self.times
    }
}

/// A [`Preconditioner`] that books its own work as `precond_ns`: the
/// wall time of each application minus the space calls it made, which
/// [`TimedSpace`] has already booked under their own parts.
pub struct TimedPrecond<P>(pub P);

impl<S: SolverSpace, P: Preconditioner<TimedSpace<S>>> Preconditioner<TimedSpace<S>>
    for TimedPrecond<P>
{
    fn apply(&mut self, space: &mut TimedSpace<S>, out: &mut S::V, r: &S::V) -> Result<()> {
        let before = space.times.timed_ns();
        let t = Instant::now();
        let res = self.0.apply(space, out, r);
        let wall = ns_since(t);
        let children = space.times.timed_ns() - before;
        space.times.precond_ns += wall.saturating_sub(children);
        res
    }
    fn precond_matvecs(&self) -> usize {
        self.0.precond_matvecs()
    }
}
