//! The vector-space abstraction solvers are written against.

use lqcd_util::{Complex, Result};

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Outer iterations performed.
    pub iterations: usize,
    /// Operator applications (communicating matvecs).
    pub matvecs: usize,
    /// Dirichlet (comm-free) matvecs performed inside preconditioners.
    pub precond_matvecs: usize,
    /// Restart count (GCR / defect-correction cycles).
    pub restarts: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub residual: f64,
    /// Whether the target tolerance was reached.
    pub converged: bool,
    /// Times the solve restarted at a higher floating-point precision
    /// after a breakdown (the graceful-degradation ladder).
    pub precision_fallbacks: usize,
    /// Ghost-exchange retransmissions the communicator performed under
    /// the deadline/retry protocol during the solve.
    pub exchange_retries: u64,
    /// Injected faults the communication world absorbed during the
    /// solve (nonzero only in chaos tests).
    pub faults_survived: u64,
    /// Checkpoints a checkpointing monitor wrote during the solve.
    pub checkpoints_written: usize,
    /// True when the solve started from a restored checkpoint instead of
    /// a zero guess.
    pub resumed_from_checkpoint: bool,
    /// Supervised world teardown/rebuild cycles that preceded this
    /// result (0 for an undisturbed solve).
    pub supervisor_restarts: usize,
    /// Dslash applications counted by the overlapped operator pipeline.
    pub dslash_applies: u64,
    /// Wall time of those applies, nanoseconds.
    pub dslash_total_ns: u64,
    /// Interior-kernel time inside those applies (max over workers when
    /// the interior runs parallel), nanoseconds.
    pub dslash_interior_ns: u64,
    /// Communication-completion time *not* hidden behind the interior
    /// kernel, nanoseconds — the quantity overlap drives toward zero.
    pub dslash_exposed_comm_ns: u64,
    /// Fingerprint of the autotuned configuration the solve ran under
    /// (`lqcd-tune`'s `TuneParam::fingerprint()`), or 0 when the solve
    /// used hardcoded defaults.
    pub tuned_config: u64,
}

impl SolveStats {
    /// A fresh zeroed record.
    pub fn new() -> Self {
        SolveStats {
            iterations: 0,
            matvecs: 0,
            precond_matvecs: 0,
            restarts: 0,
            residual: f64::INFINITY,
            converged: false,
            precision_fallbacks: 0,
            exchange_retries: 0,
            faults_survived: 0,
            checkpoints_written: 0,
            resumed_from_checkpoint: false,
            supervisor_restarts: 0,
            dslash_applies: 0,
            dslash_total_ns: 0,
            dslash_interior_ns: 0,
            dslash_exposed_comm_ns: 0,
            tuned_config: 0,
        }
    }

    /// Fold an inner solve's counters into an outer record.
    pub fn absorb(&mut self, inner: &SolveStats) {
        self.iterations += inner.iterations;
        self.matvecs += inner.matvecs;
        self.precond_matvecs += inner.precond_matvecs;
        self.restarts += inner.restarts;
        self.precision_fallbacks += inner.precision_fallbacks;
        self.exchange_retries += inner.exchange_retries;
        self.faults_survived += inner.faults_survived;
        self.checkpoints_written += inner.checkpoints_written;
        self.resumed_from_checkpoint |= inner.resumed_from_checkpoint;
        self.supervisor_restarts += inner.supervisor_restarts;
        self.dslash_applies += inner.dslash_applies;
        self.dslash_total_ns += inner.dslash_total_ns;
        self.dslash_interior_ns += inner.dslash_interior_ns;
        self.dslash_exposed_comm_ns += inner.dslash_exposed_comm_ns;
        if self.tuned_config == 0 {
            self.tuned_config = inner.tuned_config;
        }
    }

    /// Fraction of dslash wall time *not* lost to exposed communication
    /// (`1 − exposed/total`), or `None` if no overlapped applies
    /// contributed. Clamped to `[0, 1]`: records folded via [`absorb`]
    /// can interleave sequential applies (full comm time, no overlap
    /// credit) with overlapped ones, pushing the raw ratio outside the
    /// meaningful range.
    ///
    /// [`absorb`]: SolveStats::absorb
    pub fn overlap_efficiency(&self) -> Option<f64> {
        (self.dslash_applies > 0 && self.dslash_total_ns > 0).then(|| {
            (1.0 - self.dslash_exposed_comm_ns as f64 / self.dslash_total_ns as f64).clamp(0.0, 1.0)
        })
    }

    /// Publish this record into a named-metric registry — the facade
    /// that maps the legacy scalar plumbing onto `lqcd_util::trace`'s
    /// [`MetricsRegistry`]. Counters are cumulative adds (so absorbing
    /// many rank records into one registry aggregates); ratios land as
    /// histogram samples.
    ///
    /// [`MetricsRegistry`]: lqcd_util::trace::MetricsRegistry
    pub fn publish(&self, reg: &mut lqcd_util::trace::MetricsRegistry) {
        reg.add("solve.iterations", self.iterations as u64);
        reg.add("solve.matvecs", self.matvecs as u64);
        reg.add("solve.precond_matvecs", self.precond_matvecs as u64);
        reg.add("solve.restarts", self.restarts as u64);
        reg.add("solve.converged", self.converged as u64);
        reg.add("solve.precision_fallbacks", self.precision_fallbacks as u64);
        reg.add("comm.exchange_retries", self.exchange_retries);
        reg.add("comm.faults_survived", self.faults_survived);
        reg.add("checkpoint.written", self.checkpoints_written as u64);
        reg.add("checkpoint.resumed", self.resumed_from_checkpoint as u64);
        reg.add("supervisor.restarts", self.supervisor_restarts as u64);
        reg.add("dslash.applies", self.dslash_applies);
        reg.add("dslash.total_ns", self.dslash_total_ns);
        reg.add("dslash.interior_ns", self.dslash_interior_ns);
        reg.add("dslash.exposed_comm_ns", self.dslash_exposed_comm_ns);
        reg.add("solve.tuned", (self.tuned_config != 0) as u64);
        reg.record("solve.residual", self.residual);
        if let Some(eff) = self.overlap_efficiency() {
            reg.record("dslash.overlap_efficiency", eff);
        }
    }
}

impl Default for SolveStats {
    fn default() -> Self {
        Self::new()
    }
}

/// A vector space with an operator: everything a Krylov solver needs.
///
/// Scalar coefficients are always `f64`/`Complex<f64>` regardless of the
/// space's storage precision — reductions are globally summed in double
/// (QUDA does the same), which is what keeps single/half solvers stable.
pub trait SolverSpace {
    /// The vector type.
    type V;

    /// Allocate a zero vector.
    fn alloc(&mut self) -> Self::V;

    /// `out = A x`. `x` is mutable because distributed operators refresh
    /// its ghost zones.
    fn matvec(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()>;

    /// Global inner product `⟨a, b⟩` (conjugate-linear in `a`).
    fn dot(&mut self, a: &Self::V, b: &Self::V) -> Result<Complex<f64>>;

    /// Global `‖a‖²`.
    fn norm2(&mut self, a: &Self::V) -> Result<f64>;

    /// `dst = src`.
    fn copy(&mut self, dst: &mut Self::V, src: &Self::V);

    /// `v = 0`.
    fn zero(&mut self, v: &mut Self::V);

    /// `y += a·x`.
    fn axpy(&mut self, a: f64, x: &Self::V, y: &mut Self::V);

    /// `y += a·x` (complex coefficient).
    fn caxpy(&mut self, a: Complex<f64>, x: &Self::V, y: &mut Self::V);

    /// `y = x + a·y`.
    fn xpay(&mut self, x: &Self::V, a: f64, y: &mut Self::V);

    /// `y = x + a·y` (complex coefficient).
    fn cxpay(&mut self, x: &Self::V, a: Complex<f64>, y: &mut Self::V);

    /// `v *= a`.
    fn scale(&mut self, v: &mut Self::V, a: f64);

    /// Storage-precision round trip (no-op unless the space stores its
    /// Krylov vectors in 16-bit fixed point — §8.1's "the Krylov space is
    /// built up in low precision").
    fn quantize(&mut self, _v: &mut Self::V) {}

    /// Number of matvecs performed so far (for stats).
    fn matvec_count(&self) -> usize {
        0
    }
}

/// Extension for spaces whose operator has a communication-free
/// (Dirichlet-boundary) form — the additive-Schwarz block operator. All
/// reductions here are rank-local: each domain solve is independent
/// (§8.1: "the reductions required in each of the domain-specific linear
/// solvers are restricted to that domain only").
pub trait DirichletMatvec: SolverSpace {
    /// `out = A_Dirichlet x` (no communication).
    fn matvec_dirichlet(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()>;

    /// Rank-local inner product.
    fn dot_local(&mut self, a: &Self::V, b: &Self::V) -> Complex<f64>;

    /// Rank-local norm².
    fn norm2_local(&mut self, a: &Self::V) -> f64;

    /// Dirichlet matvecs performed so far.
    fn dirichlet_count(&self) -> usize {
        0
    }
}

/// A dense complex test space: `A` is an explicit n×n matrix, vectors are
/// `Vec<Complex<f64>>`. Lets every solver be validated against exactly
/// solvable systems.
pub struct DenseSpace {
    /// Row-major dense matrix.
    pub a: Vec<Vec<Complex<f64>>>,
    /// Matvec counter.
    pub count: usize,
}

impl DenseSpace {
    /// Wrap a dense matrix.
    pub fn new(a: Vec<Vec<Complex<f64>>>) -> Self {
        Self { a, count: 0 }
    }

    /// A random diagonally-dominant Hermitian positive-definite matrix.
    pub fn random_hpd(n: usize, seed: u64) -> Self {
        use lqcd_util::rng::{normal_pair, SeedTree};
        let t = SeedTree::new(seed);
        let mut rng = t.rng();
        let mut a = vec![vec![Complex::<f64>::zero(); n]; n];
        for i in 0..n {
            for j in 0..i {
                let (x, y) = normal_pair(&mut rng);
                a[i][j] = Complex::new(0.3 * x, 0.3 * y);
                a[j][i] = a[i][j].conj();
            }
            let (x, _) = normal_pair(&mut rng);
            a[i][i] = Complex::from_re(n as f64 * 0.4 + 2.0 + x.abs());
        }
        Self::new(a)
    }

    /// A random diagonally-dominant *non-Hermitian* matrix (for BiCGstab
    /// and GCR).
    pub fn random_general(n: usize, seed: u64) -> Self {
        use lqcd_util::rng::{normal_pair, SeedTree};
        let t = SeedTree::new(seed);
        let mut rng = t.rng();
        let mut a = vec![vec![Complex::<f64>::zero(); n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, e) in row.iter_mut().enumerate() {
                let (x, y) = normal_pair(&mut rng);
                *e = if i == j {
                    Complex::from_re(n as f64 * 0.4 + 3.0 + x.abs())
                } else {
                    Complex::new(0.3 * x, 0.3 * y)
                };
            }
        }
        Self::new(a)
    }

    fn n(&self) -> usize {
        self.a.len()
    }
}

impl SolverSpace for DenseSpace {
    type V = Vec<Complex<f64>>;

    fn alloc(&mut self) -> Self::V {
        vec![Complex::zero(); self.n()]
    }

    fn matvec(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.count += 1;
        for (i, row) in self.a.iter().enumerate() {
            let mut acc = Complex::zero();
            for (j, &m) in row.iter().enumerate() {
                acc = Complex::mul_acc(acc, m, x[j]);
            }
            out[i] = acc;
        }
        Ok(())
    }

    fn dot(&mut self, a: &Self::V, b: &Self::V) -> Result<Complex<f64>> {
        let mut acc = Complex::zero();
        for (x, y) in a.iter().zip(b) {
            acc = Complex::mul_acc(acc, x.conj(), *y);
        }
        Ok(acc)
    }

    fn norm2(&mut self, a: &Self::V) -> Result<f64> {
        Ok(a.iter().map(|x| x.norm_sqr()).sum())
    }

    fn copy(&mut self, dst: &mut Self::V, src: &Self::V) {
        dst.copy_from_slice(src);
    }

    fn zero(&mut self, v: &mut Self::V) {
        for x in v.iter_mut() {
            *x = Complex::zero();
        }
    }

    fn axpy(&mut self, a: f64, x: &Self::V, y: &mut Self::V) {
        for (yv, xv) in y.iter_mut().zip(x) {
            *yv += xv.scale(a);
        }
    }

    fn caxpy(&mut self, a: Complex<f64>, x: &Self::V, y: &mut Self::V) {
        for (yv, xv) in y.iter_mut().zip(x) {
            *yv = Complex::mul_acc(*yv, a, *xv);
        }
    }

    fn xpay(&mut self, x: &Self::V, a: f64, y: &mut Self::V) {
        for (yv, xv) in y.iter_mut().zip(x) {
            *yv = *xv + yv.scale(a);
        }
    }

    fn cxpay(&mut self, x: &Self::V, a: Complex<f64>, y: &mut Self::V) {
        for (yv, xv) in y.iter_mut().zip(x) {
            *yv = *xv + *yv * a;
        }
    }

    fn scale(&mut self, v: &mut Self::V, a: f64) {
        for x in v.iter_mut() {
            *x = x.scale(a);
        }
    }

    fn matvec_count(&self) -> usize {
        self.count
    }
}

/// For the dense test space, the "Dirichlet" operator keeps only a block
/// diagonal (blocks of size `block`), mimicking domain decomposition.
pub struct DenseDdSpace {
    /// The full operator.
    pub full: DenseSpace,
    /// Dirichlet block size.
    pub block: usize,
    /// Dirichlet matvec counter.
    pub dcount: usize,
}

impl SolverSpace for DenseDdSpace {
    type V = Vec<Complex<f64>>;

    fn alloc(&mut self) -> Self::V {
        self.full.alloc()
    }
    fn matvec(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.full.matvec(out, x)
    }
    fn dot(&mut self, a: &Self::V, b: &Self::V) -> Result<Complex<f64>> {
        self.full.dot(a, b)
    }
    fn norm2(&mut self, a: &Self::V) -> Result<f64> {
        self.full.norm2(a)
    }
    fn copy(&mut self, dst: &mut Self::V, src: &Self::V) {
        self.full.copy(dst, src)
    }
    fn zero(&mut self, v: &mut Self::V) {
        self.full.zero(v)
    }
    fn axpy(&mut self, a: f64, x: &Self::V, y: &mut Self::V) {
        self.full.axpy(a, x, y)
    }
    fn caxpy(&mut self, a: Complex<f64>, x: &Self::V, y: &mut Self::V) {
        self.full.caxpy(a, x, y)
    }
    fn xpay(&mut self, x: &Self::V, a: f64, y: &mut Self::V) {
        self.full.xpay(x, a, y)
    }
    fn cxpay(&mut self, x: &Self::V, a: Complex<f64>, y: &mut Self::V) {
        self.full.cxpay(x, a, y)
    }
    fn scale(&mut self, v: &mut Self::V, a: f64) {
        self.full.scale(v, a)
    }
    fn matvec_count(&self) -> usize {
        self.full.count
    }
}

impl DirichletMatvec for DenseDdSpace {
    fn matvec_dirichlet(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.dcount += 1;
        let n = self.full.n();
        for i in 0..n {
            let lo = (i / self.block) * self.block;
            let hi = (lo + self.block).min(n);
            let mut acc = Complex::zero();
            for j in lo..hi {
                acc = Complex::mul_acc(acc, self.full.a[i][j], x[j]);
            }
            out[i] = acc;
        }
        Ok(())
    }

    fn dot_local(&mut self, a: &Self::V, b: &Self::V) -> Complex<f64> {
        let mut acc = Complex::zero();
        for (x, y) in a.iter().zip(b) {
            acc = Complex::mul_acc(acc, x.conj(), *y);
        }
        acc
    }

    fn norm2_local(&mut self, a: &Self::V) -> f64 {
        a.iter().map(|x| x.norm_sqr()).sum()
    }

    fn dirichlet_count(&self) -> usize {
        self.dcount
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_efficiency_is_clamped_and_gated_on_applies() {
        // No applies at all → no meaningful efficiency, even if stray
        // nanoseconds were absorbed from somewhere.
        let mut s = SolveStats::new();
        assert_eq!(s.overlap_efficiency(), None);
        s.dslash_total_ns = 500;
        assert_eq!(s.overlap_efficiency(), None, "zero applies must yield None");

        // Regression: a record absorbing sequential applies can carry
        // exposed_comm_ns > total_ns; the ratio must clamp to 0, never
        // go negative.
        let mut seq = SolveStats::new();
        seq.dslash_applies = 4;
        seq.dslash_total_ns = 1_000;
        seq.dslash_exposed_comm_ns = 3_000;
        assert_eq!(seq.overlap_efficiency(), Some(0.0));

        // Fully hidden comm stays exactly 1.
        let mut hidden = SolveStats::new();
        hidden.dslash_applies = 2;
        hidden.dslash_total_ns = 1_000;
        hidden.dslash_exposed_comm_ns = 0;
        assert_eq!(hidden.overlap_efficiency(), Some(1.0));

        // A partial overlap is reported untouched.
        let mut partial = SolveStats::new();
        partial.dslash_applies = 1;
        partial.dslash_total_ns = 1_000;
        partial.dslash_exposed_comm_ns = 250;
        assert_eq!(partial.overlap_efficiency(), Some(0.75));

        // Absorbing the pathological record into the healthy one keeps
        // the folded efficiency in range.
        hidden.absorb(&seq);
        let eff = hidden.overlap_efficiency().unwrap();
        assert!((0.0..=1.0).contains(&eff), "folded efficiency {eff} out of range");
    }

    #[test]
    fn absorb_sums_restarts() {
        let mut outer = SolveStats::new();
        outer.restarts = 2;
        let mut inner = SolveStats::new();
        inner.restarts = 3;
        inner.iterations = 7;
        outer.absorb(&inner);
        outer.absorb(&inner);
        assert_eq!(outer.restarts, 8);
        assert_eq!(outer.iterations, 14);
    }

    #[test]
    fn solve_stats_publish_lands_in_registry() {
        let mut s = SolveStats::new();
        s.iterations = 12;
        s.matvecs = 13;
        s.dslash_applies = 26;
        s.dslash_total_ns = 1_000;
        s.dslash_exposed_comm_ns = 100;
        s.converged = true;
        s.residual = 1e-9;
        let mut reg = lqcd_util::trace::MetricsRegistry::new();
        s.publish(&mut reg);
        s.publish(&mut reg); // counters aggregate across publishes
        assert_eq!(reg.counter("solve.iterations"), 24);
        assert_eq!(reg.counter("dslash.applies"), 52);
        assert_eq!(reg.counter("solve.converged"), 2);
        let h = reg.histogram("dslash.overlap_efficiency").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.mean() - 0.9).abs() < 1e-12);
        assert!(reg.text_report().contains("solve.matvecs"));
    }

    #[test]
    fn dense_matvec_identity() {
        let n = 4;
        let mut id = vec![vec![Complex::zero(); n]; n];
        for (i, row) in id.iter_mut().enumerate() {
            row[i] = Complex::one();
        }
        let mut s = DenseSpace::new(id);
        let mut x = s.alloc();
        x[2] = Complex::new(1.0, -2.0);
        let mut y = s.alloc();
        let mut xc = x.clone();
        s.matvec(&mut y, &mut xc).unwrap();
        assert_eq!(y, x);
        assert_eq!(s.matvec_count(), 1);
    }

    #[test]
    fn hpd_matrix_is_hermitian_positive() {
        let mut s = DenseSpace::random_hpd(8, 1);
        for i in 0..8 {
            for j in 0..8 {
                assert!((s.a[i][j] - s.a[j][i].conj()).abs() < 1e-15);
            }
        }
        // x† A x > 0 for random x.
        let mut x = s.alloc();
        for (k, v) in x.iter_mut().enumerate() {
            *v = Complex::new(1.0 / (k + 1) as f64, (k as f64).sin());
        }
        let mut ax = s.alloc();
        let mut xc = x.clone();
        s.matvec(&mut ax, &mut xc).unwrap();
        let q = s.dot(&x, &ax).unwrap();
        assert!(q.re > 0.0 && q.im.abs() < 1e-12);
    }

    #[test]
    fn blas_surface_consistency() {
        let mut s = DenseSpace::random_hpd(6, 2);
        let mut x = s.alloc();
        for (k, v) in x.iter_mut().enumerate() {
            *v = Complex::new(k as f64, -1.0);
        }
        let mut y = s.alloc();
        s.copy(&mut y, &x);
        s.xpay(&x, -1.0, &mut y); // y = x - y = 0
        assert_eq!(s.norm2(&y).unwrap(), 0.0);
        s.caxpy(Complex::i(), &x, &mut y); // y = i x
        let d = s.dot(&x, &y).unwrap();
        // ⟨x, ix⟩ = i‖x‖².
        assert!((d.im - s.norm2(&x).unwrap()).abs() < 1e-12);
        assert!(d.re.abs() < 1e-12);
    }

    #[test]
    fn dd_space_block_diagonal() {
        let mut s = DenseDdSpace { full: DenseSpace::random_general(6, 3), block: 3, dcount: 0 };
        let mut x = s.alloc();
        x[0] = Complex::one(); // support in block 0
        let mut out = s.alloc();
        let mut xc = x.clone();
        s.matvec_dirichlet(&mut out, &mut xc).unwrap();
        // Output confined to block 0.
        for i in 3..6 {
            assert_eq!(out[i], Complex::zero());
        }
        assert!(s.dirichlet_count() == 1);
    }
}
