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
        }
    }

    /// Fold an inner solve's counters into an outer record.
    pub fn absorb(&mut self, inner: &SolveStats) {
        self.iterations += inner.iterations;
        self.matvecs += inner.matvecs;
        self.precond_matvecs += inner.precond_matvecs;
        self.restarts += inner.restarts;
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
