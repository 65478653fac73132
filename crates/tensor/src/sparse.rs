//! CSR (compressed sparse row) weight storage and the sparse kernels
//! [`crate::backend::PackedBackend`] routes a weight through when it
//! carries a CSR sidecar.
//!
//! Pruned networks carry masked weights whose zeros the dense backends
//! still multiply. [`Csr`] stores only the nonzeros of a 2-D weight —
//! row-pointer / column-index / value arrays — and the kernels here walk
//! them in **ascending column order with one `mul_add` accumulator per
//! output element**, i.e. exactly the scalar oracle's chain with the
//! zero-valued terms removed. For finite operands, `fma(±0, x, acc)`
//! returns `acc` exactly (up to the sign of an exactly-zero accumulator,
//! which `f32 ==` cannot observe), so skipping zero weights keeps every
//! output `==`-equal to [`crate::backend::ScalarBackend`] — the same
//! conformance contract the packed backend meets. Non-finite activations
//! (`NaN`/`±Inf`) are the one documented exception: a zero weight times an
//! infinite activation contributes `NaN` to the dense chain but nothing to
//! the sparse one.
//!
//! Threads partition output rows only (matvec) or CSR rows only (the
//! transposed-accumulator GEMM below), so results are bitwise invariant
//! across `PV_NUM_THREADS`, matching DESIGN.md §12's contract.

// pv-analyze: allow-file(hotpath-slice-index) -- the kernels index through
// row_ptr-delimited nonzero runs whose bounds are established by CSR
// construction; iterator rewrites obscure the accumulator chain that the
// bitwise contract pins down

use crate::par::{parallel_for_chunks_mut, worker_count};
use crate::tensor::Tensor;

/// Default routing threshold: weights at or below this nonzero density get
/// a CSR sidecar (and thus the sparse kernels); denser ones stay on the
/// packed pipeline. The scalar one-fma-per-nonzero walk gives up the
/// packed pipeline's SIMD throughput, so byte-count parity is *not* the
/// crossover: the kernels bench's `matmul_a_bt 8x4096x4096` rows
/// (`BENCH_kernels.json`) measure CSR losing to packed at 0.50 density,
/// 1.8x ahead at 0.25, 3x at 0.15 and 9x at 0.05, against a dense path
/// that still re-packs the weight on every call. 0.15 keeps the default
/// conservative for when that dense path gets faster — 50/70%-pruned
/// layers stay on the packed pipeline, 90/95% go sparse.
pub const DEFAULT_MAX_DENSITY: f32 = 0.15;

/// A 2-D tensor's nonzeros in compressed sparse row form.
///
/// `row_ptr[r]..row_ptr[r + 1]` delimits row `r`'s entries in `col_idx` /
/// `values`, with column indices strictly ascending within each row.
/// Indices are `u32` (a 4-byte column index halves the per-nonzero
/// footprint vs `usize`; no weight in this workspace approaches 2³¹
/// columns).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Compresses a 2-D tensor, keeping every entry with `v != 0.0`
    /// (both zero signs are dropped — see the module docs for why that
    /// preserves the `==` contract).
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not 2-D or has more than `u32::MAX` columns
    /// or nonzeros.
    pub fn from_dense(dense: &Tensor) -> Self {
        assert_eq!(dense.ndim(), 2, "CSR compression requires a matrix");
        let (rows, cols) = (dense.dim(0), dense.dim(1));
        assert!(cols <= u32::MAX as usize, "CSR column index overflow");
        let d = dense.data();
        let nnz = dense.count_nonzero();
        assert!(nnz <= u32::MAX as usize, "CSR nonzero count overflow");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0u32);
        for r in 0..rows {
            for (c, &v) in d[r * cols..(r + 1) * cols].iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows of the dense original.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the dense original.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Nonzero fraction in `[0, 1]` (1.0 for an empty matrix).
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            1.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Reconstructs the dense tensor (tests and compaction audits).
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows, self.cols]);
        let od = out.data_mut();
        for r in 0..self.rows {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                od[r * self.cols + c as usize] = v;
            }
        }
        out
    }
}

/// `C = A · Bᵀ` where `B` (the `[n, k]` weight) is in CSR form — the
/// linear-layer forward product. Returns `C: [m, n]`.
///
/// Accumulates into a transposed `[n, m]` scratch so each worker owns a
/// contiguous run of CSR rows: for CSR row `j`, every nonzero `(p, v)` is
/// loaded once and folded into all `m` accumulators of output column `j`
/// (`acc[i] = fma(v, A[i, p], acc[i])`, ascending `p`), then the scratch
/// is transposed into `C`. One pass over the nonzeros per call regardless
/// of batch size, versus one pass per output row for a row-major walk.
pub(crate) fn csr_matmul_a_bt(a: &Tensor, csr: &Csr, m: usize, k: usize, n: usize) -> Tensor {
    debug_assert_eq!(csr.rows, n);
    debug_assert_eq!(csr.cols, k);
    let mut c = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 {
        return c;
    }
    let ad = a.data();
    let mut ct = vec![0.0f32; n * m];
    let rows_per_block = n.div_ceil(worker_count(m * csr.nnz().max(1)));
    parallel_for_chunks_mut(&mut ct, rows_per_block * m, |block, chunk| {
        let j0 = block * rows_per_block;
        for (jj, crow) in chunk.chunks_mut(m).enumerate() {
            let j = j0 + jj;
            let (lo, hi) = (csr.row_ptr[j] as usize, csr.row_ptr[j + 1] as usize);
            for (&p, &v) in csr.col_idx[lo..hi].iter().zip(&csr.values[lo..hi]) {
                let p = p as usize;
                for (i, acc) in crow.iter_mut().enumerate() {
                    *acc = v.mul_add(ad[i * k + p], *acc);
                }
            }
        }
    });
    let cd = c.data_mut();
    for j in 0..n {
        for i in 0..m {
            cd[i * n + j] = ct[j * m + i];
        }
    }
    c
}

/// `y = A · x` where `A` (the `[m, n]` weight) is in CSR form. Returns
/// `y: [m]`. Workers partition output rows; each element is one ascending-
/// column `mul_add` chain over the row's nonzeros.
pub(crate) fn csr_matvec(csr: &Csr, x: &Tensor, m: usize, n: usize) -> Tensor {
    debug_assert_eq!(csr.rows, m);
    debug_assert_eq!(csr.cols, n);
    let mut y = Tensor::zeros(&[m]);
    if m == 0 {
        return y;
    }
    let xd = x.data();
    let rows_per_block = m.div_ceil(worker_count(csr.nnz().max(1)));
    parallel_for_chunks_mut(y.data_mut(), rows_per_block, |block, ychunk| {
        let r0 = block * rows_per_block;
        for (rr, out) in ychunk.iter_mut().enumerate() {
            let r = r0 + rr;
            let (lo, hi) = (csr.row_ptr[r] as usize, csr.row_ptr[r + 1] as usize);
            let mut acc = 0.0f32;
            for (&p, &v) in csr.col_idx[lo..hi].iter().zip(&csr.values[lo..hi]) {
                acc = xd[p as usize].mul_add(v, acc);
            }
            *out = acc;
        }
    });
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn sparse_tensor(rows: usize, cols: usize, density: f64, seed: u64) -> Tensor {
        let mut rng = Rng::new(seed);
        Tensor::from_fn(&[rows, cols], |_| {
            if rng.uniform() < density {
                rng.uniform_in(-1.0, 1.0)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn from_dense_roundtrips() {
        let t = sparse_tensor(7, 13, 0.2, 1);
        let csr = Csr::from_dense(&t);
        assert_eq!(csr.rows(), 7);
        assert_eq!(csr.cols(), 13);
        assert_eq!(csr.nnz(), t.count_nonzero());
        assert!((csr.density() - csr.nnz() as f64 / 91.0).abs() < 1e-12);
        assert_eq!(csr.to_dense(), t);
    }

    #[test]
    fn negative_zero_is_dropped() {
        let t = Tensor::from_vec(vec![1, 3], vec![-0.0, 2.0, 0.0]);
        let csr = Csr::from_dense(&t);
        assert_eq!(csr.nnz(), 1);
        // reconstruction loses the zero sign, but stays ==-equal
        assert_eq!(csr.to_dense(), t);
    }

    #[test]
    fn empty_and_zero_matrices() {
        let z = Csr::from_dense(&Tensor::zeros(&[3, 4]));
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.to_dense(), Tensor::zeros(&[3, 4]));
        let e = Csr::from_dense(&Tensor::zeros(&[0, 5]));
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.density(), 1.0);
    }

    #[test]
    fn csr_products_match_scalar_oracle() {
        use crate::linalg::{scalar_matmul_a_bt, scalar_matvec};
        let mut rng = Rng::new(3);
        for &(m, k, n) in &[(1usize, 8usize, 5usize), (4, 33, 17), (8, 64, 64)] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = sparse_tensor(n, k, 0.15, 100 + m as u64);
            let csr = Csr::from_dense(&b);
            let got = csr_matmul_a_bt(&a, &csr, m, k, n);
            assert_eq!(got, scalar_matmul_a_bt(&a, &b), "abt {m}x{k}x{n}");
        }
        let w = sparse_tensor(37, 19, 0.1, 7);
        let x = Tensor::rand_uniform(&[19], -1.0, 1.0, &mut rng);
        let got = csr_matvec(&Csr::from_dense(&w), &x, 37, 19);
        assert_eq!(got, scalar_matvec(&w, &x));
    }
}
