//! Sparse matrix storage formats.
//!
//! Pruned neural networks sit in an awkward sparsity regime (80–95%):
//! too dense for scientific-computing sparse libraries (cuSPARSE targets
//! >99%), too sparse to ignore. This module provides the two formats the
//! > paper discusses — coordinate (COO, what SAMO stores model states in)
//! > and compressed sparse row (CSR, what spMM kernels like Sputnik's
//! > consume) — with validated invariants and conversions.

/// Coordinate-format sparse matrix with *linearized* 1-D indices.
///
/// Per paper Sec. III-B, indices of an N-dimensional tensor are stored
/// against a flattened 1-D view, which divides index memory by N. Indices
/// are `u32`: "32-bit is sufficient for storing the indices of even the
/// largest models in existence" (each layer is indexed separately).
#[derive(Clone, Debug, PartialEq)]
pub struct Coo {
    /// Dense shape of the matrix this represents.
    pub rows: usize,
    pub cols: usize,
    /// Sorted, strictly increasing linearized indices (`row * cols + col`).
    pub indices: Vec<u32>,
    /// Value for each index, same length as `indices`.
    pub values: Vec<f32>,
}

impl Coo {
    /// Builds a COO matrix from a dense buffer, keeping entries where
    /// `keep` returns true.
    pub fn from_dense_where<F: Fn(usize, f32) -> bool>(
        dense: &[f32],
        rows: usize,
        cols: usize,
        keep: F,
    ) -> Coo {
        assert_eq!(dense.len(), rows * cols);
        assert!(rows * cols <= u32::MAX as usize, "matrix too large for u32 indices");
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if keep(i, v) {
                indices.push(i as u32);
                values.push(v);
            }
        }
        Coo { rows, cols, indices, values }
    }

    /// Builds a COO matrix keeping all nonzero entries of `dense`.
    pub fn from_dense(dense: &[f32], rows: usize, cols: usize) -> Coo {
        Coo::from_dense_where(dense, rows, cols, |_, v| v != 0.0)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Fraction of entries that are *not* stored (the pruning fraction).
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Expands back to a dense row-major buffer, zero elsewhere.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }

    /// Validates the structural invariants; returns an error description
    /// if violated. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if self.indices.len() != self.values.len() {
            return Err(format!(
                "index/value length mismatch: {} vs {}",
                self.indices.len(),
                self.values.len()
            ));
        }
        let numel = self.rows * self.cols;
        let mut prev: Option<u32> = None;
        for &i in &self.indices {
            if (i as usize) >= numel {
                return Err(format!("index {i} out of bounds for {numel} elements"));
            }
            if let Some(p) = prev {
                if i <= p {
                    return Err(format!("indices not strictly increasing at {p} -> {i}"));
                }
            }
            prev = Some(i);
        }
        Ok(())
    }

    /// Converts to CSR.
    pub fn to_csr(&self) -> Csr {
        let mut row_ptr = vec![0u32; self.rows + 1];
        for &i in &self.indices {
            row_ptr[(i as usize / self.cols) + 1] += 1;
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx: Vec<u32> = self.indices.iter().map(|&i| i % self.cols as u32).collect();
        Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values: self.values.clone(),
        }
    }
}

/// Compressed-sparse-row matrix — the input format for spMM kernels.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    pub rows: usize,
    pub cols: usize,
    /// `rows + 1` offsets into `col_idx`/`values`.
    pub row_ptr: Vec<u32>,
    /// Column index of each stored entry; sorted within each row.
    pub col_idx: Vec<u32>,
    pub values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from a dense buffer, keeping nonzeros.
    pub fn from_dense(dense: &[f32], rows: usize, cols: usize) -> Csr {
        Coo::from_dense(dense, rows, cols).to_csr()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries not stored.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Entries `(col, value)` of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Expands to dense row-major.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                out[r * self.cols + c as usize] = v;
            }
        }
        out
    }

    /// Converts back to COO with linearized indices.
    pub fn to_coo(&self) -> Coo {
        let mut indices = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            for &c in &self.col_idx[lo..hi] {
                indices.push((r * self.cols) as u32 + c);
            }
        }
        Coo {
            rows: self.rows,
            cols: self.cols,
            indices,
            values: self.values.clone(),
        }
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.rows + 1 {
            return Err("row_ptr length must be rows + 1".into());
        }
        if self.row_ptr[0] != 0 {
            return Err("row_ptr[0] must be 0".into());
        }
        if *self.row_ptr.last().unwrap() as usize != self.values.len() {
            return Err("row_ptr must end at nnz".into());
        }
        if self.col_idx.len() != self.values.len() {
            return Err("col_idx/values length mismatch".into());
        }
        for r in 0..self.rows {
            if self.row_ptr[r] > self.row_ptr[r + 1] {
                return Err(format!("row_ptr not monotone at row {r}"));
            }
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            if hi > self.values.len() {
                return Err(format!("row_ptr[{r}+1]={hi} exceeds nnz {}", self.values.len()));
            }
            let cols = &self.col_idx[lo..hi];
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("columns not strictly increasing in row {r}"));
                }
            }
            if let Some(&last) = cols.last() {
                if last as usize >= self.cols {
                    return Err(format!("column {last} out of bounds in row {r}"));
                }
            }
        }
        Ok(())
    }
}

/// Generates a random `rows × cols` matrix with exactly
/// `round((1 - sparsity) * rows * cols)` nonzero entries at uniformly
/// random positions — the unstructured sparsity pattern the paper's
/// pruning algorithms produce (Gale et al. observe pruned-network
/// sparsity is close to unstructured uniform).
pub fn random_sparse(rows: usize, cols: usize, sparsity: f64, seed: u64) -> Coo {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    assert!((0.0..=1.0).contains(&sparsity));
    let numel = rows * cols;
    let nnz = ((1.0 - sparsity) * numel as f64).round() as usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut all: Vec<u32> = (0..numel as u32).collect();
    all.shuffle(&mut rng);
    let mut indices: Vec<u32> = all[..nnz].to_vec();
    indices.sort_unstable();
    let values: Vec<f32> = (0..nnz).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Coo { rows, cols, indices, values }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> (Vec<f32>, usize, usize) {
        // 3x4 with 5 nonzeros.
        let d = vec![
            1.0, 0.0, 0.0, 2.0, //
            0.0, 0.0, 0.0, 0.0, //
            3.0, 4.0, 0.0, 5.0,
        ];
        (d, 3, 4)
    }

    #[test]
    fn coo_from_to_dense_roundtrip() {
        let (d, r, c) = sample_dense();
        let coo = Coo::from_dense(&d, r, c);
        assert_eq!(coo.nnz(), 5);
        assert_eq!(coo.indices, vec![0, 3, 8, 9, 11]);
        coo.validate().unwrap();
        assert_eq!(coo.to_dense(), d);
    }

    #[test]
    fn coo_sparsity() {
        let (d, r, c) = sample_dense();
        let coo = Coo::from_dense(&d, r, c);
        assert!((coo.sparsity() - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn csr_roundtrips() {
        let (d, r, c) = sample_dense();
        let coo = Coo::from_dense(&d, r, c);
        let csr = coo.to_csr();
        csr.validate().unwrap();
        assert_eq!(csr.row_ptr, vec![0, 2, 2, 5]);
        assert_eq!(csr.col_idx, vec![0, 3, 0, 1, 3]);
        assert_eq!(csr.to_dense(), d);
        assert_eq!(csr.to_coo(), coo);
    }

    #[test]
    fn csr_row_iteration() {
        let (d, r, c) = sample_dense();
        let csr = Csr::from_dense(&d, r, c);
        let row0: Vec<(u32, f32)> = csr.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (3, 2.0)]);
        assert_eq!(csr.row(1).count(), 0);
        let row2: Vec<(u32, f32)> = csr.row(2).collect();
        assert_eq!(row2, vec![(0, 3.0), (1, 4.0), (3, 5.0)]);
    }

    #[test]
    fn empty_matrix() {
        let coo = Coo::from_dense(&[], 0, 4);
        assert_eq!(coo.nnz(), 0);
        coo.validate().unwrap();
        let csr = coo.to_csr();
        csr.validate().unwrap();
        assert_eq!(csr.row_ptr, vec![0]);
    }

    #[test]
    fn all_zero_matrix() {
        let d = vec![0.0f32; 12];
        let coo = Coo::from_dense(&d, 3, 4);
        assert_eq!(coo.nnz(), 0);
        assert_eq!(coo.sparsity(), 1.0);
        assert_eq!(coo.to_dense(), d);
    }

    #[test]
    fn validation_catches_corruption() {
        let (d, r, c) = sample_dense();
        let mut coo = Coo::from_dense(&d, r, c);
        coo.indices[1] = coo.indices[0]; // duplicate
        assert!(coo.validate().is_err());
        coo.indices[1] = 100; // out of bounds
        assert!(coo.validate().is_err());

        let mut csr = Csr::from_dense(&d, r, c);
        csr.row_ptr[1] = 10;
        assert!(csr.validate().is_err());
    }

    #[test]
    fn random_sparse_exact_nnz_and_valid() {
        let coo = random_sparse(32, 64, 0.9, 1);
        coo.validate().unwrap();
        let expect = ((0.1f64) * (32.0 * 64.0)).round() as usize;
        assert_eq!(coo.nnz(), expect);
        assert!((coo.sparsity() - 0.9).abs() < 0.01);
    }

    #[test]
    fn random_sparse_extremes() {
        let empty = random_sparse(8, 8, 1.0, 2);
        assert_eq!(empty.nnz(), 0);
        let full = random_sparse(8, 8, 0.0, 3);
        assert_eq!(full.nnz(), 64);
        full.validate().unwrap();
    }

    #[test]
    fn keep_predicate_selects_by_index() {
        let d = vec![1.0f32; 10];
        let coo = Coo::from_dense_where(&d, 2, 5, |i, _| i % 2 == 0);
        assert_eq!(coo.indices, vec![0, 2, 4, 6, 8]);
    }
}
