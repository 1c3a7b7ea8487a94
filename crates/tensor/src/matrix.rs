//! A dense, row-major matrix of `f64` values.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::{ShapeError, Vector};

/// A dense row-major matrix of `f64` values.
///
/// `Matrix` is used for layer weight matrices, batches of activation
/// vectors, convolution kernels flattened to 2-D, and LP tableaux.
///
/// ```
/// use dpv_tensor::{Matrix, Vector};
/// let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
/// let v = Vector::from_slice(&[3.0, 4.0]);
/// assert_eq!(m.matvec(&v).as_slice(), &[3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows` × `cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows` × `cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n` × `n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row vectors. All rows must have equal length.
    ///
    /// # Errors
    /// Returns a [`ShapeError`] when the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, ShapeError> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(ShapeError::new("from_rows", (i, r.len()), (0, cols)));
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns a [`ShapeError`] when `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_flat", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix whose columns are the given vectors — the
    /// feature-major layout of a frame batch (`rows` = vector dimension,
    /// `cols` = number of vectors), where each *feature* ends up contiguous
    /// across frames so batch kernels can sweep it as one SIMD-friendly
    /// slice. All vectors must have equal length.
    ///
    /// # Errors
    /// Returns a [`ShapeError`] when the vectors have differing lengths.
    pub fn from_columns(columns: &[Vector]) -> Result<Self, ShapeError> {
        if columns.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let rows = columns[0].len();
        for (i, v) in columns.iter().enumerate() {
            if v.len() != rows {
                return Err(ShapeError::new("from_columns", (i, v.len()), (rows, 1)));
            }
        }
        let cols = columns.len();
        let mut data = vec![0.0; rows * cols];
        for (c, v) in columns.iter().enumerate() {
            for (r, &value) in v.as_slice().iter().enumerate() {
                data[r * cols + c] = value;
            }
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the flat row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the flat row-major storage mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    /// Panics when `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably as a slice.
    ///
    /// # Panics
    /// Panics when `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies row `r` into a [`Vector`].
    pub fn row_vector(&self, r: usize) -> Vector {
        Vector::from_slice(self.row(r))
    }

    /// Copies column `c` into a [`Vector`].
    ///
    /// # Panics
    /// Panics when `c` is out of bounds.
    pub fn col_vector(&self, c: usize) -> Vector {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        Vector::from_vec((0..self.rows).map(|r| self[(r, c)]).collect())
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    /// Panics when `x.len() != self.cols()`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec dimension mismatch: {}x{} * {}",
            self.rows,
            self.cols,
            x.len()
        );
        let xs = x.as_slice();
        let mut out = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(xs.iter()) {
                acc += a * b;
            }
            out.push(acc);
        }
        Vector::from_vec(out)
    }

    /// Transposed matrix–vector product `selfᵀ * x` (without materialising the transpose).
    ///
    /// # Panics
    /// Panics when `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_transposed dimension mismatch: ({}x{})^T * {}",
            self.rows,
            self.cols,
            x.len()
        );
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = self.row(r);
            let factor = x[r];
            if factor == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(row.iter()) {
                *o += factor * a;
            }
        }
        Vector::from_vec(out)
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// # Errors
    /// Returns a [`ShapeError`] when `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError::new("matmul", self.shape(), other.shape()));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Outer product of two vectors: `a * bᵀ`.
    pub fn outer(a: &Vector, b: &Vector) -> Matrix {
        let mut out = Matrix::zeros(a.len(), b.len());
        for i in 0..a.len() {
            for j in 0..b.len() {
                out[(i, j)] = a[i] * b[j];
            }
        }
        out
    }

    /// Element-wise application of `f`, producing a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| f(*v)).collect(),
        }
    }

    /// Scales all elements by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        self.map(|v| v * factor)
    }

    /// In-place fused update `self += factor * other`, used by the optimisers.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn add_scaled(&mut self, factor: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += factor * b;
        }
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Returns `true` when any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Appends `other` below `self`.
    ///
    /// # Errors
    /// Returns a [`ShapeError`] when the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.cols {
            return Err(ShapeError::new("vstack", self.shape(), other.shape()));
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Solves the linear system `self * x = b` via Gaussian elimination with
    /// partial pivoting.
    ///
    /// # Errors
    /// Returns an error string when the matrix is not square, the dimensions
    /// mismatch, or the matrix is (numerically) singular.
    pub fn solve(&self, b: &Vector) -> Result<Vector, String> {
        if self.rows != self.cols {
            return Err(format!(
                "solve requires a square matrix, got {}x{}",
                self.rows, self.cols
            ));
        }
        if b.len() != self.rows {
            return Err(format!(
                "solve dimension mismatch: matrix {}x{}, rhs {}",
                self.rows,
                self.cols,
                b.len()
            ));
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut x = b.clone();
        for col in 0..n {
            // Partial pivoting.
            let mut pivot = col;
            for r in (col + 1)..n {
                if a[(r, col)].abs() > a[(pivot, col)].abs() {
                    pivot = r;
                }
            }
            if a[(pivot, col)].abs() < 1e-12 {
                return Err("matrix is singular".to_string());
            }
            if pivot != col {
                for c in 0..n {
                    let tmp = a[(col, c)];
                    a[(col, c)] = a[(pivot, c)];
                    a[(pivot, c)] = tmp;
                }
                let tmp = x[col];
                x[col] = x[pivot];
                x[pivot] = tmp;
            }
            for r in (col + 1)..n {
                let factor = a[(r, col)] / a[(col, col)];
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    let v = a[(col, c)];
                    a[(r, c)] -= factor * v;
                }
                let v = x[col];
                x[r] -= factor * v;
            }
        }
        // Back substitution.
        let mut out = Vector::zeros(n);
        for r in (0..n).rev() {
            let mut acc = x[r];
            for c in (r + 1)..n {
                acc -= a[(r, c)] * out[c];
            }
            out[r] = acc / a[(r, r)];
        }
        Ok(out)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:8.4} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &Self::Output {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Self::Output {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, approx_eq_slice};

    #[test]
    fn construction_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(Matrix::identity(3)[(1, 1)], 1.0);
        assert_eq!(Matrix::identity(3)[(0, 1)], 0.0);
        assert_eq!(Matrix::filled(2, 2, 7.0)[(1, 0)], 7.0);
    }

    #[test]
    fn from_rows_validates_lengths() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_flat_validates_size() {
        assert!(Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(0, 1)], 2.0);
    }

    #[test]
    fn from_columns_packs_feature_major() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
        let m = Matrix::from_columns(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(m.shape(), (3, 2));
        // Each feature row is contiguous over the frames.
        assert_eq!(m.row(0), &[1.0, 4.0]);
        assert_eq!(m.row(2), &[3.0, 6.0]);
        // Columns round-trip to the original vectors.
        assert_eq!(m.col_vector(0), a);
        assert_eq!(m.col_vector(1), b);
        assert!(Matrix::from_columns(&[Vector::zeros(2), Vector::zeros(3)]).is_err());
        assert_eq!(Matrix::from_columns(&[]).unwrap().shape(), (0, 0));
    }

    #[test]
    fn matvec_and_transposed() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let x = Vector::from_slice(&[1.0, 0.0, -1.0]);
        assert!(approx_eq_slice(
            m.matvec(&x).as_slice(),
            &[-2.0, -2.0],
            1e-12
        ));
        let y = Vector::from_slice(&[1.0, 1.0]);
        assert!(approx_eq_slice(
            m.matvec_transposed(&y).as_slice(),
            &[5.0, 7.0, 9.0],
            1e-12
        ));
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]).unwrap()
        );
        assert_eq!(a.transpose()[(0, 1)], 3.0);
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matmul_agrees_with_matvec() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0, 0.5], vec![0.0, 3.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![2.0], vec![1.0], vec![-1.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let v = a.matvec(&Vector::from_slice(&[2.0, 1.0, -1.0]));
        assert!(approx_eq(c[(0, 0)], v[0], 1e-12));
        assert!(approx_eq(c[(1, 0)], v[1], 1e-12));
    }

    #[test]
    fn outer_product() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 4.0, 5.0]);
        let m = Matrix::outer(&a, &b);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 10.0);
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.row_vector(0).as_slice(), &[1.0, 2.0]);
        assert_eq!(m.col_vector(1).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn add_sub_scale_norm() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 1.0);
        assert_eq!((&a + &b)[(0, 0)], 2.0);
        assert_eq!((&a - &b)[(0, 1)], -1.0);
        assert_eq!((&a * 3.0)[(1, 1)], 3.0);
        assert!(approx_eq(b.frobenius_norm(), 2.0, 1e-12));
        assert!(approx_eq(b.sum(), 4.0, 1e-12));
    }

    #[test]
    fn add_scaled_updates_in_place() {
        let mut a = Matrix::zeros(2, 2);
        let g = Matrix::filled(2, 2, 2.0);
        a.add_scaled(-0.5, &g);
        assert_eq!(a[(0, 0)], -1.0);
    }

    #[test]
    fn vstack_checks_columns() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(1, 2, 5.0);
        let s = a.vstack(&b).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s[(2, 0)], 5.0);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn solve_linear_system() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let b = Vector::from_slice(&[3.0, 5.0]);
        let x = a.solve(&b).unwrap();
        let back = a.matvec(&x);
        assert!(approx_eq_slice(back.as_slice(), b.as_slice(), 1e-9));
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(a.solve(&Vector::from_slice(&[1.0, 2.0])).is_err());
        assert!(Matrix::zeros(2, 3).solve(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Matrix::zeros(1, 2);
        assert!(!m.has_non_finite());
        m[(0, 1)] = f64::INFINITY;
        assert!(m.has_non_finite());
    }
}
