//! A dense, heap-allocated vector of `f64` values.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::ShapeError;

/// A dense vector of `f64` values.
///
/// `Vector` is the element type flowing between network layers, the value
/// type recorded by the runtime monitor, and the assignment type returned by
/// the LP/MILP solvers, so it implements the usual arithmetic operators plus
/// a set of reductions (`dot`, `norm`, `min`, `max`, `argmax`, ...).
///
/// ```
/// use dpv_tensor::Vector;
/// let v = Vector::from_slice(&[3.0, -1.0, 2.0]);
/// assert_eq!(v.len(), 3);
/// assert_eq!(v.max(), 3.0);
/// assert_eq!(v.argmax(), 0);
/// assert!((v.dot(&v) - 14.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` ones.
    pub fn ones(len: usize) -> Self {
        Self {
            data: vec![1.0; len],
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Creates a vector from a slice of values.
    pub fn from_slice(values: &[f64]) -> Self {
        Self {
            data: values.to_vec(),
        }
    }

    /// Creates a vector from an owned `Vec<f64>` without copying.
    pub fn from_vec(values: Vec<f64>) -> Self {
        Self { data: values }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying storage as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the underlying storage mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying `Vec<f64>`.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns an iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Returns a mutable iterator over the elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Returns the element at `index`, or `None` when out of bounds.
    pub fn get(&self, index: usize) -> Option<f64> {
        self.data.get(index).copied()
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot product requires equal lengths ({} vs {})",
            self.len(),
            other.len()
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Checked dot product returning a [`ShapeError`] on length mismatch.
    pub fn try_dot(&self, other: &Vector) -> Result<f64, ShapeError> {
        if self.len() != other.len() {
            return Err(ShapeError::new("dot", (self.len(), 1), (other.len(), 1)));
        }
        Ok(self.dot(other))
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// L1 norm (sum of absolute values).
    pub fn norm_l1(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// L∞ norm (maximum absolute value); zero for an empty vector.
    pub fn norm_linf(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean; zero for an empty vector.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Population variance; zero for an empty vector.
    pub fn variance(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        self.data
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.len() as f64
    }

    /// Smallest element.
    ///
    /// # Panics
    /// Panics when the vector is empty.
    pub fn min(&self) -> f64 {
        assert!(!self.is_empty(), "min of an empty vector");
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest element.
    ///
    /// # Panics
    /// Panics when the vector is empty.
    pub fn max(&self) -> f64 {
        assert!(!self.is_empty(), "max of an empty vector");
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Index of the largest element (first occurrence).
    ///
    /// # Panics
    /// Panics when the vector is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of an empty vector");
        let mut best = 0;
        for i in 1..self.len() {
            if self.data[i] > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Index of the smallest element (first occurrence).
    ///
    /// # Panics
    /// Panics when the vector is empty.
    pub fn argmin(&self) -> usize {
        assert!(!self.is_empty(), "argmin of an empty vector");
        let mut best = 0;
        for i in 1..self.len() {
            if self.data[i] < self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Element-wise application of `f`, producing a new vector.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Vector {
        Vector::from_vec(self.data.iter().map(|v| f(*v)).collect())
    }

    /// In-place element-wise application of `f`.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn hadamard(&self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "hadamard requires equal lengths");
        Vector::from_vec(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a * b)
                .collect(),
        )
    }

    /// Scales every element by `factor`, producing a new vector.
    pub fn scale(&self, factor: f64) -> Vector {
        self.map(|v| v * factor)
    }

    /// `self + factor * other`, the fused update used by the optimisers.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn axpy(&self, factor: f64, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "axpy requires equal lengths");
        Vector::from_vec(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + factor * b)
                .collect(),
        )
    }

    /// Concatenates two vectors.
    pub fn concat(&self, other: &Vector) -> Vector {
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Vector::from_vec(data)
    }

    /// Returns the sub-vector `[start, end)`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn slice(&self, start: usize, end: usize) -> Vector {
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        Vector::from_slice(&self.data[start..end])
    }

    /// Vector of differences between adjacent elements: `out[i] = self[i+1] - self[i]`.
    ///
    /// This is the `diff(n)` operation the paper relies on to monitor the
    /// minimum/maximum difference between adjacent neurons in a layer
    /// (Section V, footnote 8). Returns an empty vector when `len() < 2`.
    pub fn adjacent_differences(&self) -> Vector {
        if self.len() < 2 {
            return Vector::zeros(0);
        }
        Vector::from_vec(self.data.windows(2).map(|w| w[1] - w[0]).collect())
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Euclidean distance to another vector.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn distance(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "distance requires equal lengths");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, index: usize) -> &Self::Output {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut Self::Output {
        &mut self.data[index]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(value: Vec<f64>) -> Self {
        Vector::from_vec(value)
    }
}

impl From<Vector> for Vec<f64> {
    fn from(value: Vector) -> Self {
        value.into_vec()
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector::from_vec(iter.into_iter().collect())
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector addition length mismatch");
        Vector::from_vec(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, rhs: Vector) -> Vector {
        &self + &rhs
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector addition length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector subtraction length mismatch");
        Vector::from_vec(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, rhs: Vector) -> Vector {
        &self - &rhs
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector subtraction length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scale(rhs)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scale(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scale(-1.0)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn construction_and_len() {
        assert_eq!(Vector::zeros(3).len(), 3);
        assert_eq!(Vector::ones(2).as_slice(), &[1.0, 1.0]);
        assert_eq!(Vector::filled(2, 4.5).as_slice(), &[4.5, 4.5]);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_and_norms() {
        let a = Vector::from_slice(&[1.0, 2.0, 2.0]);
        let b = Vector::from_slice(&[2.0, 0.0, 1.0]);
        assert!(approx_eq(a.dot(&b), 4.0, 1e-12));
        assert!(approx_eq(a.norm(), 3.0, 1e-12));
        assert!(approx_eq(a.norm_l1(), 5.0, 1e-12));
        assert!(approx_eq(a.norm_linf(), 2.0, 1e-12));
    }

    #[test]
    fn try_dot_length_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(a.try_dot(&b).is_err());
    }

    #[test]
    fn reductions() {
        let v = Vector::from_slice(&[-1.0, 4.0, 2.0, 4.0]);
        assert_eq!(v.min(), -1.0);
        assert_eq!(v.max(), 4.0);
        assert_eq!(v.argmax(), 1);
        assert_eq!(v.argmin(), 0);
        assert!(approx_eq(v.sum(), 9.0, 1e-12));
        assert!(approx_eq(v.mean(), 2.25, 1e-12));
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let v = Vector::filled(5, 3.0);
        assert!(approx_eq(v.variance(), 0.0, 1e-12));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, -1.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 1.0]);
        assert_eq!((&a - &b).as_slice(), &[-2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 1.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn hadamard_and_axpy() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, -1.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[3.0, -2.0]);
        assert_eq!(a.axpy(2.0, &b).as_slice(), &[7.0, 0.0]);
    }

    #[test]
    fn adjacent_differences_matches_paper_diff() {
        let v = Vector::from_slice(&[0.0, 0.1, -0.1, 0.6]);
        let d = v.adjacent_differences();
        assert!(crate::approx_eq_slice(
            d.as_slice(),
            &[0.1, -0.2, 0.7],
            1e-12
        ));
        assert_eq!(Vector::from_slice(&[1.0]).adjacent_differences().len(), 0);
    }

    #[test]
    fn concat_slice_distance() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0]);
        let c = a.concat(&b);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.slice(1, 3).as_slice(), &[2.0, 3.0]);
        assert!(approx_eq(
            Vector::from_slice(&[0.0, 0.0]).distance(&Vector::from_slice(&[3.0, 4.0])),
            5.0,
            1e-12
        ));
    }

    #[test]
    fn map_and_non_finite_detection() {
        let v = Vector::from_slice(&[1.0, -2.0]);
        assert_eq!(v.map(f64::abs).as_slice(), &[1.0, 2.0]);
        assert!(!v.has_non_finite());
        let mut w = v.clone();
        w[0] = f64::NAN;
        assert!(w.has_non_finite());
    }

    #[test]
    fn display_formats_elements() {
        let v = Vector::from_slice(&[1.0, 2.5]);
        assert_eq!(format!("{v}"), "[1.0000, 2.5000]");
    }

    #[test]
    #[should_panic(expected = "dot product requires equal lengths")]
    fn dot_panics_on_length_mismatch() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }
}
