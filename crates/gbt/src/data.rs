//! Row-major feature matrix.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64` features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn new(data: Vec<f64>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { data, rows, cols }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    #[must_use]
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        let cols = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.as_ref().len(), cols, "ragged rows");
            data.extend_from_slice(r.as_ref());
        }
        Matrix { data, rows: rows.len(), cols }
    }

    /// Number of rows (samples).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(col < self.cols, "column out of range");
        self.data[row * self.cols + col]
    }

    /// The flat row-major buffer.
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning its flat row-major buffer — hot
    /// scoring loops recycle the allocation across batches.
    #[must_use]
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// A new matrix containing the given rows (duplicates allowed — this is
    /// how bootstrap resamples are materialized).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix { data, rows: indices.len(), cols: self.cols }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_get() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn select_rows_with_duplicates() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 2, 0]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[3.0]);
        assert_eq!(s.row(2), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }
}
