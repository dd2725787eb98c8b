//! Sparse LU factorization with partial pivoting, sized for MNA systems
//! of a few dozen unknowns.
//!
//! Values live in a dense row-major array. Beside them every row keeps a
//! bitset of its *structural* nonzeros: the entries written through
//! [`Matrix::add`] or [`Matrix::set`], plus the fill-in that elimination
//! creates. Every entry outside that pattern is exactly zero.
//! [`Matrix::solve_in_place`] is Gaussian elimination with partial
//! pivoting that visits only structural nonzeros:
//!
//! * the pivot search reads only the rows that hold column `k`;
//! * elimination updates only the rows that hold column `k`, and in them
//!   only the pivot row's nonzero columns;
//! * back-substitution sums only a row's nonzero terms.
//!
//! The subarray netlists (at most 40 unknowns) need about 200
//! multiply-adds per factorization, where the dense loops visit every
//! element of the upper triangle and every row below each pivot.
//!
//! # Bit-identical to dense elimination
//!
//! The arithmetic is that of dense LU, operation for operation, minus the
//! operations on a structural zero. The order is unchanged:
//!
//! * the pivot search compares the same candidates in ascending row
//!   order, and a later row wins only if it is strictly larger in
//!   magnitude. A zero never beats the running maximum, so skipping it
//!   cannot change the pivot, and the singular verdict reads the same
//!   maximum;
//! * each remaining update `a[r][c] −= f·a[k][c]` and `b[r] −= f·b[k]`
//!   runs for the same rows and in the same `k` order, with the same
//!   multiplier `f`;
//! * back-substitution subtracts the same nonzero terms in ascending
//!   column order and divides by the same pivot.
//!
//! A skipped operation is `x − f·0`. While every value stays finite, it
//! can change at most the sign of a zero, and a zero is never a pivot. So
//! every pivot, multiplier and right-hand-side value is the same bits as
//! in dense elimination. The running sum of a back-substitution row starts
//! from a right-hand side without negative zeros (an MNA right-hand side
//! is built by adding to `+0.0`), and subtracting a zero from a value that
//! is not `−0.0` leaves it unchanged. So every solution component is the
//! same bits as well.

/// Bits per bitset word.
const WORD: usize = u64::BITS as usize;

/// Smallest pivot magnitude accepted; a smaller one reports the matrix
/// singular.
const PIVOT_MIN: f64 = 1e-30;

/// A square matrix in row-major order that tracks its nonzero pattern.
#[derive(Debug)]
pub struct Matrix {
    n: usize,
    /// Bitset words per row (or column) pattern.
    words: usize,
    /// Values, row-major.
    a: Vec<f64>,
    /// Structural nonzeros: `words` words per row, row-major.
    rows: Vec<u64>,
    /// The same pattern transposed: `words` words per column.
    cols: Vec<u64>,
    /// Solver scratch: two bitsets of `words` words (the pivot row's
    /// columns and the rows to eliminate).
    scratch: Vec<u64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            n: self.n,
            words: self.words,
            a: self.a.clone(),
            rows: self.rows.clone(),
            cols: self.cols.clone(),
            scratch: self.scratch.clone(),
        }
    }

    /// Copies values and pattern, reusing this matrix's buffers.
    fn clone_from(&mut self, src: &Self) {
        self.n = src.n;
        self.words = src.words;
        self.a.clone_from(&src.a);
        self.rows.clone_from(&src.rows);
        self.cols.clone_from(&src.cols);
        self.scratch.resize(src.scratch.len(), 0);
    }
}

/// Matrices are equal when their values are; the pattern is bookkeeping.
impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.a == other.a
    }
}

impl Matrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        let words = n.div_ceil(WORD);
        Matrix {
            n,
            words,
            a: vec![0.0; n * n],
            rows: vec![0; n * words],
            cols: vec![0; n * words],
            scratch: vec![0; 2 * words],
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.n + c]
    }

    /// Element setter; the element joins the nonzero pattern.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.n + c] = v;
        self.reserve(r, c);
    }

    /// Adds `v` to element `(r, c)` — the stamping primitive; the element
    /// joins the nonzero pattern.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.n + c] += v;
        self.reserve(r, c);
    }

    /// Adds `v` to element `(r, c)`, which must already be in the nonzero
    /// pattern (see [`Matrix::reserve`]), without the pattern bookkeeping
    /// of [`Matrix::add`].
    #[inline]
    pub(crate) fn add_within(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(
            self.rows[r * self.words + c / WORD] & (1 << (c % WORD)) != 0,
            "({r}, {c}) is outside the pattern"
        );
        self.a[r * self.n + c] += v;
    }

    /// Adds element `(r, c)` to the nonzero pattern, leaving its value.
    #[inline]
    pub(crate) fn reserve(&mut self, r: usize, c: usize) {
        debug_assert!(c < self.n, "column {c} out of range");
        self.rows[r * self.words + c / WORD] |= 1 << (c % WORD);
        self.cols[c * self.words + r / WORD] |= 1 << (r % WORD);
    }

    /// Zeroes every element and empties the pattern.
    pub fn clear(&mut self) {
        self.a.fill(0.0);
        self.rows.fill(0);
        self.cols.fill(0);
    }

    /// Solves `A·x = b` in place (`b` becomes `x`) via LU with partial
    /// pivoting over the nonzero pattern (see the module docs). `A` is
    /// destroyed.
    ///
    /// Returns `false` if the matrix is numerically singular.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> bool {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        let w = self.words;
        let Matrix {
            a,
            rows,
            cols,
            scratch,
            ..
        } = self;
        let (pivot_cols, below) = scratch.split_at_mut(w);

        for k in 0..n {
            // Pivot: the first row of largest magnitude in column k.
            let mut p = k;
            let mut max = a[k * n + k].abs();
            for r in Ones::from(&cols[k * w..(k + 1) * w], k + 1) {
                let v = a[r * n + k].abs();
                if v > max {
                    max = v;
                    p = r;
                }
            }
            if max < PIVOT_MIN {
                return false;
            }
            if p != k {
                let (top, bottom) = a.split_at_mut(p * n);
                top[k * n..(k + 1) * n].swap_with_slice(&mut bottom[..n]);
                b.swap(k, p);
                // Swap the two rows in the column sets of every column
                // (from k on) where exactly one of them is nonzero.
                let differ = &mut *pivot_cols;
                for i in 0..w {
                    differ[i] = rows[k * w + i] ^ rows[p * w + i];
                    rows.swap(k * w + i, p * w + i);
                }
                let flip = [(k / WORD, 1 << (k % WORD)), (p / WORD, 1 << (p % WORD))];
                for c in Ones::from(differ, k) {
                    for (word, bit) in flip {
                        cols[c * w + word] ^= bit;
                    }
                }
            }

            // Eliminate column k from the rows below that hold it.
            for i in 0..w {
                pivot_cols[i] = rows[k * w + i] & above(k, i);
                below[i] = cols[k * w + i] & above(k, i);
            }
            let (top, bottom) = a.split_at_mut((k + 1) * n);
            let pivot_row = &top[k * n..];
            let pivot = pivot_row[k];
            for r in Ones::from(below, 0) {
                let row = &mut bottom[(r - k - 1) * n..(r - k) * n];
                let f = row[k] / pivot;
                if f == 0.0 {
                    continue;
                }
                for c in Ones::from(pivot_cols, 0) {
                    row[c] -= f * pivot_row[c];
                }
                b[r] -= f * b[k];
                // Fill-in: the pivot row's pattern joins row r's.
                let bit = 1 << (r % WORD);
                for i in 0..w {
                    let fill = pivot_cols[i] & !rows[r * w + i];
                    rows[r * w + i] |= fill;
                    for c in Ones::word(fill, i) {
                        cols[c * w + r / WORD] |= bit;
                    }
                }
            }
        }

        // Back substitution.
        for k in (0..n).rev() {
            let row = &a[k * n..(k + 1) * n];
            let mut s = b[k];
            for c in Ones::from(&rows[k * w..(k + 1) * w], k + 1) {
                s -= row[c] * b[c];
            }
            b[k] = s / row[k];
        }
        true
    }
}

/// Mask of word `i` keeping only bit indices greater than `k`.
#[inline]
fn above(k: usize, i: usize) -> u64 {
    let first = k + 1;
    match i.cmp(&(first / WORD)) {
        std::cmp::Ordering::Less => 0,
        std::cmp::Ordering::Equal => !0 << (first % WORD),
        std::cmp::Ordering::Greater => !0,
    }
}

/// Ascending indices of the set bits of a bitset.
struct Ones<'a> {
    rest: &'a [u64],
    base: usize,
    word: u64,
}

impl<'a> Ones<'a> {
    /// The set bits of `set` at index `from` or above.
    fn from(set: &'a [u64], from: usize) -> Self {
        let i = from / WORD;
        match set.get(i) {
            Some(&word) => Ones {
                rest: &set[i + 1..],
                base: i * WORD,
                word: word & (!0 << (from % WORD)),
            },
            None => Ones::word(0, 0),
        }
    }

    /// The set bits of `word`, which is word `i` of its bitset.
    fn word(word: u64, i: usize) -> Self {
        Ones {
            rest: &[],
            base: i * WORD,
            word,
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&next, rest) = self.rest.split_first()?;
            self.word = next;
            self.rest = rest;
            self.base += WORD;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut m = Matrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let mut b = vec![3.0, -1.0, 2.0];
        assert!(m.solve_in_place(&mut b));
        assert_eq!(b, vec![3.0, -1.0, 2.0]);
    }

    #[test]
    fn solves_general_system() {
        // [2 1; 1 3] x = [5; 10] → x = [1; 3].
        let mut m = Matrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 3.0);
        let mut b = vec![5.0, 10.0];
        assert!(m.solve_in_place(&mut b));
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut m = Matrix::zeros(2);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        let mut b = vec![2.0, 3.0];
        assert!(m.solve_in_place(&mut b));
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut m = Matrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 1.0);
        let mut b = vec![1.0, 2.0];
        assert!(!m.solve_in_place(&mut b));
    }

    #[test]
    fn stamping_accumulates() {
        let mut m = Matrix::zeros(1);
        m.add(0, 0, 2.0);
        m.add(0, 0, 3.0);
        assert_eq!(m.get(0, 0), 5.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn fill_in_crosses_bitset_words() {
        // An arrow matrix over two bitset words: row 0 and column 0 are
        // full, so eliminating column 0 fills every row out to column 69.
        let n = 70;
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m.set(i, i, 4.0);
            if i > 0 {
                m.set(0, i, 1.0);
                m.set(i, 0, 1.0);
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 30.0).collect();
        let mut b: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| m.get(i, j) * x_true[j]).sum())
            .collect();
        assert!(m.clone().solve_in_place(&mut b));
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn ones_walks_every_word() {
        let set = [1u64 << 63, 0, 0b101];
        assert_eq!(Ones::from(&set, 0).collect::<Vec<_>>(), vec![63, 128, 130]);
        assert_eq!(Ones::from(&set, 64).collect::<Vec<_>>(), vec![128, 130]);
        assert_eq!(Ones::from(&set, 129).collect::<Vec<_>>(), vec![130]);
        assert_eq!(Ones::from(&set, 192).count(), 0);
        assert_eq!(above(63, 0), 0);
        assert_eq!(above(63, 1), !0);
        assert_eq!(above(62, 0), 1 << 63);
    }
}
