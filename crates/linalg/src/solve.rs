//! Linear solvers: Cholesky for SPD systems, LU with partial pivoting for
//! general square systems.
//!
//! Ridge systems `(XᵀX + αE) φ = Xᵀy` are symmetric positive definite for
//! any `α > 0`, so Cholesky is the default path in the workspace; LU exists
//! as the general fallback (and for explicit inverses in tests).

use crate::matrix::Matrix;
use crate::EPS;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// Returns `None` when `A` is not (numerically) positive definite.
pub fn cholesky(a: &Matrix) -> Option<Matrix> {
    let mut l = Matrix::zeros(a.rows(), a.rows());
    factor_shifted(a, 0.0, &mut l).then_some(l)
}

/// Writes the Cholesky factor of `a + shift·E` into the lower triangle
/// (diagonal included) of `l`, leaving its upper triangle untouched.
/// Returns `false` when the shifted matrix is not (numerically) positive
/// definite. A shift of zero factors `a` itself.
///
/// Row-slice form of the textbook recurrence: entry `(i, j)` subtracts
/// `l[i][k]·l[j][k]` for `k = 0, 1, …, j − 1` in that order.
fn factor_shifted(a: &Matrix, shift: f64, l: &mut Matrix) -> bool {
    assert_eq!(a.rows(), a.cols(), "cholesky requires a square matrix");
    let n = a.rows();
    assert_eq!((l.rows(), l.cols()), (n, n), "factor must match the system");
    let l = l.as_mut_slice();
    for i in 0..n {
        let (done, rest) = l.split_at_mut(i * n);
        let li = &mut rest[..n];
        let ai = a.row(i);
        for j in 0..i {
            let lj = &done[j * n..(j + 1) * n];
            let mut sum = ai[j];
            for (p, q) in li[..j].iter().zip(&lj[..j]) {
                sum -= p * q;
            }
            li[j] = sum / lj[j];
        }
        let mut sum = ai[i];
        if shift > 0.0 {
            sum += shift;
        }
        for p in &li[..i] {
            sum -= p * p;
        }
        if sum <= 0.0 || !sum.is_finite() {
            return false;
        }
        li[i] = sum.sqrt();
    }
    true
}

/// Solves the SPD system `A x = b` via Cholesky.
///
/// Returns `None` when `A` is not positive definite (callers typically add a
/// ridge shift and retry; see [`solve_spd_regularized`]).
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let l = cholesky(a)?;
    Some(cholesky_solve(&l, b))
}

/// Solves `A x = b` given the precomputed Cholesky factor `L` of `A`.
pub fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; l.rows()];
    cholesky_solve_into(l, b, &mut x);
    x
}

/// [`cholesky_solve`] into `x`: forward substitution `L z = b` leaves `z`
/// in `x`, back substitution `Lᵀ x = z` then overwrites it in place. Only
/// the lower triangle of `l` is read.
fn cholesky_solve_into(l: &Matrix, b: &[f64], x: &mut [f64]) {
    let n = l.rows();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    x.copy_from_slice(b);
    for i in 0..n {
        let li = l.row(i);
        let mut sum = x[i];
        for (p, q) in li[..i].iter().zip(&x[..i]) {
            sum -= p * q;
        }
        x[i] = sum / li[i];
    }
    let l = l.as_slice();
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
}

/// Solves an SPD system that may be only semidefinite by escalating a
/// diagonal shift until Cholesky succeeds.
///
/// The IIM learning phase hits rank-deficient Gram matrices whenever a tuple
/// has fewer distinct neighbors than attributes (e.g. tiny ℓ); the paper's
/// ridge term makes the system definite, but with the paper-faithful default
/// `α = 1e-6` extreme data scales can still defeat it numerically. The shift
/// sequence is `α, 10α, …` capped at `1e6` relative to the mean diagonal.
/// Returns `None` when every shift fails, which requires non-finite input
/// or a system that overflows.
pub fn solve_spd_regularized(a: &Matrix, b: &[f64], alpha0: f64) -> Option<Vec<f64>> {
    let n = a.rows();
    let mut factor = Matrix::zeros(n, n);
    let mut x = vec![0.0; n];
    solve_spd_regularized_into(a, b, alpha0, &mut factor, &mut x).then_some(x)
}

/// [`solve_spd_regularized`] in caller-owned buffers: `factor` (`n × n`)
/// is the Cholesky workspace and `x` (`n`) receives the solution. Performs
/// no allocation, and the same floating-point operations in the same order
/// as the allocating form, so both return the same bits. Returns `false`
/// where that form returns `None` (`x` is then unspecified).
pub fn solve_spd_regularized_into(
    a: &Matrix,
    b: &[f64],
    alpha0: f64,
    factor: &mut Matrix,
    x: &mut [f64],
) -> bool {
    let n = a.rows();
    let mean_diag = (0..n).map(|i| a[(i, i)].abs()).sum::<f64>().max(EPS) / n as f64;
    let mut shift = alpha0.max(0.0);
    for _ in 0..40 {
        if factor_shifted(a, shift, factor) {
            cholesky_solve_into(factor, b, x);
            if x.iter().all(|v| v.is_finite()) {
                return true;
            }
        }
        shift = if shift == 0.0 {
            EPS * mean_diag
        } else {
            shift * 10.0
        };
        if shift > 1e6 * mean_diag {
            break;
        }
    }
    false
}

/// [`solve_spd_regularized_into`] at a compile-time width `M`, for the
/// small systems the adaptive sweep solves by the hundred per tuple.
///
/// Only the lower triangle and the diagonal of `a` are read (the upper
/// triangle may hold anything). The Cholesky factor and the two
/// triangular solves run the same textbook recurrences in the same
/// order, the shift escalates from `alpha0` through `EPS · mean_diag`
/// exactly as there, and a system no shift solves fails the same way, so
/// both forms return the same bits; the fixed width lets the loops unroll
/// over stack arrays. Returns `false` where that form does (`x` is then
/// unspecified).
pub fn solve_spd_regularized_fixed<const M: usize>(
    a: &[[f64; M]; M],
    b: &[f64; M],
    alpha0: f64,
    x: &mut [f64; M],
) -> bool {
    let mean_diag = (0..M).map(|i| a[i][i].abs()).sum::<f64>().max(EPS) / M as f64;
    let mut l = [[0.0f64; M]; M];
    let mut shift = alpha0.max(0.0);
    for _ in 0..40 {
        if factor_shifted_fixed(a, shift, &mut l) {
            cholesky_solve_fixed(&l, b, x);
            if x.iter().all(|v| v.is_finite()) {
                return true;
            }
        }
        shift = if shift == 0.0 {
            EPS * mean_diag
        } else {
            shift * 10.0
        };
        if shift > 1e6 * mean_diag {
            break;
        }
    }
    false
}

/// [`factor_shifted`] over arrays: the lower triangle of `l` receives the
/// factor of `a + shift·E`, read from `a`'s lower triangle.
#[inline(always)]
fn factor_shifted_fixed<const M: usize>(
    a: &[[f64; M]; M],
    shift: f64,
    l: &mut [[f64; M]; M],
) -> bool {
    for i in 0..M {
        for j in 0..i {
            let mut sum = a[i][j];
            for k in 0..j {
                sum -= l[i][k] * l[j][k];
            }
            l[i][j] = sum / l[j][j];
        }
        let mut sum = a[i][i];
        if shift > 0.0 {
            sum += shift;
        }
        for k in 0..i {
            sum -= l[i][k] * l[i][k];
        }
        if sum <= 0.0 || !sum.is_finite() {
            return false;
        }
        l[i][i] = sum.sqrt();
    }
    true
}

/// [`cholesky_solve_into`] over arrays.
#[inline(always)]
fn cholesky_solve_fixed<const M: usize>(l: &[[f64; M]; M], b: &[f64; M], x: &mut [f64; M]) {
    *x = *b;
    for i in 0..M {
        let mut sum = x[i];
        for k in 0..i {
            sum -= l[i][k] * x[k];
        }
        x[i] = sum / l[i][i];
    }
    for i in (0..M).rev() {
        let mut sum = x[i];
        for k in i + 1..M {
            sum -= l[k][i] * x[k];
        }
        x[i] = sum / l[i][i];
    }
}

/// LU factorization with partial pivoting: `P A = L U`.
///
/// `L` has an implicit unit diagonal; both factors are packed into one
/// matrix. `perm[i]` records the source row of pivoted row `i`.
pub struct LuFactors {
    lu: Matrix,
    perm: Vec<usize>,
    /// Sign of the permutation, exposed for determinant computation.
    sign: f64,
}

impl LuFactors {
    /// Factorizes `a`. Returns `None` when a pivot collapses (singular).
    pub fn new(a: &Matrix) -> Option<Self> {
        assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for col in 0..n {
            // Pivot search.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in col + 1..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < EPS || !pivot_val.is_finite() {
                return None;
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = lu[(col, j)];
                    lu[(col, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(col, pivot_row);
                sign = -sign;
            }
            // Eliminate below the pivot.
            let inv = 1.0 / lu[(col, col)];
            for r in col + 1..n {
                let factor = lu[(r, col)] * inv;
                lu[(r, col)] = factor;
                if factor != 0.0 {
                    for j in col + 1..n {
                        let upper = lu[(col, j)];
                        lu[(r, j)] -= factor * upper;
                    }
                }
            }
        }
        Some(Self { lu, perm, sign })
    }

    /// Reassembles factors from raw parts (the snapshot decode path).
    /// The parts must come from [`LuFactors::parts`] — no validation is
    /// performed beyond the square-shape and permutation-length checks.
    pub fn from_parts(lu: Matrix, perm: Vec<usize>, sign: f64) -> Self {
        assert_eq!(lu.rows(), lu.cols(), "LU factors must be square");
        assert_eq!(perm.len(), lu.rows(), "one permutation entry per row");
        Self { lu, perm, sign }
    }

    /// The packed factors, permutation, and sign (the snapshot encode
    /// path; inverse of [`LuFactors::from_parts`]).
    pub fn parts(&self) -> (&Matrix, &[usize], f64) {
        (&self.lu, &self.perm, self.sign)
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n);
        // Apply permutation, then forward substitution with unit-lower L.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in i + 1..n {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        x
    }

    /// Explicit inverse of the factorized matrix (column-by-column solve).
    pub fn inverse(&self) -> Matrix {
        let n = self.lu.rows();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for col in 0..n {
            e[col] = 1.0;
            let x = self.solve(&e);
            for row in 0..n {
                inv[(row, col)] = x[row];
            }
            e[col] = 0.0;
        }
        inv
    }

    /// Determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        let mut d = self.sign;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for a fixed B, guaranteed SPD.
        let b = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0], &[2.0, 0.0, 1.0]]);
        let mut a = b.gram();
        a.add_diag(1.0);
        a
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = cholesky(&a).expect("SPD");
        let rec = l.matmul(&l.transpose());
        assert!(rec.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn solve_spd_matches_direct() {
        let a = spd3();
        let b = vec![1.0, -2.0, 3.0];
        let x = solve_spd(&a, &b).expect("SPD");
        let back = a.matvec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn regularized_handles_semidefinite() {
        // Rank-1 Gram matrix: plain Cholesky fails, regularized succeeds.
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let g = x.gram();
        assert!(cholesky(&g).is_none());
        let sol = solve_spd_regularized(&g, &[1.0, 2.0], 1e-6).expect("regularized");
        assert!(sol.iter().all(|v| v.is_finite()));
    }

    /// The textbook index-form Cholesky solve the slice kernels restate.
    fn textbook_solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[(i, i)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * z[k];
            }
            z[i] = sum / l[(i, i)];
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Some(x)
    }

    #[test]
    fn slice_kernels_match_the_textbook_form_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 * 10.0 - 5.0
        };
        for n in 1..=9 {
            let rows: Vec<Vec<f64>> = (0..n + 2)
                .map(|_| (0..n).map(|_| next()).collect())
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let mut a = Matrix::from_rows(&refs).gram();
            a.add_diag(0.5);
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let want = bits(&textbook_solve(&a, &b).expect("SPD"));
            assert_eq!(bits(&solve_spd(&a, &b).unwrap()), want, "n={n}");
            // Dirty buffers never leak into the in-place form.
            let mut factor = Matrix::from_vec(n, n, vec![7.5; n * n]);
            let mut x = vec![f64::NAN; n];
            assert!(solve_spd_regularized_into(&a, &b, 0.0, &mut factor, &mut x));
            assert_eq!(bits(&x), want, "n={n}");
            // The fixed-width twin, unshifted and through the escalation.
            assert_eq!(bits(&fixed_solve(&a, &b, 0.0).unwrap()), want, "n={n}");
            let semidefinite = Matrix::from_rows(&refs[..1]).gram();
            assert_eq!(
                fixed_solve(&semidefinite, &b, 0.0).map(|x| bits(&x)),
                solve_spd_regularized(&semidefinite, &b, 0.0).map(|x| bits(&x)),
                "n={n}"
            );
        }
        // An overflowing system fails every shift rather than returning
        // non-finite coefficients, in both forms.
        let overflow = Matrix::from_rows(&[&[f64::INFINITY, 0.0], &[0.0, 1.0]]);
        assert!(solve_spd_regularized(&overflow, &[1.0, 1.0], 1e-6).is_none());
        assert!(fixed_solve(&overflow, &[1.0, 1.0], 1e-6).is_none());
        let huge = Matrix::from_rows(&[&[1e300, 1e300], &[1e300, 1e300]]).gram();
        assert!(solve_spd_regularized(&huge, &[1.0, 1.0], 1e-6).is_none());
        assert!(fixed_solve(&huge, &[1.0, 1.0], 1e-6).is_none());
    }

    /// [`solve_spd_regularized_fixed`] on `a`'s lower triangle, with NaN
    /// in the upper triangle to show it is never read.
    fn fixed_solve(a: &Matrix, b: &[f64], alpha: f64) -> Option<Vec<f64>> {
        fn at<const M: usize>(a: &Matrix, b: &[f64], alpha: f64) -> Option<Vec<f64>> {
            let lower = std::array::from_fn(|i| {
                std::array::from_fn(|j| if j <= i { a[(i, j)] } else { f64::NAN })
            });
            let mut x = [f64::NAN; M];
            let b = b.try_into().expect("one entry per row");
            solve_spd_regularized_fixed::<M>(&lower, b, alpha, &mut x).then(|| x.to_vec())
        }
        match a.rows() {
            1 => at::<1>(a, b, alpha),
            2 => at::<2>(a, b, alpha),
            3 => at::<3>(a, b, alpha),
            4 => at::<4>(a, b, alpha),
            5 => at::<5>(a, b, alpha),
            6 => at::<6>(a, b, alpha),
            7 => at::<7>(a, b, alpha),
            8 => at::<8>(a, b, alpha),
            9 => at::<9>(a, b, alpha),
            n => panic!("no fixed width {n}"),
        }
    }

    #[test]
    fn lu_solves_general_system() {
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, -1.0, 0.0], &[3.0, 0.0, -2.0]]);
        let lu = LuFactors::new(&a).expect("nonsingular");
        let b = vec![3.0, 1.0, 2.0];
        let x = lu.solve(&b);
        let back = a.matvec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn lu_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(LuFactors::new(&a).is_none());
    }

    #[test]
    fn lu_inverse_and_det() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let lu = LuFactors::new(&a).expect("nonsingular");
        assert!((lu.det() - 10.0).abs() < 1e-9);
        let inv = lu.inverse();
        let id = a.matmul(&inv);
        assert!(id.max_abs_diff(&Matrix::identity(2)) < 1e-9);
    }

    #[test]
    fn lu_pivoting_keeps_accuracy() {
        // Requires row exchange on the first column.
        let a = Matrix::from_rows(&[&[1e-14, 1.0], &[1.0, 1.0]]);
        let lu = LuFactors::new(&a).expect("nonsingular");
        let x = lu.solve(&[1.0, 2.0]);
        let back = a.matvec(&x);
        assert!((back[0] - 1.0).abs() < 1e-8);
        assert!((back[1] - 2.0).abs() < 1e-8);
    }
}
