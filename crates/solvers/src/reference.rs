//! The **pre-optimization** Gaussian process, frozen verbatim.
//!
//! This is the `Gp` implementation as it stood before the incremental
//! hot-path rework: dense kernel matrix via [`Matrix::from_fn`] (all n²
//! kernel evaluations), `Vec<Vec<f64>>` input storage, O(n³) refit per
//! call, and allocating per-candidate prediction. It is kept runnable
//! because the equivalence suite proves the optimized [`crate::Gp`] path
//! is bit-identical to this one (same proposals, same campaign
//! fingerprints).
//!
//! Do not "improve" this module — its value is being frozen.

use crate::gp::RbfKernel;
use crate::linalg::{mean, std_dev, Matrix, NotPositiveDefinite};

/// The pre-optimization fitted Gaussian process.
#[derive(Debug, Clone)]
pub struct RefGp {
    kernel: RbfKernel,
    x: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    chol: Matrix,
    y_mean: f64,
    y_scale: f64,
    log_marginal: f64,
}

impl RefGp {
    /// Fit to inputs `x` (unit box) and targets `y`. Targets are
    /// standardized internally.
    pub fn fit(x: &[Vec<f64>], y: &[f64], kernel: RbfKernel) -> Result<RefGp, NotPositiveDefinite> {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "GP needs at least one observation");
        let n = x.len();
        let y_mean = mean(y);
        let y_scale = {
            let s = std_dev(y);
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        };
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_scale).collect();

        let k = Matrix::from_fn(n, n, |r, c| {
            kernel.eval(&x[r], &x[c]) + if r == c { kernel.noise_variance } else { 0.0 }
        });
        let chol = k.cholesky()?;
        let alpha = chol.solve_lower_transpose(&chol.solve_lower(&ys));

        // log p(y|X) = -1/2 yᵀα - 1/2 log|K| - n/2 log 2π  (standardized y)
        let fit_term: f64 = -0.5 * ys.iter().zip(&alpha).map(|(a, b)| a * b).sum::<f64>();
        let log_marginal = fit_term
            - 0.5 * chol.log_det_from_cholesky()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

        Ok(RefGp { kernel, x: x.to_vec(), alpha, chol, y_mean, y_scale, log_marginal })
    }

    /// Fit with a small ML-II grid search over the lengthscale.
    pub fn fit_auto(x: &[Vec<f64>], y: &[f64]) -> Result<RefGp, NotPositiveDefinite> {
        let mut best: Option<RefGp> = None;
        for &l in &crate::gp::FIT_AUTO_LENGTHSCALES {
            let k = RbfKernel { lengthscale: l, ..RbfKernel::default() };
            if let Ok(gp) = RefGp::fit(x, y, k) {
                if best.as_ref().is_none_or(|b| gp.log_marginal > b.log_marginal) {
                    best = Some(gp);
                }
            }
        }
        best.ok_or(NotPositiveDefinite)
    }

    /// Posterior mean and variance at `q` (de-standardized).
    pub fn predict(&self, q: &[f64]) -> (f64, f64) {
        let ks: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(xi, q)).collect();
        let mu_std: f64 = ks.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        let v = self.chol.solve_lower(&ks);
        let var_std = (self.kernel.eval(q, q) + self.kernel.noise_variance
            - v.iter().map(|x| x * x).sum::<f64>())
        .max(1e-12);
        (mu_std * self.y_scale + self.y_mean, var_std * self.y_scale * self.y_scale)
    }

    /// Model evidence of the fit (standardized space).
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal
    }

    /// Expected improvement at `q` for minimization against `best_y`.
    pub fn expected_improvement(&self, q: &[f64], best_y: f64) -> f64 {
        let (mu, var) = self.predict(q);
        let sigma = var.sqrt();
        if sigma < 1e-12 {
            return (best_y - mu).max(0.0);
        }
        let z = (best_y - mu) / sigma;
        let (pdf, cdf) = crate::gp::normal_pdf_cdf(z);
        ((best_y - mu) * cdf + sigma * pdf).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gp;

    #[test]
    fn reference_gp_matches_optimized_gp_bitwise() {
        let xs: Vec<Vec<f64>> =
            (0..24).map(|i| vec![(i % 6) as f64 / 5.0, (i / 6) as f64 / 3.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2)).collect();
        let old = RefGp::fit_auto(&xs, &ys).unwrap();
        let new = Gp::fit_auto(&xs, &ys).unwrap();
        assert_eq!(
            old.log_marginal_likelihood().to_bits(),
            new.log_marginal_likelihood().to_bits()
        );
        let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        for q in [[0.1, 0.2], [0.31, 0.69], [0.9, 0.05]] {
            let (m1, v1) = old.predict(&q);
            let (m2, v2) = new.predict(&q);
            assert_eq!(m1.to_bits(), m2.to_bits());
            assert_eq!(v1.to_bits(), v2.to_bits());
            assert_eq!(
                old.expected_improvement(&q, best).to_bits(),
                new.expected_improvement(&q, best).to_bits()
            );
        }
    }
}
