//! Element-wise activation functions and their derivatives.

use htc_linalg::DenseMatrix;

/// Activation functions supported by the GCN encoder.
///
/// The paper's encoder uses smooth non-linearities between layers; `Tanh` is
/// the default because the reconstruction target (a normalised Laplacian) has
/// entries in `[0, 1]` and the embedding similarities live most naturally in
/// `[-1, 1]`.  `Identity` is used for ablations and for linear output layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// `f(x) = max(0, x)`.
    Relu,
    /// `f(x) = tanh(x)` (default).
    #[default]
    Tanh,
    /// `f(x) = 1 / (1 + e^{ -x })`.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply_scalar(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative `f'(x)` expressed in terms of the *pre-activation* value.
    #[inline]
    pub fn derivative_scalar(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
        }
    }

    /// Applies the activation element-wise to a matrix.
    pub fn apply(self, m: &DenseMatrix) -> DenseMatrix {
        m.map(|v| self.apply_scalar(v))
    }

    /// Applies the activation element-wise, writing into `out` (resized as
    /// needed, reusing its allocation).
    pub fn apply_into(self, m: &DenseMatrix, out: &mut DenseMatrix) {
        out.map_from(m, |v| self.apply_scalar(v));
    }

    /// Element-wise derivative evaluated at the pre-activation matrix.
    pub fn derivative(self, pre_activation: &DenseMatrix) -> DenseMatrix {
        pre_activation.map(|v| self.derivative_scalar(v))
    }

    /// Fused backprop step: `dz[i] = grad_out[i] * f'(pre_activation[i])` in
    /// one traversal, writing into `dz` (resized as needed).
    ///
    /// Replaces the two-pass `derivative` + `hadamard` sequence (which
    /// materialised the derivative matrix) on the training hot path.
    /// `Identity` is a copy and `Relu` a select; `Tanh` and `Sigmoid`
    /// multiply by the scalar derivative, whose `tanh`/`exp` have no vector
    /// form in core Rust (a polynomial approximation would break the
    /// cross-ISA determinism contract).
    ///
    /// # Panics
    /// Panics if the two input shapes differ.
    pub fn backprop_into(
        self,
        pre_activation: &DenseMatrix,
        grad_out: &DenseMatrix,
        dz: &mut DenseMatrix,
    ) {
        assert_eq!(
            pre_activation.shape(),
            grad_out.shape(),
            "pre-activation and output gradient must have the same shape"
        );
        match self {
            Activation::Identity => dz.copy_from(grad_out),
            Activation::Relu => {
                // Shape only — the loop writes every element of dz.
                let (rows, cols) = grad_out.shape();
                dz.resize_for_overwrite(rows, cols);
                for ((d, &z), &g) in dz
                    .data_mut()
                    .iter_mut()
                    .zip(pre_activation.data())
                    .zip(grad_out.data())
                {
                    *d = if z > 0.0 { g } else { 0.0 };
                }
            }
            Activation::Tanh | Activation::Sigmoid => {
                dz.copy_from(grad_out);
                for (d, &z) in dz.data_mut().iter_mut().zip(pre_activation.data()) {
                    *d *= self.derivative_scalar(z);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_values() {
        assert_eq!(Activation::Identity.apply_scalar(-2.5), -2.5);
        assert_eq!(Activation::Relu.apply_scalar(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(2.0), 2.0);
        assert!((Activation::Tanh.apply_scalar(0.0)).abs() < 1e-12);
        assert!((Activation::Sigmoid.apply_scalar(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-6;
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            for &x in &[-1.7, -0.3, 0.4, 1.9] {
                let numeric = (act.apply_scalar(x + eps) - act.apply_scalar(x - eps)) / (2.0 * eps);
                let analytic = act.derivative_scalar(x);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn matrix_application() {
        let m = DenseMatrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        let relu = Activation::Relu.apply(&m);
        assert_eq!(relu.data(), &[0.0, 0.0, 2.0]);
        let grad = Activation::Relu.derivative(&m);
        assert_eq!(grad.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn fused_backprop_matches_two_pass() {
        let z = DenseMatrix::from_vec(2, 2, vec![-1.0, 0.5, 2.0, -0.2]).unwrap();
        let g = DenseMatrix::from_vec(2, 2, vec![0.3, -0.7, 1.1, 0.9]).unwrap();
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            let two_pass = g.hadamard(&act.derivative(&z)).unwrap();
            let mut fused = DenseMatrix::zeros(0, 0);
            act.backprop_into(&z, &g, &mut fused);
            assert!(fused.approx_eq(&two_pass, 0.0), "{act:?}");
        }
    }

    #[test]
    fn apply_into_matches_apply() {
        let m = DenseMatrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        let mut out = DenseMatrix::zeros(5, 5);
        Activation::Sigmoid.apply_into(&m, &mut out);
        assert!(out.approx_eq(&Activation::Sigmoid.apply(&m), 0.0));
    }

    #[test]
    fn default_is_tanh() {
        assert_eq!(Activation::default(), Activation::Tanh);
    }
}
