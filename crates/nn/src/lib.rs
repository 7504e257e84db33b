//! # capes-nn
//!
//! A minimal feed-forward neural-network stack used by the CAPES deep
//! reinforcement-learning engine — the reproduction's replacement for the
//! TensorFlow dependency of the original paper.
//!
//! The CAPES Q-network (paper §3.4, Table 1) is a multi-layered perceptron
//! with:
//!
//! * two hidden layers, each the same width as the input,
//! * hyperbolic-tangent activations on the hidden layers,
//! * a fully-connected **linear** output layer with one output per action, and
//! * the Adam optimizer with learning rate `1e-4`.
//!
//! This crate implements exactly that class of network, the mean-squared-error
//! loss, the Adam optimizer, and finite-difference gradient checking. One
//! allocation-free forward pass, [`Mlp::forward_into`], serves training and
//! action selection alike. Every parameter-bearing type
//! implements [`capes_persist::Persist`]; the model file itself (paper
//! Appendix A.4) is written by `capes-drl`.
//!
//! ## Example
//!
//! ```
//! use capes_nn::{Adam, Mlp, MseLoss, Optimizer, Workspace};
//! use capes_tensor::Matrix;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // 4 inputs -> 8 tanh -> 8 tanh -> 3 linear outputs (e.g. 3 actions).
//! let mut net = Mlp::new(&[4, 8, 8, 3], &mut rng);
//! let mut adam = Adam::new(1e-2, net.parameter_shapes());
//! let mut ws = Workspace::new(&net, 1);
//!
//! let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.5]]);
//! let target = Matrix::from_rows(&[&[1.0, 0.0, -1.0]]);
//! for _ in 0..200 {
//!     net.forward_into(&x, &mut ws);
//!     let (pred, delta) = ws.output_and_delta_mut();
//!     delta.copy_from(&MseLoss.grad(pred, &target));
//!     net.backward_into(&x, &mut ws);
//!     adam.step(&mut net, ws.grads());
//! }
//! assert!(MseLoss.loss(net.forward_into(&x, &mut ws), &target) < 1e-2);
//! ```

#![forbid(unsafe_code)]

pub mod activation;
pub mod gradcheck;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod optimizer;
pub mod workspace;

pub use activation::Activation;
pub use layer::{Dense, LayerGrads};
pub use loss::MseLoss;
pub use mlp::{Mlp, MlpGrads};
pub use optimizer::{Adam, Optimizer};
pub use workspace::Workspace;
