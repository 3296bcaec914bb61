//! # appfl-tensor
//!
//! A dense, CPU-only tensor library built from scratch for the appfl-rs
//! reproduction of the APPFL federated-learning framework.
//!
//! The paper's reference implementation delegates all numerical work to
//! PyTorch. Federated-learning algorithms only require a small, well-defined
//! surface of that functionality: contiguous `f32` tensors, a handful of
//! elementwise and reduction kernels, dense matrix multiplication, 2-D
//! convolution / max-pooling with gradients, and flat-vector arithmetic on
//! parameter vectors. This crate provides exactly that surface with
//! deterministic, seedable initialisation and data-parallel kernels (rayon).
//!
//! Layout conventions:
//! * tensors are always contiguous, row-major (C order);
//! * image batches are NCHW;
//! * matrices are `[rows, cols]`.
//!
//! The `unsafe` in the crate is of two kinds: the call into a SIMD instance
//! of the matmul and convolution kernels, made after
//! `is_x86_feature_detected!` reported its instruction set (see
//! [`ops::matmul`](mod@ops::matmul) and [`ops::conv`](mod@ops::conv)),
//! and the convolution kernels' vector loads and stores, each on a slice
//! whose length the caller has checked.

pub mod error;
pub mod init;
pub mod ops;
pub mod scratch;
pub mod shape;
pub mod tensor;
pub mod timers;
pub mod vecops;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
