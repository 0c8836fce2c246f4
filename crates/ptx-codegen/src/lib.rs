//! # ptx-codegen — lowering CNN graphs to PTX
//!
//! The stand-in for the `nvcc`/XLA compilation step of the paper's pipeline:
//! turns a [`cnn_ir::ModelGraph`] into a [`ptx::LaunchPlan`] — a PTX module
//! of shape-generic kernels ([`templates`]) plus the ordered launch sequence
//! of one inference pass ([`lower`]).
//!
//! ```
//! let model = cnn_ir::zoo::build("mobilenet").unwrap();
//! let plan = ptx_codegen::lower(&model, "sm_61").unwrap();
//! assert!(plan.launches.len() > 50);
//! let text = ptx::printer::module(&plan.module);
//! assert!(text.contains(".target sm_61"));
//! ```

pub mod lower;
pub mod templates;

pub use lower::{lower, lower_with, GemmVariant};
pub use templates::{Template, BLOCK, TILE};
