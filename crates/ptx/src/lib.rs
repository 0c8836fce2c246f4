//! # ptx — a PTX ISA substrate
//!
//! A from-scratch representation of the *Parallel Thread Execution* (PTX)
//! virtual ISA subset needed to reproduce the paper's pipeline: structured
//! instructions ([`inst`]), kernels and launch plans ([`kernel`]), a text
//! printer matching `nvcc` output ([`printer`]), a parser for that text
//! ([`parser`]) and an ergonomic kernel builder ([`builder`]).
//!
//! The subset covers the constructs of the paper's Fig. 2 — predicate
//! registers, `setp`/`bra` control flow, `ld.param`, shl/or thread-id
//! arithmetic — plus everything the CNN code generator emits (fma loops,
//! shared-memory tiles, barriers).

pub mod builder;
pub mod inst;
pub mod kernel;
pub mod parser;
pub mod printer;
pub mod types;
pub mod verify;

pub use builder::KernelBuilder;
pub use inst::{AddrBase, Address, BodyElem, Category, Instruction, LabelId, Op, Operand};
pub use kernel::{Kernel, KernelLaunch, KernelParam, LaunchPlan, Module};
pub use parser::{parse_module, ParseError};
pub use types::{BinOp, CmpOp, Reg, RegClass, Space, SpecialReg, Type, UnOp};
pub use verify::{verify_kernel, VerifyError};
