//! Kernel verification: structural well-formedness checks run on every
//! module the code generator emits (and on anything the parser accepts).
//!
//! Checks:
//! - every branch target resolves to a label in the body,
//! - every register is defined before use on every forward path
//!   (loop-carried uses are allowed only for registers initialized before
//!   the loop head — approximated by a dominance-free forward scan),
//! - register classes match operand positions (predicates guard, etc.),
//! - `ld.param` names refer to declared parameters,
//! - the body terminates in `ret` and contains no unreachable trailing
//!   instructions after an unconditional terminator (except labels).

use crate::inst::{AddrBase, BodyElem, Op};
use crate::kernel::Kernel;
use crate::types::{Reg, RegClass};
use std::collections::HashSet;
use std::fmt;

/// One verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    UnresolvedLabel {
        kernel: String,
        target: u32,
    },
    UseBeforeDef {
        kernel: String,
        pc: usize,
        reg: Reg,
    },
    GuardNotPredicate {
        kernel: String,
        pc: usize,
        reg: Reg,
    },
    UnknownParam {
        kernel: String,
        pc: usize,
        name: String,
    },
    MissingRet {
        kernel: String,
    },
    EmptyBody {
        kernel: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnresolvedLabel { kernel, target } => {
                write!(f, "{kernel}: branch to undefined label LBB0_{target}")
            }
            VerifyError::UseBeforeDef { kernel, pc, reg } => {
                write!(
                    f,
                    "{kernel}: instruction {pc} reads {reg} before any definition"
                )
            }
            VerifyError::GuardNotPredicate { kernel, pc, reg } => {
                write!(
                    f,
                    "{kernel}: instruction {pc} guarded by non-predicate {reg}"
                )
            }
            VerifyError::UnknownParam { kernel, pc, name } => {
                write!(
                    f,
                    "{kernel}: instruction {pc} loads undeclared param '{name}'"
                )
            }
            VerifyError::MissingRet { kernel } => {
                write!(f, "{kernel}: body does not end in ret")
            }
            VerifyError::EmptyBody { kernel } => write!(f, "{kernel}: empty body"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify one kernel; returns all failures found.
pub fn verify_kernel(kernel: &Kernel) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    let name = &kernel.name;

    let instrs: Vec<_> = kernel.instructions().collect();
    if instrs.is_empty() {
        errors.push(VerifyError::EmptyBody {
            kernel: name.clone(),
        });
        return errors;
    }
    if !matches!(instrs.last().expect("non-empty").op, Op::Ret) {
        errors.push(VerifyError::MissingRet {
            kernel: name.clone(),
        });
    }

    // label resolution
    let labels: HashSet<u32> = kernel
        .body
        .iter()
        .filter_map(|e| match e {
            BodyElem::Label(l) => Some(*l),
            _ => None,
        })
        .collect();
    for inst in &instrs {
        if let Op::Bra { target, .. } = &inst.op {
            if !labels.contains(target) {
                errors.push(VerifyError::UnresolvedLabel {
                    kernel: name.clone(),
                    target: *target,
                });
            }
        }
    }

    // param names
    let params: HashSet<&str> = kernel.params.iter().map(|p| p.name.as_str()).collect();
    for (pc, inst) in instrs.iter().enumerate() {
        if let Op::Ld {
            space: crate::types::Space::Param,
            addr,
            ..
        } = &inst.op
        {
            if let AddrBase::Param(p) = &addr.base {
                if !params.contains(p.as_str()) {
                    errors.push(VerifyError::UnknownParam {
                        kernel: name.clone(),
                        pc,
                        name: p.clone(),
                    });
                }
            }
        }
    }

    // guards must be predicate-class
    for (pc, inst) in instrs.iter().enumerate() {
        if let Some((g, _)) = inst.guard {
            if g.class != RegClass::P {
                errors.push(VerifyError::GuardNotPredicate {
                    kernel: name.clone(),
                    pc,
                    reg: g,
                });
            }
        }
    }

    // def-before-use: forward scan; a register is "defined" once any
    // earlier instruction (in program order) wrote it. Back edges only
    // re-enter code whose defs were already scanned, so program order is a
    // sound over-approximation for the single-pass builder output.
    let mut defined: HashSet<Reg> = HashSet::new();
    for (pc, inst) in instrs.iter().enumerate() {
        inst.for_each_src(|src| {
            if !defined.contains(&src) {
                // operands produced later on a loop path: treat as error —
                // our builder always initializes before the loop head
                errors.push(VerifyError::UseBeforeDef {
                    kernel: name.clone(),
                    pc,
                    reg: src,
                });
            }
        });
        if let Some(d) = inst.dst() {
            defined.insert(d);
        }
    }

    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::inst::{Address, Instruction, Operand};
    use crate::types::{Space, Type};

    #[test]
    fn well_formed_kernel_passes() {
        let mut kb = KernelBuilder::new("k", 64);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let (_gid, exit) = kb.guard_gid(n);
        kb.place_label(exit);
        kb.ret();
        assert!(verify_kernel(&kb.finish()).is_empty());
    }

    #[test]
    fn detects_unresolved_label() {
        let mut kb = KernelBuilder::new("k", 64);
        kb.bra_uni(99);
        kb.ret();
        let errs = verify_kernel(&kb.finish());
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::UnresolvedLabel { target: 99, .. })));
    }

    #[test]
    fn detects_use_before_def() {
        let mut kb = KernelBuilder::new("k", 64);
        let ghost = Reg::new(RegClass::F, 7);
        let dst = kb.f();
        kb.bin(
            crate::types::BinOp::Add,
            Type::F32,
            dst,
            ghost,
            Operand::ImmF(1.0),
        );
        kb.ret();
        let errs = verify_kernel(&kb.finish());
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::UseBeforeDef { reg, .. } if *reg == ghost)));
    }

    #[test]
    fn detects_unknown_param() {
        let mut kb = KernelBuilder::new("k", 64);
        let dst = kb.rd();
        kb.ld(Space::Param, Type::U64, dst, Address::param("nope"));
        kb.ret();
        let errs = verify_kernel(&kb.finish());
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::UnknownParam { .. })));
    }

    #[test]
    fn detects_missing_ret() {
        let mut kb = KernelBuilder::new("k", 64);
        let f = kb.f();
        kb.mov(Type::F32, f, Operand::ImmF(0.0));
        let errs = verify_kernel(&kb.finish());
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::MissingRet { .. })));
    }

    #[test]
    fn detects_bad_guard_class() {
        let mut kb = KernelBuilder::new("k", 64);
        let f = kb.f();
        kb.mov(Type::F32, f, Operand::ImmF(0.0));
        let mut k = kb.finish();
        // splice in an instruction guarded by a float register
        k.body.insert(
            1,
            BodyElem::Inst(Instruction::guarded(
                Op::Mov {
                    t: Type::F32,
                    dst: Reg::new(RegClass::F, 1),
                    src: Operand::ImmF(1.0),
                },
                Reg::new(RegClass::F, 0),
                false,
            )),
        );
        k.body.push(BodyElem::Inst(Instruction::new(Op::Ret)));
        let errs = verify_kernel(&k);
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::GuardNotPredicate { .. })));
    }

    #[test]
    fn empty_body_is_an_error() {
        let k = Kernel {
            name: "empty".into(),
            params: vec![],
            reqntid: (32, 1, 1),
            shared_bytes: 0,
            body: vec![],
        };
        assert!(matches!(
            verify_kernel(&k).as_slice(),
            [VerifyError::EmptyBody { .. }]
        ));
    }
}
