//! Kernels, modules and launch descriptions.

use crate::inst::{BodyElem, Instruction, LabelId};
use crate::types::{Reg, RegClass, Type};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A kernel parameter (`.param` space).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelParam {
    pub name: String,
    pub t: Type,
}

/// One `.entry` kernel. Equality and hashing are structural over the whole
/// kernel (float immediates by bit pattern, see [`crate::inst::Operand`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Kernel {
    pub name: String,
    pub params: Vec<KernelParam>,
    /// `.reqntid` — required block dimensions.
    pub reqntid: (u32, u32, u32),
    /// Static shared-memory bytes declared by the kernel.
    pub shared_bytes: u32,
    pub body: Vec<BodyElem>,
}

impl Kernel {
    /// Number of instructions (labels excluded).
    pub fn num_instructions(&self) -> usize {
        self.body
            .iter()
            .filter(|e| matches!(e, BodyElem::Inst(_)))
            .count()
    }

    /// Iterate over instructions only.
    pub fn instructions(&self) -> impl Iterator<Item = &Instruction> {
        self.body.iter().filter_map(|e| match e {
            BodyElem::Inst(i) => Some(i),
            BodyElem::Label(_) => None,
        })
    }

    /// Map label id -> body index of its definition.
    pub fn label_positions(&self) -> HashMap<LabelId, usize> {
        self.body
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                BodyElem::Label(l) => Some((*l, i)),
                _ => None,
            })
            .collect()
    }

    /// Registers used per class, indexed by `RegClass as usize`: the
    /// highest index used plus one, 0 for an unused class. These are the
    /// `.reg` declarations.
    pub fn reg_counts(&self) -> [u32; 4] {
        let mut max = [0u32; 4];
        let mut see = |r: Reg| {
            let n = &mut max[r.class as usize];
            *n = (*n).max(r.idx + 1);
        };
        for inst in self.instructions() {
            if let Some(d) = inst.dst() {
                see(d);
            }
            inst.for_each_src(&mut see);
        }
        max
    }

    /// Estimated architectural registers per thread: 32-bit regs count one,
    /// 64-bit regs count two; predicates are free. Used by the occupancy
    /// model.
    pub fn regs_per_thread(&self) -> u32 {
        let c = self.reg_counts();
        let (r, rd, f) = (
            c[RegClass::R as usize],
            c[RegClass::Rd as usize],
            c[RegClass::F as usize],
        );
        (r + f + 2 * rd).max(16)
    }

    /// Threads per block.
    pub fn block_threads(&self) -> u32 {
        self.reqntid.0 * self.reqntid.1 * self.reqntid.2
    }
}

/// A PTX translation unit.
#[derive(Debug, Clone)]
pub struct Module {
    /// `.version` directive, e.g. (6, 0).
    pub version: (u32, u32),
    /// `.target` directive, e.g. "sm_61".
    pub target: String,
    pub address_size: u32,
    /// The kernel list, shared: every lowered module holds the one
    /// template list, and a clone shares its owner's. Edit it through
    /// [`Arc::make_mut`], which copies a shared list first.
    pub kernels: Arc<Vec<Kernel>>,
}

impl Module {
    pub fn new(target: impl Into<String>) -> Self {
        Self {
            version: (6, 0),
            target: target.into(),
            address_size: 64,
            kernels: Arc::default(),
        }
    }

    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    pub fn total_instructions(&self) -> usize {
        self.kernels.iter().map(|k| k.num_instructions()).sum()
    }
}

/// One kernel launch: which kernel, grid size, parameter values and the data
/// traffic it implies. Parameter values are what the dynamic code analysis
/// uses to resolve loop bounds and guards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelLaunch {
    /// Index into the module's kernel table.
    pub kernel: usize,
    /// Human-readable origin, e.g. `conv2d_3.im2col`.
    pub tag: String,
    /// Grid dimensions (blocks).
    pub grid: (u32, u32, u32),
    /// Parameter values by name, in kernel parameter order.
    pub args: Vec<u64>,
    /// Bytes read from / written to global memory (computed from tensor
    /// semantics at lowering time; drives the DRAM model).
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl KernelLaunch {
    pub fn blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64
    }
}

/// A lowered CNN: the module plus the ordered launch sequence of one
/// forward pass.
#[derive(Debug, Clone)]
pub struct LaunchPlan {
    pub model_name: String,
    pub module: Module,
    pub launches: Vec<KernelLaunch>,
}

impl LaunchPlan {
    /// Total threads across all launches.
    pub fn total_threads(&self) -> u64 {
        self.launches
            .iter()
            .map(|l| {
                let k = &self.module.kernels[l.kernel];
                l.blocks() * k.block_threads() as u64
            })
            .sum()
    }

    /// Total global-memory traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.launches
            .iter()
            .map(|l| l.bytes_read + l.bytes_written)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Instruction, Op, Operand};
    use crate::types::{Reg, RegClass, SpecialReg};

    fn mov(dst: Reg, src: Operand) -> BodyElem {
        BodyElem::Inst(Instruction::new(Op::Mov {
            t: Type::U32,
            dst,
            src,
        }))
    }

    fn tiny_kernel() -> Kernel {
        Kernel {
            name: "k".into(),
            params: vec![KernelParam {
                name: "n".into(),
                t: Type::U32,
            }],
            reqntid: (256, 1, 1),
            shared_bytes: 0,
            body: vec![
                mov(Reg::new(RegClass::R, 0), Operand::Special(SpecialReg::TidX)),
                BodyElem::Label(0),
                mov(Reg::new(RegClass::R, 1), Operand::ImmI(7)),
                BodyElem::Inst(Instruction::new(Op::Ret)),
            ],
        }
    }

    #[test]
    fn instruction_and_label_accounting() {
        let k = tiny_kernel();
        assert_eq!(k.num_instructions(), 3);
        assert_eq!(k.label_positions()[&0], 1);
        assert_eq!(k.block_threads(), 256);
    }

    #[test]
    fn reg_counts_track_max_index() {
        let k = tiny_kernel();
        assert_eq!(k.reg_counts()[RegClass::R as usize], 2);
    }

    #[test]
    fn launch_accounting() {
        let mut m = Module::new("sm_61");
        Arc::make_mut(&mut m.kernels).push(tiny_kernel());
        let plan = LaunchPlan {
            model_name: "t".into(),
            module: m,
            launches: vec![KernelLaunch {
                kernel: 0,
                tag: "x".into(),
                grid: (10, 1, 1),
                args: vec![100],
                bytes_read: 400,
                bytes_written: 100,
            }],
        };
        assert_eq!(plan.total_threads(), 2560);
        assert_eq!(plan.total_bytes(), 500);
    }
}
