//! PTX instructions and operands.

use crate::types::{BinOp, CmpOp, Reg, Space, SpecialReg, Type, UnOp};
use serde::{Deserialize, Serialize};

/// An instruction operand. Equality and hashing compare float immediates
/// by bit pattern, so `0.0` and `-0.0` differ and a NaN equals itself: two
/// operands are equal exactly when they encode the same PTX text.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum Operand {
    Reg(Reg),
    /// Integer immediate (covers u32/s32/u64 encodings).
    ImmI(i64),
    /// Floating-point immediate.
    ImmF(f32),
    Special(SpecialReg),
}

impl PartialEq for Operand {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Operand::Reg(a), Operand::Reg(b)) => a == b,
            (Operand::ImmI(a), Operand::ImmI(b)) => a == b,
            (Operand::ImmF(a), Operand::ImmF(b)) => a.to_bits() == b.to_bits(),
            (Operand::Special(a), Operand::Special(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Operand {}

impl std::hash::Hash for Operand {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Operand::Reg(r) => r.hash(state),
            Operand::ImmI(v) => v.hash(state),
            Operand::ImmF(v) => v.to_bits().hash(state),
            Operand::Special(s) => s.hash(state),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

/// A memory address: `[base + offset]` where base is a register, or a named
/// kernel parameter `[name + offset]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AddrBase {
    Reg(Reg),
    Param(String),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Address {
    pub base: AddrBase,
    pub offset: i64,
}

impl Address {
    pub fn reg(r: Reg) -> Self {
        Self {
            base: AddrBase::Reg(r),
            offset: 0,
        }
    }

    pub fn reg_off(r: Reg, offset: i64) -> Self {
        Self {
            base: AddrBase::Reg(r),
            offset,
        }
    }

    pub fn param(name: impl Into<String>) -> Self {
        Self {
            base: AddrBase::Param(name.into()),
            offset: 0,
        }
    }
}

/// Branch/label identifier within one kernel body.
pub type LabelId = u32;

/// Instruction operation. Every variant maps to a real PTX opcode family.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// `mov.<t> dst, src`
    Mov { t: Type, dst: Reg, src: Operand },
    /// `ld.<space>.<t> dst, [addr]`
    Ld {
        space: Space,
        t: Type,
        dst: Reg,
        addr: Address,
    },
    /// `st.<space>.<t> [addr], src`
    St {
        space: Space,
        t: Type,
        src: Operand,
        addr: Address,
    },
    /// Two-operand ALU: `add/sub/mul/.../or.<t> dst, a, b`
    Bin {
        op: BinOp,
        t: Type,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// One-operand ALU: `neg/abs/sqrt/....<t> dst, a`
    Un {
        op: UnOp,
        t: Type,
        dst: Reg,
        a: Operand,
    },
    /// Fused multiply-add: `fma.rn.f32` / `mad.lo.s32 dst, a, b, c`
    Mad {
        t: Type,
        dst: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
    },
    /// `cvt.<to>.<from> dst, src`
    Cvt {
        to: Type,
        from: Type,
        dst: Reg,
        src: Operand,
    },
    /// `setp.<cmp>.<t> dst, a, b`
    Setp {
        cmp: CmpOp,
        t: Type,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `selp.<t> dst, a, b, pred`
    Selp {
        t: Type,
        dst: Reg,
        a: Operand,
        b: Operand,
        p: Reg,
    },
    /// `bra` (`uni` marks non-divergent branches, as in the paper's Fig. 2)
    Bra { target: LabelId, uni: bool },
    /// `bar.sync 0`
    Bar,
    /// `ret`
    Ret,
}

/// Coarse instruction categories used by the instruction-mix model and the
/// GPU simulator's timing tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Category {
    IntAlu,
    FloatAlu,
    FloatFma,
    SpecialFunc,
    LoadGlobal,
    StoreGlobal,
    LoadShared,
    StoreShared,
    LoadParam,
    Control,
    Sync,
    Move,
    Convert,
    Compare,
}

impl Category {
    pub const ALL: [Category; 14] = [
        Category::IntAlu,
        Category::FloatAlu,
        Category::FloatFma,
        Category::SpecialFunc,
        Category::LoadGlobal,
        Category::StoreGlobal,
        Category::LoadShared,
        Category::StoreShared,
        Category::LoadParam,
        Category::Control,
        Category::Sync,
        Category::Move,
        Category::Convert,
        Category::Compare,
    ];
}

/// One instruction with an optional predicate guard (`@%p` / `@!%p`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instruction {
    pub op: Op,
    /// `Some((p, negated))` executes only when `p == !negated`.
    pub guard: Option<(Reg, bool)>,
}

impl Instruction {
    pub fn new(op: Op) -> Self {
        Self { op, guard: None }
    }

    pub fn guarded(op: Op, p: Reg, negated: bool) -> Self {
        Self {
            op,
            guard: Some((p, negated)),
        }
    }

    /// The coarse category of this instruction.
    pub fn category(&self) -> Category {
        match &self.op {
            Op::Mov { .. } => Category::Move,
            Op::Ld { space, .. } => match space {
                Space::Global | Space::Local => Category::LoadGlobal,
                Space::Shared => Category::LoadShared,
                Space::Param => Category::LoadParam,
            },
            Op::St { space, .. } => match space {
                Space::Shared => Category::StoreShared,
                _ => Category::StoreGlobal,
            },
            Op::Bin { op, t, .. } => match op {
                BinOp::Div | BinOp::Rem if t.is_float() => Category::SpecialFunc,
                _ if t.is_float() => Category::FloatAlu,
                _ => Category::IntAlu,
            },
            Op::Un { op, .. } => match op {
                UnOp::Sqrt | UnOp::Rcp | UnOp::Ex2 | UnOp::Lg2 => Category::SpecialFunc,
                _ => Category::IntAlu,
            },
            Op::Mad { t, .. } => {
                if t.is_float() {
                    Category::FloatFma
                } else {
                    Category::IntAlu
                }
            }
            Op::Cvt { .. } => Category::Convert,
            Op::Setp { .. } => Category::Compare,
            Op::Selp { .. } => Category::Move,
            Op::Bra { .. } | Op::Ret => Category::Control,
            Op::Bar => Category::Sync,
        }
    }

    /// Destination register, if the instruction writes one.
    pub fn dst(&self) -> Option<Reg> {
        match &self.op {
            Op::Mov { dst, .. }
            | Op::Ld { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Un { dst, .. }
            | Op::Mad { dst, .. }
            | Op::Cvt { dst, .. }
            | Op::Setp { dst, .. }
            | Op::Selp { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Call `f` on each source register read by this instruction, in
    /// operand order: register operands, address bases, a `selp`
    /// predicate, then the guard. Allocates nothing.
    pub fn for_each_src(&self, mut f: impl FnMut(Reg)) {
        fn reg(o: &Operand) -> Option<Reg> {
            match o {
                Operand::Reg(r) => Some(*r),
                _ => None,
            }
        }
        fn base(a: &Address) -> Option<Reg> {
            match a.base {
                AddrBase::Reg(r) => Some(r),
                AddrBase::Param(_) => None,
            }
        }
        let mut see = |r: Option<Reg>| r.into_iter().for_each(&mut f);
        match &self.op {
            Op::Mov { src, .. } | Op::Cvt { src, .. } => see(reg(src)),
            Op::Ld { addr, .. } => see(base(addr)),
            Op::St { src, addr, .. } => {
                see(reg(src));
                see(base(addr));
            }
            Op::Bin { a, b, .. } | Op::Setp { a, b, .. } => {
                see(reg(a));
                see(reg(b));
            }
            Op::Un { a, .. } => see(reg(a)),
            Op::Mad { a, b, c, .. } => {
                see(reg(a));
                see(reg(b));
                see(reg(c));
            }
            Op::Selp { a, b, p, .. } => {
                see(reg(a));
                see(reg(b));
                see(Some(*p));
            }
            Op::Bra { .. } | Op::Bar | Op::Ret => {}
        }
        see(self.guard.map(|(p, _)| p));
    }

    /// True for instructions that terminate a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self.op, Op::Bra { .. } | Op::Ret)
    }
}

/// An element of a kernel body: either a label definition or an instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BodyElem {
    Label(LabelId),
    Inst(Instruction),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegClass;

    fn r(i: u32) -> Reg {
        Reg::new(RegClass::R, i)
    }

    fn f(i: u32) -> Reg {
        Reg::new(RegClass::F, i)
    }

    fn srcs(i: &Instruction) -> Vec<Reg> {
        let mut out = Vec::new();
        i.for_each_src(|r| out.push(r));
        out
    }

    #[test]
    fn float_immediates_compare_and_hash_by_bits() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |o: Operand| {
            let mut h = DefaultHasher::new();
            o.hash(&mut h);
            h.finish()
        };
        assert_ne!(Operand::ImmF(0.0), Operand::ImmF(-0.0));
        assert_eq!(Operand::ImmF(f32::NAN), Operand::ImmF(f32::NAN));
        assert_eq!(hash(Operand::ImmF(f32::NAN)), hash(Operand::ImmF(f32::NAN)));
        assert_eq!(Operand::ImmF(1.5), Operand::ImmF(1.5));
        assert_eq!(hash(Operand::ImmF(1.5)), hash(Operand::ImmF(1.5)));
        assert_ne!(Operand::ImmI(0), Operand::ImmF(0.0));
    }

    #[test]
    fn categories() {
        let fma = Instruction::new(Op::Mad {
            t: Type::F32,
            dst: f(0),
            a: f(1).into(),
            b: f(2).into(),
            c: f(0).into(),
        });
        assert_eq!(fma.category(), Category::FloatFma);

        let imad = Instruction::new(Op::Mad {
            t: Type::S32,
            dst: r(0),
            a: r(1).into(),
            b: r(2).into(),
            c: r(0).into(),
        });
        assert_eq!(imad.category(), Category::IntAlu);

        let ld = Instruction::new(Op::Ld {
            space: Space::Global,
            t: Type::F32,
            dst: f(1),
            addr: Address::reg(Reg::new(RegClass::Rd, 0)),
        });
        assert_eq!(ld.category(), Category::LoadGlobal);

        let bra = Instruction::new(Op::Bra {
            target: 0,
            uni: true,
        });
        assert_eq!(bra.category(), Category::Control);
        assert!(bra.is_terminator());
    }

    #[test]
    fn fdiv_is_special_func() {
        let fdiv = Instruction::new(Op::Bin {
            op: BinOp::Div,
            t: Type::F32,
            dst: f(0),
            a: f(1).into(),
            b: f(2).into(),
        });
        assert_eq!(fdiv.category(), Category::SpecialFunc);
    }

    #[test]
    fn def_use_extraction() {
        let i = Instruction::guarded(
            Op::Bin {
                op: BinOp::Add,
                t: Type::U32,
                dst: r(3),
                a: r(1).into(),
                b: Operand::ImmI(4),
            },
            Reg::new(RegClass::P, 1),
            true,
        );
        assert_eq!(i.dst(), Some(r(3)));
        assert_eq!(srcs(&i), [r(1), Reg::new(RegClass::P, 1)]);
    }

    #[test]
    fn store_reads_value_and_address() {
        let st = Instruction::new(Op::St {
            space: Space::Global,
            t: Type::F32,
            src: f(5).into(),
            addr: Address::reg_off(Reg::new(RegClass::Rd, 2), 16),
        });
        assert_eq!(st.dst(), None);
        assert_eq!(srcs(&st), [f(5), Reg::new(RegClass::Rd, 2)]);
    }
}
