//! Property tests for the PTX printer/parser pair: every module we can
//! print must parse back to an identical structure (the paper's pipeline
//! consumes PTX text, so text must be a lossless interface).

use proptest::prelude::*;
use ptx::inst::{Address, BodyElem, Instruction, Op, Operand};
use ptx::kernel::{Kernel, KernelParam, Module};
use ptx::types::{BinOp, CmpOp, Reg, RegClass, Space, SpecialReg, Type, UnOp};
use std::sync::Arc;

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (
        prop_oneof![
            Just(RegClass::R),
            Just(RegClass::Rd),
            Just(RegClass::F),
            Just(RegClass::P)
        ],
        0u32..64,
    )
        .prop_map(|(class, idx)| Reg { class, idx })
}

fn int_type() -> impl Strategy<Value = Type> {
    prop_oneof![
        Just(Type::U32),
        Just(Type::S32),
        Just(Type::U64),
        Just(Type::B32)
    ]
}

fn operand_strategy() -> impl Strategy<Value = Operand> {
    prop_oneof![
        reg_strategy().prop_map(Operand::Reg),
        (-100_000i64..100_000).prop_map(Operand::ImmI),
        any::<u32>().prop_map(|bits| Operand::ImmF(f32::from_bits(bits & 0x7F7F_FFFF))),
        prop_oneof![
            Just(SpecialReg::TidX),
            Just(SpecialReg::CtaIdX),
            Just(SpecialReg::NTidX),
            Just(SpecialReg::NCtaIdX)
        ]
        .prop_map(Operand::Special),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let bin = prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::Min),
        Just(BinOp::Max),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor)
    ];
    let cmp = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne)
    ];
    let un = prop_oneof![
        Just(UnOp::Neg),
        Just(UnOp::Abs),
        Just(UnOp::Sqrt),
        Just(UnOp::Rcp),
        Just(UnOp::Ex2),
        Just(UnOp::Lg2)
    ];
    prop_oneof![
        (int_type(), reg_strategy(), operand_strategy()).prop_map(|(t, dst, src)| Op::Mov {
            t,
            dst,
            src
        }),
        (
            bin,
            int_type(),
            reg_strategy(),
            operand_strategy(),
            operand_strategy()
        )
            .prop_map(|(op, t, dst, a, b)| Op::Bin { op, t, dst, a, b }),
        (un, reg_strategy(), operand_strategy()).prop_map(|(op, dst, a)| Op::Un {
            op,
            t: Type::F32,
            dst,
            a
        }),
        (
            cmp,
            int_type(),
            reg_strategy(),
            operand_strategy(),
            operand_strategy()
        )
            .prop_map(|(cmp, t, dst, a, b)| Op::Setp { cmp, t, dst, a, b }),
        (reg_strategy(), reg_strategy(), -512i64..512).prop_map(|(dst, base, off)| {
            Op::Ld {
                space: Space::Global,
                t: Type::F32,
                dst,
                addr: Address::reg_off(base, off),
            }
        }),
        (reg_strategy(), reg_strategy(), -512i64..512).prop_map(|(src, base, off)| {
            Op::St {
                space: Space::Global,
                t: Type::F32,
                src: Operand::Reg(src),
                addr: Address::reg_off(base, off),
            }
        }),
        (
            reg_strategy(),
            operand_strategy(),
            operand_strategy(),
            operand_strategy()
        )
            .prop_map(|(dst, a, b, c)| Op::Mad {
                t: Type::F32,
                dst,
                a,
                b,
                c
            }),
        Just(Op::Bar),
    ]
}

fn instruction_strategy() -> impl Strategy<Value = Instruction> {
    (
        op_strategy(),
        proptest::option::of((0u32..8, any::<bool>())),
    )
        .prop_map(|(op, guard)| Instruction {
            op,
            guard: guard.map(|(i, n)| (Reg::new(RegClass::P, i), n)),
        })
}

fn kernel_of(instrs: Vec<Instruction>) -> Kernel {
    let mut body: Vec<BodyElem> = instrs.into_iter().map(BodyElem::Inst).collect();
    body.push(BodyElem::Inst(Instruction::new(Op::Ret)));
    Kernel {
        name: "prop_kernel".into(),
        params: vec![KernelParam {
            name: "prop_kernel_param_0".into(),
            t: Type::U64,
        }],
        reqntid: (128, 1, 1),
        shared_bytes: 256,
        body,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn print_parse_roundtrip(instrs in proptest::collection::vec(instruction_strategy(), 0..40)) {
        let kernel = kernel_of(instrs);
        let mut module = Module::new("sm_61");
        Arc::make_mut(&mut module.kernels).push(kernel);
        let text = ptx::printer::module(&module);
        let parsed = ptx::parse_module(&text).expect("printer output must parse");
        prop_assert_eq!(&parsed.kernels[0].body, &module.kernels[0].body);
        prop_assert_eq!(&parsed.kernels[0].params, &module.kernels[0].params);
        prop_assert_eq!(parsed.kernels[0].reqntid, module.kernels[0].reqntid);
        prop_assert_eq!(parsed.kernels[0].shared_bytes, module.kernels[0].shared_bytes);
    }

    /// Float immediates must survive the 0f-hex encoding bit-exactly.
    #[test]
    fn float_immediates_bit_exact(bits in any::<u32>()) {
        let v = f32::from_bits(bits);
        prop_assume!(!v.is_nan());
        let kernel = kernel_of(vec![Instruction::new(Op::Mov {
            t: Type::F32,
            dst: Reg::new(RegClass::F, 0),
            src: Operand::ImmF(v),
        })]);
        let mut module = Module::new("sm_61");
        Arc::make_mut(&mut module.kernels).push(kernel);
        let parsed = ptx::parse_module(&ptx::printer::module(&module)).expect("parses");
        match &parsed.kernels[0].body[0] {
            BodyElem::Inst(Instruction { op: Op::Mov { src: Operand::ImmF(got), .. }, .. }) => {
                prop_assert_eq!(got.to_bits(), v.to_bits());
            }
            other => prop_assert!(false, "unexpected element {:?}", other),
        }
    }
}

/// All 24 codegen templates round-trip (deterministic complement to the
/// random cases above).
#[test]
fn every_codegen_template_roundtrips() {
    let mut module = Module::new("sm_61");
    module.kernels = Arc::clone(ptx_codegen::templates::kernels());
    let text = ptx::printer::module(&module);
    let parsed = ptx::parse_module(&text).expect("parses");
    assert_eq!(parsed.kernels.len(), module.kernels.len());
    for (a, b) in module.kernels.iter().zip(parsed.kernels.iter()) {
        assert_eq!(a.body, b.body, "{} body changed", a.name);
        assert_eq!(a.shared_bytes, b.shared_bytes);
    }
}
