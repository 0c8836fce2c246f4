//! A parser for the PTX subset emitted by [`crate::printer`] (and by
//! `nvcc`/XLA for the constructs of the paper's Fig. 2). The paper's dynamic
//! code analysis starts from PTX text; this parser turns it back into
//! structured [`Module`]s.

use crate::inst::{AddrBase, Address, BodyElem, Instruction, LabelId, Op, Operand};
use crate::kernel::{Kernel, KernelParam, Module};
use crate::types::{BinOp, CmpOp, Reg, RegClass, Space, SpecialReg, Type, UnOp};
use std::fmt;
use std::sync::Arc;

/// Parse errors with line information. `line` is 1-based and always
/// within the input's line count (clamped to 1 for empty input), so it
/// can be surfaced to users and editors directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ptx parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

fn err<T>(line: usize, message: impl Into<String>) -> PResult<T> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

fn parse_type(s: &str) -> Option<Type> {
    Some(match s {
        "pred" => Type::Pred,
        "u32" => Type::U32,
        "s32" => Type::S32,
        "u64" => Type::U64,
        "f32" => Type::F32,
        "b32" => Type::B32,
        // the printer never emits these, but nvcc does; widen conservatively
        "b64" => Type::U64,
        _ => return None,
    })
}

fn parse_reg(s: &str) -> Option<Reg> {
    let s = s.strip_prefix('%')?;
    let (class, rest) = if let Some(r) = s.strip_prefix("rd") {
        (RegClass::Rd, r)
    } else if let Some(r) = s.strip_prefix('r') {
        (RegClass::R, r)
    } else if let Some(r) = s.strip_prefix('f') {
        (RegClass::F, r)
    } else if let Some(r) = s.strip_prefix('p') {
        (RegClass::P, r)
    } else {
        return None;
    };
    rest.parse().ok().map(|idx| Reg { class, idx })
}

fn parse_special(s: &str) -> Option<SpecialReg> {
    Some(match s {
        "%tid.x" => SpecialReg::TidX,
        "%tid.y" => SpecialReg::TidY,
        "%ctaid.x" => SpecialReg::CtaIdX,
        "%ctaid.y" => SpecialReg::CtaIdY,
        "%ntid.x" => SpecialReg::NTidX,
        "%ntid.y" => SpecialReg::NTidY,
        "%nctaid.x" => SpecialReg::NCtaIdX,
        "%nctaid.y" => SpecialReg::NCtaIdY,
        _ => return None,
    })
}

fn parse_operand(s: &str, line: usize) -> PResult<Operand> {
    let s = s.trim();
    if let Some(sp) = parse_special(s) {
        return Ok(Operand::Special(sp));
    }
    if let Some(r) = parse_reg(s) {
        return Ok(Operand::Reg(r));
    }
    if let Some(hex) = s.strip_prefix("0f") {
        let bits = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
            line,
            message: format!("bad float literal '{s}'"),
        })?;
        return Ok(Operand::ImmF(f32::from_bits(bits)));
    }
    match s.parse::<i64>() {
        Ok(v) => Ok(Operand::ImmI(v)),
        Err(_) => err(line, format!("unrecognized operand '{s}'")),
    }
}

fn parse_address(s: &str, line: usize) -> PResult<Address> {
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected [address], got '{s}'"),
        })?;
    // split on '+' or '-' (offset)
    let (base_s, off) = if let Some(pos) = inner.rfind('+') {
        (&inner[..pos], inner[pos + 1..].parse::<i64>().unwrap_or(0))
    } else if let Some(pos) = inner.rfind('-') {
        if pos == 0 {
            (inner, 0)
        } else {
            (
                &inner[..pos],
                -(inner[pos + 1..].parse::<i64>().unwrap_or(0)),
            )
        }
    } else {
        (inner, 0)
    };
    let base_s = base_s.trim();
    let base = if let Some(r) = parse_reg(base_s) {
        AddrBase::Reg(r)
    } else {
        AddrBase::Param(base_s.to_string())
    };
    Ok(Address { base, offset: off })
}

/// Split `a, b, c` respecting `[...]` brackets.
fn split_args(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0;
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            '[' => {
                depth += 1;
                cur.push(ch);
            }
            ']' => {
                depth -= 1;
                cur.push(ch);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Parse a label operand `LBB0_<n>`.
fn parse_label(s: &str, line: usize) -> PResult<LabelId> {
    s.trim()
        .strip_prefix("LBB0_")
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseError {
            line,
            message: format!("bad label '{s}'"),
        })
}

fn reg_arg(args: &[String], i: usize, line: usize) -> PResult<Reg> {
    args.get(i)
        .and_then(|s| parse_reg(s))
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected register at position {i}"),
        })
}

/// Bounds-checked operand access: mutated/truncated input must surface as
/// a [`ParseError`], never an out-of-bounds panic.
fn arg(args: &[String], i: usize, line: usize) -> PResult<&str> {
    args.get(i).map(String::as_str).ok_or_else(|| ParseError {
        line,
        message: format!("missing operand at position {i}"),
    })
}

/// Parse one statement (guard already stripped) into an [`Op`].
fn parse_op(stmt: &str, line: usize) -> PResult<Op> {
    let stmt = stmt.trim().trim_end_matches(';').trim();
    let (mnemonic, rest) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(pos) => (&stmt[..pos], stmt[pos..].trim()),
        None => (stmt, ""),
    };
    let args = split_args(rest);
    let parts: Vec<&str> = mnemonic.split('.').collect();
    let base = parts[0];

    let last_type = || -> Option<Type> { parts.last().and_then(|s| parse_type(s)) };

    match base {
        "ret" => Ok(Op::Ret),
        "bar" => Ok(Op::Bar),
        "bra" => {
            let uni = parts.contains(&"uni");
            let target = parse_label(arg(&args, 0, line)?, line)?;
            Ok(Op::Bra { target, uni })
        }
        "mov" => {
            let t = last_type().ok_or_else(|| ParseError {
                line,
                message: "mov missing type".into(),
            })?;
            Ok(Op::Mov {
                t,
                dst: reg_arg(&args, 0, line)?,
                src: parse_operand(arg(&args, 1, line)?, line)?,
            })
        }
        "ld" | "st" => {
            let space = match parts.get(1) {
                Some(&"global") => Space::Global,
                Some(&"shared") => Space::Shared,
                Some(&"param") => Space::Param,
                Some(&"local") => Space::Local,
                other => {
                    return err(line, format!("bad space {other:?}"));
                }
            };
            let t = last_type().ok_or_else(|| ParseError {
                line,
                message: "ld/st missing type".into(),
            })?;
            if base == "ld" {
                Ok(Op::Ld {
                    space,
                    t,
                    dst: reg_arg(&args, 0, line)?,
                    addr: parse_address(arg(&args, 1, line)?, line)?,
                })
            } else {
                Ok(Op::St {
                    space,
                    t,
                    src: parse_operand(arg(&args, 1, line)?, line)?,
                    addr: parse_address(arg(&args, 0, line)?, line)?,
                })
            }
        }
        "setp" => {
            let cmp = parts
                .get(1)
                .and_then(|s| CmpOp::from_mnemonic(s))
                .ok_or_else(|| ParseError {
                    line,
                    message: "setp missing cmp".into(),
                })?;
            let t = last_type().ok_or_else(|| ParseError {
                line,
                message: "setp missing type".into(),
            })?;
            Ok(Op::Setp {
                cmp,
                t,
                dst: reg_arg(&args, 0, line)?,
                a: parse_operand(arg(&args, 1, line)?, line)?,
                b: parse_operand(arg(&args, 2, line)?, line)?,
            })
        }
        "selp" => {
            let t = last_type().ok_or_else(|| ParseError {
                line,
                message: "selp missing type".into(),
            })?;
            Ok(Op::Selp {
                t,
                dst: reg_arg(&args, 0, line)?,
                a: parse_operand(arg(&args, 1, line)?, line)?,
                b: parse_operand(arg(&args, 2, line)?, line)?,
                p: reg_arg(&args, 3, line)?,
            })
        }
        "mad" | "fma" => {
            let t = last_type().ok_or_else(|| ParseError {
                line,
                message: "mad/fma missing type".into(),
            })?;
            Ok(Op::Mad {
                t,
                dst: reg_arg(&args, 0, line)?,
                a: parse_operand(arg(&args, 1, line)?, line)?,
                b: parse_operand(arg(&args, 2, line)?, line)?,
                c: parse_operand(arg(&args, 3, line)?, line)?,
            })
        }
        "cvt" => {
            // cvt.<to>.<from>
            let to = parts.get(1).and_then(|s| parse_type(s));
            let from = parts.get(2).and_then(|s| parse_type(s));
            match (to, from) {
                (Some(to), Some(from)) => Ok(Op::Cvt {
                    to,
                    from,
                    dst: reg_arg(&args, 0, line)?,
                    src: parse_operand(arg(&args, 1, line)?, line)?,
                }),
                _ => err(line, "cvt missing types"),
            }
        }
        _ => {
            // binary / unary ALU
            let t = last_type().ok_or_else(|| ParseError {
                line,
                message: format!("unknown mnemonic '{mnemonic}'"),
            })?;
            let bin = match base {
                "add" => Some(BinOp::Add),
                "sub" => Some(BinOp::Sub),
                "mul" => {
                    if parts.contains(&"wide") {
                        Some(BinOp::MulWide)
                    } else {
                        Some(BinOp::Mul)
                    }
                }
                "div" => Some(BinOp::Div),
                "rem" => Some(BinOp::Rem),
                "min" => Some(BinOp::Min),
                "max" => Some(BinOp::Max),
                "shl" => Some(BinOp::Shl),
                "shr" => Some(BinOp::Shr),
                "and" => Some(BinOp::And),
                "or" => Some(BinOp::Or),
                "xor" => Some(BinOp::Xor),
                _ => None,
            };
            if let Some(op) = bin {
                return Ok(Op::Bin {
                    op,
                    t,
                    dst: reg_arg(&args, 0, line)?,
                    a: parse_operand(arg(&args, 1, line)?, line)?,
                    b: parse_operand(arg(&args, 2, line)?, line)?,
                });
            }
            let un = match base {
                "neg" => Some(UnOp::Neg),
                "abs" => Some(UnOp::Abs),
                "sqrt" => Some(UnOp::Sqrt),
                "rcp" => Some(UnOp::Rcp),
                "ex2" => Some(UnOp::Ex2),
                "lg2" => Some(UnOp::Lg2),
                "not" => Some(UnOp::Not),
                _ => None,
            };
            match un {
                Some(op) => Ok(Op::Un {
                    op,
                    t,
                    dst: reg_arg(&args, 0, line)?,
                    a: parse_operand(arg(&args, 1, line)?, line)?,
                }),
                None => err(line, format!("unknown mnemonic '{mnemonic}'")),
            }
        }
    }
}

/// Parse a statement with optional `@%p` / `@!%p` guard.
fn parse_statement(s: &str, line: usize) -> PResult<Instruction> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix("@!") {
        let (p, tail) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| ParseError {
                line,
                message: "guard without instruction".into(),
            })?;
        let p = parse_reg(p).ok_or_else(|| ParseError {
            line,
            message: format!("bad guard '{p}'"),
        })?;
        return Ok(Instruction::guarded(parse_op(tail, line)?, p, true));
    }
    if let Some(rest) = s.strip_prefix('@') {
        let (p, tail) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| ParseError {
                line,
                message: "guard without instruction".into(),
            })?;
        let p = parse_reg(p).ok_or_else(|| ParseError {
            line,
            message: format!("bad guard '{p}'"),
        })?;
        return Ok(Instruction::guarded(parse_op(tail, line)?, p, false));
    }
    Ok(Instruction::new(parse_op(s, line)?))
}

/// Parse a full module from PTX text.
pub fn parse_module(text: &str) -> PResult<Module> {
    let mut module = Module::new("sm_61");
    let mut lines = text.lines().enumerate().peekable();

    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(v) = line.strip_prefix(".version") {
            let v = v.trim();
            if let Some((a, b)) = v.split_once('.') {
                module.version = (a.trim().parse().unwrap_or(6), b.trim().parse().unwrap_or(0));
            }
        } else if let Some(t) = line.strip_prefix(".target") {
            module.target = t.trim().to_string();
        } else if let Some(a) = line.strip_prefix(".address_size") {
            module.address_size = a.trim().parse().unwrap_or(64);
        } else if line.starts_with(".visible .entry") || line.starts_with(".entry") {
            let kernel = parse_kernel(&line, ln + 1, &mut lines)?;
            Arc::make_mut(&mut module.kernels).push(kernel);
        }
        // other directives ignored
    }
    Ok(module)
}

fn strip_comment(s: &str) -> &str {
    match s.find("//") {
        Some(p) => &s[..p],
        None => s,
    }
}

type Lines<'a> = std::iter::Peekable<std::iter::Enumerate<std::str::Lines<'a>>>;

fn parse_kernel(header: &str, header_ln: usize, lines: &mut Lines) -> PResult<Kernel> {
    // name: between ".entry" and "(" (possibly on this line)
    let after = header
        .split(".entry")
        .nth(1)
        .ok_or_else(|| ParseError {
            line: header_ln,
            message: "malformed .entry".into(),
        })?
        .trim();
    let name = after.trim_end_matches('(').trim().to_string();

    // parameters until ")"
    let mut params = Vec::new();
    for (ln, raw) in lines.by_ref() {
        let l = strip_comment(raw).trim().to_string();
        if l.starts_with(')') {
            break;
        }
        if let Some(rest) = l.strip_prefix(".param") {
            let rest = rest.trim().trim_end_matches(',');
            let mut it = rest.split_whitespace();
            let t = it
                .next()
                .and_then(|s| parse_type(s.trim_start_matches('.')))
                .ok_or_else(|| ParseError {
                    line: ln + 1,
                    message: "bad param type".into(),
                })?;
            let pname = it.next().unwrap_or("").to_string();
            params.push(KernelParam { name: pname, t });
        }
    }

    let mut reqntid = (256u32, 1u32, 1u32);
    let mut shared_bytes = 0u32;
    let mut body = Vec::new();
    let mut in_body = false;

    for (ln, raw) in lines.by_ref() {
        let l = strip_comment(raw).trim().to_string();
        if l.is_empty() {
            continue;
        }
        if let Some(r) = l.strip_prefix(".reqntid") {
            let dims: Vec<u32> = r.split(',').filter_map(|x| x.trim().parse().ok()).collect();
            if !dims.is_empty() {
                reqntid = (
                    dims[0],
                    dims.get(1).copied().unwrap_or(1),
                    dims.get(2).copied().unwrap_or(1),
                );
            }
            continue;
        }
        if l.starts_with('{') {
            in_body = true;
            continue;
        }
        if l.starts_with('}') {
            break;
        }
        if !in_body {
            continue;
        }
        if l.starts_with(".reg") {
            continue; // reconstructed from the body
        }
        if l.starts_with(".shared") {
            // guard a < b: mutated input can put ']' before '['
            if let (Some(a), Some(b)) = (l.rfind('['), l.rfind(']')) {
                if a < b {
                    shared_bytes = l[a + 1..b].parse().unwrap_or(0);
                }
            }
            continue;
        }
        if let Some(label) = l.strip_suffix(':') {
            body.push(BodyElem::Label(parse_label(label, ln + 1)?));
            continue;
        }
        body.push(BodyElem::Inst(parse_statement(&l, ln + 1)?));
    }

    Ok(Kernel {
        name,
        params,
        reqntid,
        shared_bytes,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer;

    const FIG2_LIKE: &str = r#"
// Generated by LLVM NVPTX Back-End
.version 6.0
.target sm_61
.address_size 64

.visible .entry fusion_135(
    .param .u64 fusion_135_param_0
)
.reqntid 256, 1, 1
{
    .reg .pred %p<14>;
    .reg .b32 %r<17>;
    .reg .b64 %rd<11>;

    mov.u32 %r13, %ctaid.x;
    mov.u32 %r14, %tid.x;
    shl.b32 %r15, %r13, 10;
    shl.b32 %r16, %r14, 2;
    or.b32 %r1, %r16, %r15;
    setp.lt.u32 %p1, %r1, 718296;
    @%p1 bra LBB0_2;
    bra.uni LBB0_1;
LBB0_2:
    ld.param.u64 %rd10, [fusion_135_param_0];
LBB0_1:
    ret;
}
"#;

    #[test]
    fn parses_fig2_kernel() {
        let m = parse_module(FIG2_LIKE).unwrap();
        assert_eq!(m.kernels.len(), 1);
        let k = &m.kernels[0];
        assert_eq!(k.name, "fusion_135");
        assert_eq!(k.reqntid, (256, 1, 1));
        assert_eq!(k.params.len(), 1);
        assert_eq!(k.num_instructions(), 10);
        // the guard survives
        let guarded = k.instructions().filter(|i| i.guard.is_some()).count();
        assert_eq!(guarded, 1);
    }

    #[test]
    fn roundtrip_through_printer() {
        let m = parse_module(FIG2_LIKE).unwrap();
        let printed = printer::module(&m);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(m.kernels[0].body, m2.kernels[0].body);
        assert_eq!(m.kernels[0].params, m2.kernels[0].params);
        assert_eq!(m.kernels[0].reqntid, m2.kernels[0].reqntid);
    }

    #[test]
    fn rejects_garbage() {
        let bad = ".visible .entry k(\n)\n{\nfrobnicate.u32 %r1, %r2;\n}";
        assert!(parse_module(bad).is_err());
    }

    #[test]
    fn parses_negative_guard_and_offsets() {
        let src = r#"
.visible .entry k(
    .param .u64 k_param_0
)
{
    @!%p2 st.global.f32 [%rd1+64], %f1;
    ld.global.f32 %f2, [%rd1-4];
    ret;
}
"#;
        let m = parse_module(src).unwrap();
        let k = &m.kernels[0];
        let insts: Vec<_> = k.instructions().collect();
        assert_eq!(insts[0].guard, Some((Reg::new(RegClass::P, 2), true)));
        match &insts[0].op {
            Op::St { addr, .. } => assert_eq!(addr.offset, 64),
            other => panic!("expected st, got {other:?}"),
        }
        match &insts[1].op {
            Op::Ld { addr, .. } => assert_eq!(addr.offset, -4),
            other => panic!("expected ld, got {other:?}"),
        }
    }
}
