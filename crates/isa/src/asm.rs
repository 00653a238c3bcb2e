//! A small text assembler for writing kernels and examples.
//!
//! # Syntax
//!
//! ```text
//! ; full-line or trailing comments with `;` or `#`
//! start:                      ; labels end with `:`
//!     addi r1, r0, 10
//!     li   r2, 0x123456789    ; pseudo-instruction, expands as needed
//!     ld   r3, 8(r1)          ; memory operands are offset(base)
//!     sfd  f2, 0(r1)
//!     beq  r1, r0, done       ; branch targets are labels
//!     jal  r31, func          ; or `jal func` (links r31)
//!     j    start
//! done:
//!     halt
//! .u64 0x100000 1 2 3         ; data directives: address then values
//! .f64 0x100020 1.5 -2.5
//! ```
//!
//! # Examples
//!
//! ```
//! use ftsim_isa::{asm, Emulator, IntReg};
//!
//! let p = asm::assemble("addi r1, r0, 7\nhalt\n").unwrap();
//! let mut e = Emulator::new(&p);
//! e.run(10).unwrap();
//! assert_eq!(e.regs().read_int(IntReg::new(1)), 7);
//! ```

use crate::inst::Inst;
use crate::op::Opcode;
use crate::program::{BuildError, Program, ProgramBuilder};
use crate::reg::{IntReg, RegClass};
use std::fmt;

/// Assembly error with a 1-based source line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line of the offending source.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

impl AsmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

fn parse_int(tok: &str, line: usize) -> Result<i64, AsmError> {
    let t = tok.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let value = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        t.parse::<i64>()
    }
    .map_err(|_| AsmError::new(line, format!("invalid integer `{tok}`")))?;
    Ok(if neg { -value } else { value })
}

fn parse_imm32(tok: &str, line: usize) -> Result<i32, AsmError> {
    let v = parse_int(tok, line)?;
    i32::try_from(v).map_err(|_| AsmError::new(line, format!("immediate `{tok}` exceeds 32 bits")))
}

fn parse_reg(tok: &str, class: RegClass, line: usize) -> Result<u8, AsmError> {
    let t = tok.trim();
    let (prefix, want) = match class {
        RegClass::Int => ('r', "integer"),
        RegClass::Fp => ('f', "floating-point"),
    };
    let idx: u8 = t
        .strip_prefix(prefix)
        .and_then(|rest| rest.parse().ok())
        .filter(|&i| i < 32)
        .ok_or_else(|| AsmError::new(line, format!("expected {want} register, got `{t}`")))?;
    Ok(idx)
}

/// Parses `offset(base)` memory operand syntax.
fn parse_mem_operand(tok: &str, line: usize) -> Result<(i32, u8), AsmError> {
    let t = tok.trim();
    let open = t
        .find('(')
        .ok_or_else(|| AsmError::new(line, format!("expected offset(base), got `{t}`")))?;
    if !t.ends_with(')') {
        return Err(AsmError::new(
            line,
            format!("unclosed memory operand `{t}`"),
        ));
    }
    let off_str = &t[..open];
    let base_str = &t[open + 1..t.len() - 1];
    let offset = if off_str.trim().is_empty() {
        0
    } else {
        parse_imm32(off_str, line)?
    };
    let base = parse_reg(base_str, RegClass::Int, line)?;
    Ok((offset, base))
}

fn split_operands(rest: &str) -> Vec<&str> {
    rest.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

fn expect_operands(ops: &[&str], n: usize, mnemonic: &str, line: usize) -> Result<(), AsmError> {
    if ops.len() != n {
        Err(AsmError::new(
            line,
            format!("{mnemonic} expects {n} operand(s), got {}", ops.len()),
        ))
    } else {
        Ok(())
    }
}

/// Assembles source text into a [`Program`].
///
/// # Errors
///
/// Returns [`AsmError`] (with line number) for syntax errors, unknown
/// mnemonics, malformed operands, and label problems (undefined/duplicate
/// labels are reported on line 0 as they are detected at link time).
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new();
    for (i, raw_line) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.split([';', '#']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut text = line;
        // Leading labels, possibly followed by an instruction.
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return Err(AsmError::new(line_no, format!("bad label `{label}`")));
            }
            b.label(label);
            text = rest[1..].trim();
            if text.is_empty() {
                break;
            }
        }
        if text.is_empty() {
            continue;
        }
        if let Some(directive) = text.strip_prefix('.') {
            parse_directive(&mut b, directive, line_no)?;
            continue;
        }
        parse_instruction(&mut b, text, line_no)?;
    }
    b.build().map_err(|e| match e {
        BuildError::UndefinedLabel(l) => AsmError::new(0, format!("undefined label `{l}`")),
        BuildError::DuplicateLabel(l) => AsmError::new(0, format!("duplicate label `{l}`")),
        BuildError::OffsetOverflow { label } => {
            AsmError::new(0, format!("displacement to `{label}` overflows"))
        }
        e @ BuildError::DataOverlap { .. } => AsmError::new(0, e.to_string()),
    })
}

fn parse_directive(b: &mut ProgramBuilder, directive: &str, line: usize) -> Result<(), AsmError> {
    let mut parts = directive.split_whitespace();
    let name = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    match name {
        "u64" => {
            if rest.is_empty() {
                return Err(AsmError::new(line, ".u64 needs an address"));
            }
            let addr = parse_int(rest[0], line)? as u64;
            let words: Result<Vec<u64>, _> = rest[1..]
                .iter()
                .map(|t| parse_int(t, line).map(|v| v as u64))
                .collect();
            b.data_u64(addr, &words?);
            Ok(())
        }
        "f64" => {
            if rest.is_empty() {
                return Err(AsmError::new(line, ".f64 needs an address"));
            }
            let addr = parse_int(rest[0], line)? as u64;
            let vals: Result<Vec<f64>, _> = rest[1..]
                .iter()
                .map(|t| {
                    t.parse::<f64>()
                        .map_err(|_| AsmError::new(line, format!("invalid float `{t}`")))
                })
                .collect();
            b.data_f64(addr, &vals?);
            Ok(())
        }
        other => Err(AsmError::new(line, format!("unknown directive `.{other}`"))),
    }
}

fn parse_instruction(b: &mut ProgramBuilder, text: &str, line: usize) -> Result<(), AsmError> {
    let (mnemonic, rest) = match text.find(char::is_whitespace) {
        Some(ws) => (&text[..ws], text[ws..].trim()),
        None => (text, ""),
    };
    let ops = split_operands(rest);

    // `li` pseudo-instruction.
    if mnemonic == "li" {
        expect_operands(&ops, 2, "li", line)?;
        let rd = parse_reg(ops[0], RegClass::Int, line)?;
        let v = parse_int(ops[1], line)?;
        b.li(IntReg::new(rd), v);
        return Ok(());
    }

    let op = Opcode::from_mnemonic(mnemonic)
        .ok_or_else(|| AsmError::new(line, format!("unknown mnemonic `{mnemonic}`")))?;

    use Opcode::*;
    match op {
        Nop | Halt => {
            expect_operands(&ops, 0, mnemonic, line)?;
            b.inst(Inst::new(op, 0, 0, 0, 0));
        }
        J => {
            expect_operands(&ops, 1, mnemonic, line)?;
            b.inst_branch_to(Inst::new(op, 0, 0, 0, 0), ops[0]);
        }
        Jal => {
            // `jal label` or `jal rd, label`.
            let (rd, label) = match ops.as_slice() {
                [label] => (31, *label),
                [rd, label] => (parse_reg(rd, RegClass::Int, line)?, *label),
                _ => return Err(AsmError::new(line, "jal expects [rd,] label")),
            };
            b.inst_branch_to(Inst::new(op, rd, 0, 0, 0), label);
        }
        Jr => {
            expect_operands(&ops, 1, mnemonic, line)?;
            let rs = parse_reg(ops[0], RegClass::Int, line)?;
            b.inst(Inst::new(op, 0, rs, 0, 0));
        }
        Jalr => {
            expect_operands(&ops, 2, mnemonic, line)?;
            let rd = parse_reg(ops[0], RegClass::Int, line)?;
            let rs = parse_reg(ops[1], RegClass::Int, line)?;
            b.inst(Inst::new(op, rd, rs, 0, 0));
        }
        Lui => {
            expect_operands(&ops, 2, mnemonic, line)?;
            let rd = parse_reg(ops[0], RegClass::Int, line)?;
            let imm = parse_imm32(ops[1], line)?;
            b.inst(Inst::new(op, rd, 0, 0, imm));
        }
        Beq | Bne | Blt | Bge => {
            expect_operands(&ops, 3, mnemonic, line)?;
            let rs1 = parse_reg(ops[0], RegClass::Int, line)?;
            let rs2 = parse_reg(ops[1], RegClass::Int, line)?;
            b.inst_branch_to(Inst::new(op, 0, rs1, rs2, 0), ops[2]);
        }
        _ if op.is_load() => {
            expect_operands(&ops, 2, mnemonic, line)?;
            let rd_class = op.rd_class().expect("loads write a register");
            let rd = parse_reg(ops[0], rd_class, line)?;
            let (imm, base) = parse_mem_operand(ops[1], line)?;
            b.inst(Inst::new(op, rd, base, 0, imm));
        }
        _ if op.is_store() => {
            expect_operands(&ops, 2, mnemonic, line)?;
            let src_class = op.rs2_class().expect("stores read a data register");
            let src = parse_reg(ops[0], src_class, line)?;
            let (imm, base) = parse_mem_operand(ops[1], line)?;
            b.inst(Inst::new(op, 0, base, src, imm));
        }
        _ => {
            // Generic register/immediate forms driven by the opcode's classes.
            let rd_class = op.rd_class();
            let rs1_class = op.rs1_class();
            let rs2_class = op.rs2_class();
            let uses_imm = op.uses_imm();
            let n = usize::from(rd_class.is_some())
                + usize::from(rs1_class.is_some())
                + usize::from(rs2_class.is_some())
                + usize::from(uses_imm);
            expect_operands(&ops, n, mnemonic, line)?;
            let mut it = ops.iter();
            let rd = match rd_class {
                Some(c) => parse_reg(it.next().unwrap(), c, line)?,
                None => 0,
            };
            let rs1 = match rs1_class {
                Some(c) => parse_reg(it.next().unwrap(), c, line)?,
                None => 0,
            };
            let rs2 = match rs2_class {
                Some(c) => parse_reg(it.next().unwrap(), c, line)?,
                None => 0,
            };
            let imm = if uses_imm {
                parse_imm32(it.next().unwrap(), line)?
            } else {
                0
            };
            b.inst(Inst::new(op, rd, rs1, rs2, imm));
        }
    }
    Ok(())
}

/// Disassembles a program as one instruction per line with PC prefixes.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    for (i, inst) in program.insts().iter().enumerate() {
        out.push_str(&format!("{:#08x}: {}\n", program.pc_of(i), inst));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::Emulator;
    use crate::program::DATA_BASE;
    use crate::reg::IntReg;

    #[test]
    fn assemble_and_run_loop() {
        let p = assemble(
            r"
            ; sum 1..=4
                addi r1, r0, 4
                addi r2, r0, 0
            loop: add r2, r2, r1
                addi r1, r1, -1
                bne r1, r0, loop
                halt
            ",
        )
        .unwrap();
        let mut e = Emulator::new(&p);
        e.run(1000).unwrap();
        assert_eq!(e.regs().read_int(IntReg::new(2)), 10);
    }

    #[test]
    fn memory_and_data_directives() {
        let p = assemble(&format!(
            r"
                li r1, {DATA_BASE}
                ld r2, 0(r1)
                lfd f1, 8(r1)
                fadd f1, f1, f1
                sfd f1, 16(r1)
                sd r2, 24(r1)
                halt
            .u64 {DATA_BASE} 41
            .f64 {} 1.25
            ",
            DATA_BASE + 8
        ))
        .unwrap();
        let mut e = Emulator::new(&p);
        e.run(1000).unwrap();
        assert_eq!(e.mem().read_u64(DATA_BASE + 24), 41);
        assert_eq!(f64::from_bits(e.mem().read_u64(DATA_BASE + 16)), 2.5);
    }

    #[test]
    fn overlapping_data_directives_are_refused() {
        let err = assemble(&format!(
            "halt\n.u64 {DATA_BASE} 1 2 3\n.u64 {} 9",
            DATA_BASE + 16
        ))
        .unwrap_err();
        assert_eq!(
            err.message,
            BuildError::DataOverlap {
                addr: DATA_BASE + 16
            }
            .to_string()
        );
        assert!(assemble(&format!(
            "halt\n.u64 {DATA_BASE} 1 2 3\n.u64 {} 9",
            DATA_BASE + 24
        ))
        .is_ok());
    }

    #[test]
    fn jal_both_forms() {
        let p = assemble(
            r"
                jal fn1
                jal r30, fn1
                halt
            fn1:
                jr r31
            ",
        );
        // Second jal links r30 and returns through r31 — stuck? r31 set by
        // first jal to pc of second jal... The program structure is valid
        // assembly; execution correctness is not the point of this test.
        assert!(p.is_ok());
        let p = p.unwrap();
        assert_eq!(p.insts()[0].rd, 31);
        assert_eq!(p.insts()[1].rd, 30);
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble("addi r1, r0, -0x10\nhalt\n").unwrap();
        assert_eq!(p.insts()[0].imm, -16);
    }

    #[test]
    fn error_reports_line() {
        let err = assemble("nop\nbogus r1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn wrong_operand_count() {
        let err = assemble("add r1, r2\n").unwrap_err();
        assert!(err.message.contains("expects 3"));
    }

    #[test]
    fn wrong_register_class() {
        let err = assemble("fadd f1, r2, f3\n").unwrap_err();
        assert!(err.message.contains("floating-point"));
    }

    #[test]
    fn undefined_label_reported() {
        let err = assemble("j nowhere\n").unwrap_err();
        assert!(err.message.contains("undefined"));
    }

    #[test]
    fn bad_memory_operand() {
        let err = assemble("ld r1, 8[r2]\n").unwrap_err();
        assert!(err.message.contains("offset(base)"));
    }

    #[test]
    fn disassemble_lists_every_inst() {
        let p = assemble("addi r1, r0, 1\nhalt\n").unwrap();
        let text = disassemble(&p);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("addi r1, r0, 1"));
        assert!(text.contains("halt"));
    }

    #[test]
    fn empty_offset_memory_operand() {
        let p = assemble("ld r1, (r2)\nhalt\n").unwrap();
        assert_eq!(p.insts()[0].imm, 0);
    }
}
