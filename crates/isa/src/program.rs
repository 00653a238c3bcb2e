//! Programs, memory layout, and the label-resolving builder.

use crate::inst::Inst;
use crate::op::Opcode;
use crate::reg::{FpReg, IntReg};
use ftsim_mem::{PageImage, SparseMemory};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Base address of the text (instruction) segment.
pub const TEXT_BASE: u64 = 0x1000;
/// Base address of the data segment used by workload generators.
pub const DATA_BASE: u64 = 0x0010_0000;
/// Architectural instruction size in bytes (PC stride).
pub const INST_BYTES: usize = 4;

/// A complete program: instruction image plus initial data image.
///
/// Instructions live at [`TEXT_BASE`] with a fixed [`INST_BYTES`] stride.
/// Fetches outside the text segment return `None`, which the pipeline
/// treats as a front-end stall — a benign outcome for wrong-path fetches.
///
/// A program is immutable and cheap to clone: its instructions and data
/// are reference-counted. The data chunks are laid out into memory pages
/// once, on first use, and every clone shares that [`PageImage`]; each
/// simulated machine starts from it copy-on-write
/// ([`Program::initial_memory`]).
///
/// # Examples
///
/// ```
/// use ftsim_isa::{Program, ProgramBuilder, IntReg, TEXT_BASE};
///
/// let mut b = ProgramBuilder::new();
/// b.addi(IntReg::new(1), IntReg::ZERO, 42);
/// b.halt();
/// let p: Program = b.build().unwrap();
/// assert_eq!(p.len(), 2);
/// assert!(p.inst_at(TEXT_BASE).is_some());
/// assert!(p.inst_at(TEXT_BASE - 4).is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    insts: Arc<[Inst]>,
    data: Arc<DataImage>,
}

/// A program's initial data: the builder's non-overlapping chunks, and
/// their page layout, made on first use.
#[derive(Debug, Default)]
struct DataImage {
    chunks: Vec<(u64, Vec<u8>)>,
    pages: OnceLock<PageImage>,
}

impl PartialEq for DataImage {
    fn eq(&self, other: &Self) -> bool {
        self.chunks == other.chunks
    }
}

impl Program {
    /// Builds a program directly from instructions (no labels, no data).
    pub fn from_insts<I: IntoIterator<Item = Inst>>(insts: I) -> Self {
        Self {
            insts: insts.into_iter().collect(),
            data: Arc::default(),
        }
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The entry PC (start of text).
    pub fn entry(&self) -> u64 {
        TEXT_BASE
    }

    /// One past the last valid instruction address.
    pub fn text_end(&self) -> u64 {
        TEXT_BASE + (self.insts.len() * INST_BYTES) as u64
    }

    /// The instruction at `pc`, if `pc` lies in the text segment and is
    /// instruction-aligned.
    pub fn inst_at(&self, pc: u64) -> Option<&Inst> {
        if pc < TEXT_BASE || (pc - TEXT_BASE) % INST_BYTES as u64 != 0 {
            return None;
        }
        self.insts
            .get(((pc - TEXT_BASE) / INST_BYTES as u64) as usize)
    }

    /// The PC of the instruction at static index `index`.
    pub fn pc_of(&self, index: usize) -> u64 {
        TEXT_BASE + (index * INST_BYTES) as u64
    }

    /// All instructions in program order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The initial data image laid out into pages. The first call lays it
    /// out; later calls, on this program or any clone, return the same
    /// image.
    pub fn data_image(&self) -> &PageImage {
        self.data.pages.get_or_init(|| {
            let mut mem = SparseMemory::new();
            for (addr, bytes) in &self.data.chunks {
                mem.write_slice(*addr, bytes);
            }
            mem.freeze()
        })
    }

    /// A memory holding the initial data image. It shares the image's
    /// pages copy-on-write: the first store to a page copies that page,
    /// and the image itself is never written.
    pub fn initial_memory(&self) -> SparseMemory {
        SparseMemory::from_image(self.data_image())
    }

    /// The raw initial data image as `(address, bytes)` chunks.
    pub fn data(&self) -> &[(u64, Vec<u8>)] {
        &self.data.chunks
    }
}

/// Error from [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A control transfer referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A resolved displacement does not fit the 32-bit immediate.
    OffsetOverflow {
        /// The label whose displacement overflowed.
        label: String,
    },
    /// Two data chunks claim the same byte.
    DataOverlap {
        /// The lowest byte address the later chunk shares with an earlier
        /// one.
        addr: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            BuildError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            BuildError::OffsetOverflow { label } => {
                write!(f, "branch displacement to `{label}` overflows")
            }
            BuildError::DataOverlap { addr } => {
                write!(f, "data chunks overlap at address {addr:#x}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

macro_rules! int_rrr {
    ($($fn_name:ident => $op:ident),+ $(,)?) => {
        $(
        #[doc = concat!("Emits `", stringify!($fn_name), " rd, rs1, rs2`.")]
        pub fn $fn_name(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) -> &mut Self {
            self.inst(Inst::new(Opcode::$op, rd.index(), rs1.index(), rs2.index(), 0))
        }
        )+
    };
}

macro_rules! int_rri {
    ($($fn_name:ident => $op:ident),+ $(,)?) => {
        $(
        #[doc = concat!("Emits `", stringify!($fn_name), " rd, rs1, imm`.")]
        pub fn $fn_name(&mut self, rd: IntReg, rs1: IntReg, imm: i32) -> &mut Self {
            self.inst(Inst::new(Opcode::$op, rd.index(), rs1.index(), 0, imm))
        }
        )+
    };
}

macro_rules! fp_rrr {
    ($($fn_name:ident => $op:ident),+ $(,)?) => {
        $(
        #[doc = concat!("Emits `", stringify!($fn_name), " rd, rs1, rs2` (FP).")]
        pub fn $fn_name(&mut self, rd: FpReg, rs1: FpReg, rs2: FpReg) -> &mut Self {
            self.inst(Inst::new(Opcode::$op, rd.index(), rs1.index(), rs2.index(), 0))
        }
        )+
    };
}

macro_rules! fp_rr {
    ($($fn_name:ident => $op:ident),+ $(,)?) => {
        $(
        #[doc = concat!("Emits `", stringify!($fn_name), " rd, rs1` (FP unary).")]
        pub fn $fn_name(&mut self, rd: FpReg, rs1: FpReg) -> &mut Self {
            self.inst(Inst::new(Opcode::$op, rd.index(), rs1.index(), 0, 0))
        }
        )+
    };
}

macro_rules! branches {
    ($($fn_name:ident => $op:ident),+ $(,)?) => {
        $(
        #[doc = concat!("Emits `", stringify!($fn_name), " rs1, rs2, label`.")]
        pub fn $fn_name(&mut self, rs1: IntReg, rs2: IntReg, label: &str) -> &mut Self {
            let idx = self.insts.len();
            self.fixups.push((idx, label.to_string()));
            self.inst(Inst::new(Opcode::$op, 0, rs1.index(), rs2.index(), 0))
        }
        )+
    };
}

/// Incrementally builds a [`Program`] with named labels.
///
/// Branch and jump methods take label names; displacements are resolved at
/// [`ProgramBuilder::build`] time. Methods return `&mut Self` for chaining.
///
/// # Examples
///
/// ```
/// use ftsim_isa::{IntReg, ProgramBuilder};
///
/// let r1 = IntReg::new(1);
/// let mut b = ProgramBuilder::new();
/// b.addi(r1, IntReg::ZERO, 3);
/// b.label("spin");
/// b.addi(r1, r1, -1);
/// b.bne(r1, IntReg::ZERO, "spin");
/// b.halt();
/// let p = b.build().unwrap();
/// assert_eq!(p.len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    labels: HashMap<String, usize>,
    fixups: Vec<(usize, String)>,
    data: Vec<(u64, Vec<u8>)>,
    duplicate: Option<String>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw instruction.
    pub fn inst(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Appends a control-transfer instruction whose immediate will be
    /// patched to the displacement of `label` at build time.
    pub(crate) fn inst_branch_to(&mut self, inst: Inst, label: &str) -> &mut Self {
        let idx = self.insts.len();
        self.fixups.push((idx, label.to_string()));
        self.inst(inst)
    }

    /// Defines `name` at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self
            .labels
            .insert(name.to_string(), self.insts.len())
            .is_some()
        {
            self.duplicate.get_or_insert_with(|| name.to_string());
        }
        self
    }

    /// Index of the next instruction to be emitted.
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    int_rrr! {
        add => Add, sub => Sub, and => And, or => Or, xor => Xor, nor => Nor,
        sll => Sll, srl => Srl, sra => Sra, slt => Slt, sltu => Sltu,
        mul => Mul, div => Div, rem => Rem,
    }

    int_rri! {
        addi => Addi, andi => Andi, ori => Ori, xori => Xori, slti => Slti,
        slli => Slli, srli => Srli, srai => Srai,
    }

    /// Emits `lui rd, imm` (`rd = imm << 16`).
    pub fn lui(&mut self, rd: IntReg, imm: i32) -> &mut Self {
        self.inst(Inst::new(Opcode::Lui, rd.index(), 0, 0, imm))
    }

    /// Loads an arbitrary 64-bit constant into `rd` using `lui`/`ori`/`slli`
    /// sequences (1–5 instructions).
    pub fn li(&mut self, rd: IntReg, value: i64) -> &mut Self {
        // Fast path for 32-bit-signed constants.
        if let Ok(v) = i32::try_from(value) {
            if (-32768..32768).contains(&v) {
                return self.addi(rd, IntReg::ZERO, v);
            }
            self.lui(rd, v >> 16);
            let low = v & 0xffff;
            if low != 0 {
                self.ori(rd, rd, low);
            }
            return self;
        }
        // General 64-bit: build the high 32 bits, shift, then or-in the rest.
        let hi = (value >> 32) as i32;
        let lo = value as u32;
        self.li(rd, hi as i64);
        self.slli(rd, rd, 32);
        if lo >> 16 != 0 {
            // ori takes a sign-extended imm; keep chunks to 16 bits.
            self.orhi16(rd, (lo >> 16) as i32);
        }
        if lo & 0xffff != 0 {
            self.ori(rd, rd, (lo & 0xffff) as i32);
        }
        self
    }

    /// `rd |= chunk << 16` using a scratch-free shift/or/shift trick is not
    /// possible without a scratch register, so we or into bits 16..32 via
    /// two shifts of `rd` itself.
    fn orhi16(&mut self, rd: IntReg, chunk: i32) -> &mut Self {
        // rd currently holds bits 32..64 shifted into place with zeros below.
        // Insert chunk at bits 16..32: shift right 32, or chunk, shift left 16,
        // would clobber low bits — instead rebuild: rd = rd | (chunk << 16)
        // via srli/ori/slli only works when low 32 bits are still zero,
        // which `li` guarantees at this point.
        self.srli(rd, rd, 16);
        self.ori(rd, rd, chunk & 0xffff);
        self.slli(rd, rd, 16);
        self
    }

    /// Emits `ld rd, offset(base)`.
    pub fn ld(&mut self, rd: IntReg, base: IntReg, offset: i32) -> &mut Self {
        self.inst(Inst::new(Opcode::Ld, rd.index(), base.index(), 0, offset))
    }

    /// Emits `lw rd, offset(base)` (32-bit sign-extending load).
    pub fn lw(&mut self, rd: IntReg, base: IntReg, offset: i32) -> &mut Self {
        self.inst(Inst::new(Opcode::Lw, rd.index(), base.index(), 0, offset))
    }

    /// Emits `lb rd, offset(base)` (8-bit sign-extending load).
    pub fn lb(&mut self, rd: IntReg, base: IntReg, offset: i32) -> &mut Self {
        self.inst(Inst::new(Opcode::Lb, rd.index(), base.index(), 0, offset))
    }

    /// Emits `sd src, offset(base)`.
    pub fn sd(&mut self, src: IntReg, base: IntReg, offset: i32) -> &mut Self {
        self.inst(Inst::new(Opcode::Sd, 0, base.index(), src.index(), offset))
    }

    /// Emits `sw src, offset(base)`.
    pub fn sw(&mut self, src: IntReg, base: IntReg, offset: i32) -> &mut Self {
        self.inst(Inst::new(Opcode::Sw, 0, base.index(), src.index(), offset))
    }

    /// Emits `sb src, offset(base)`.
    pub fn sb(&mut self, src: IntReg, base: IntReg, offset: i32) -> &mut Self {
        self.inst(Inst::new(Opcode::Sb, 0, base.index(), src.index(), offset))
    }

    /// Emits `lfd fd, offset(base)` (FP load).
    pub fn lfd(&mut self, fd: FpReg, base: IntReg, offset: i32) -> &mut Self {
        self.inst(Inst::new(Opcode::Lfd, fd.index(), base.index(), 0, offset))
    }

    /// Emits `sfd fsrc, offset(base)` (FP store).
    pub fn sfd(&mut self, fsrc: FpReg, base: IntReg, offset: i32) -> &mut Self {
        self.inst(Inst::new(
            Opcode::Sfd,
            0,
            base.index(),
            fsrc.index(),
            offset,
        ))
    }

    branches! { beq => Beq, bne => Bne, blt => Blt, bge => Bge }

    /// Emits `j label`.
    pub fn j(&mut self, label: &str) -> &mut Self {
        let idx = self.insts.len();
        self.fixups.push((idx, label.to_string()));
        self.inst(Inst::new(Opcode::J, 0, 0, 0, 0))
    }

    /// Emits `jal label` linking into `rd` (conventionally `r31`).
    pub fn jal(&mut self, rd: IntReg, label: &str) -> &mut Self {
        let idx = self.insts.len();
        self.fixups.push((idx, label.to_string()));
        self.inst(Inst::new(Opcode::Jal, rd.index(), 0, 0, 0))
    }

    /// Emits `jr rs` (indirect jump, e.g. return).
    pub fn jr(&mut self, rs: IntReg) -> &mut Self {
        self.inst(Inst::new(Opcode::Jr, 0, rs.index(), 0, 0))
    }

    /// Emits `jalr rd, rs`.
    pub fn jalr(&mut self, rd: IntReg, rs: IntReg) -> &mut Self {
        self.inst(Inst::new(Opcode::Jalr, rd.index(), rs.index(), 0, 0))
    }

    fp_rrr! {
        fadd => Fadd, fsub => Fsub, fmul => Fmul, fdiv => Fdiv,
        fmin => Fmin, fmax => Fmax,
    }

    fp_rr! { fsqrt => Fsqrt, fneg => Fneg, fabs => Fabs, fmov => Fmov }

    /// Emits `feq rd, fs1, fs2` (int result).
    pub fn feq(&mut self, rd: IntReg, fs1: FpReg, fs2: FpReg) -> &mut Self {
        self.inst(Inst::new(
            Opcode::Feq,
            rd.index(),
            fs1.index(),
            fs2.index(),
            0,
        ))
    }

    /// Emits `flt rd, fs1, fs2` (int result).
    pub fn flt(&mut self, rd: IntReg, fs1: FpReg, fs2: FpReg) -> &mut Self {
        self.inst(Inst::new(
            Opcode::Flt,
            rd.index(),
            fs1.index(),
            fs2.index(),
            0,
        ))
    }

    /// Emits `fle rd, fs1, fs2` (int result).
    pub fn fle(&mut self, rd: IntReg, fs1: FpReg, fs2: FpReg) -> &mut Self {
        self.inst(Inst::new(
            Opcode::Fle,
            rd.index(),
            fs1.index(),
            fs2.index(),
            0,
        ))
    }

    /// Emits `cvtif fd, rs` (integer to FP).
    pub fn cvtif(&mut self, fd: FpReg, rs: IntReg) -> &mut Self {
        self.inst(Inst::new(Opcode::Cvtif, fd.index(), rs.index(), 0, 0))
    }

    /// Emits `cvtfi rd, fs` (FP to integer, truncating).
    pub fn cvtfi(&mut self, rd: IntReg, fs: FpReg) -> &mut Self {
        self.inst(Inst::new(Opcode::Cvtfi, rd.index(), fs.index(), 0, 0))
    }

    /// Emits `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.inst(Inst::nop())
    }

    /// Emits `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.inst(Inst::halt())
    }

    /// Places raw bytes in the initial data image.
    pub fn data_bytes(&mut self, addr: u64, bytes: &[u8]) -> &mut Self {
        self.data.push((addr, bytes.to_vec()));
        self
    }

    /// Places little-endian 64-bit words in the initial data image.
    pub fn data_u64(&mut self, addr: u64, words: &[u64]) -> &mut Self {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.data_bytes(addr, &bytes)
    }

    /// Places `f64` values in the initial data image.
    pub fn data_f64(&mut self, addr: u64, values: &[f64]) -> &mut Self {
        let words: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        self.data_u64(addr, &words)
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for undefined or duplicate labels, for
    /// displacements that do not fit in the immediate field and for data
    /// chunks that overlap.
    pub fn build(mut self) -> Result<Program, BuildError> {
        if let Some(dup) = self.duplicate {
            return Err(BuildError::DuplicateLabel(dup));
        }
        for (idx, label) in &self.fixups {
            let &target = self
                .labels
                .get(label)
                .ok_or_else(|| BuildError::UndefinedLabel(label.clone()))?;
            let disp = target as i64 - (*idx as i64 + 1);
            let imm = i32::try_from(disp).map_err(|_| BuildError::OffsetOverflow {
                label: label.clone(),
            })?;
            self.insts[*idx].imm = imm;
        }
        let mut placed = BTreeMap::new();
        for (addr, bytes) in &self.data {
            insert_placement(&mut placed, *addr, bytes.len() as u64)?;
        }
        Ok(Program {
            insts: self.insts.into(),
            data: Arc::new(DataImage {
                chunks: self.data,
                pages: OnceLock::new(),
            }),
        })
    }
}

/// Records the data chunk `[addr, addr + len)` in `placed` (chunk start →
/// end, chunks disjoint), refusing one that shares a byte with an earlier
/// chunk.
fn insert_placement(
    placed: &mut BTreeMap<u64, u64>,
    addr: u64,
    len: u64,
) -> Result<(), BuildError> {
    if len == 0 {
        return Ok(());
    }
    let end = addr.saturating_add(len);
    let below = placed.range(..=addr).next_back();
    let overlap = match below {
        Some((_, &below_end)) if below_end > addr => Some(addr),
        _ => placed.range(addr..end).next().map(|(&start, _)| start),
    };
    if let Some(addr) = overlap {
        return Err(BuildError::DataOverlap { addr });
    }
    placed.insert(addr, end);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, next_pc};

    const R1: IntReg = IntReg::ZERO;

    #[test]
    fn labels_resolve_backward_and_forward() {
        let r1 = IntReg::new(1);
        let mut b = ProgramBuilder::new();
        b.label("top");
        b.addi(r1, r1, 1); // idx 0
        b.beq(r1, R1, "end"); // idx 1 -> target 3, disp = 1
        b.j("top"); // idx 2 -> target 0, disp = -3
        b.label("end");
        b.halt(); // idx 3
        let p = b.build().unwrap();
        assert_eq!(p.insts()[1].imm, 1);
        assert_eq!(p.insts()[2].imm, -3);
        // Executing the j at its pc must land on "top".
        let pc2 = p.pc_of(2);
        let out = execute(&p.insts()[2], pc2, 0, 0);
        assert_eq!(next_pc(pc2, &out), p.pc_of(0));
    }

    #[test]
    fn undefined_label_errors() {
        let mut b = ProgramBuilder::new();
        b.j("nowhere");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let mut b = ProgramBuilder::new();
        b.label("x");
        b.nop();
        b.label("x");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicateLabel("x".into())
        );
    }

    #[test]
    fn inst_at_alignment_and_bounds() {
        let p = Program::from_insts([Inst::nop(), Inst::halt()]);
        assert!(p.inst_at(TEXT_BASE).is_some());
        assert!(p.inst_at(TEXT_BASE + 1).is_none()); // misaligned
        assert!(p.inst_at(TEXT_BASE + 8).is_none()); // past end
        assert_eq!(p.text_end(), TEXT_BASE + 8);
    }

    #[test]
    fn data_image_loads() {
        let mut b = ProgramBuilder::new();
        b.halt();
        b.data_u64(DATA_BASE, &[0xdead, 0xbeef]);
        b.data_f64(DATA_BASE + 64, &[1.5]);
        let p = b.build().unwrap();
        let mem = p.initial_memory();
        assert_eq!(mem.read_u64(DATA_BASE), 0xdead);
        assert_eq!(mem.read_u64(DATA_BASE + 8), 0xbeef);
        assert_eq!(f64::from_bits(mem.read_u64(DATA_BASE + 64)), 1.5);
    }

    #[test]
    fn overlapping_data_chunks_are_refused() {
        let build = |chunks: &[(u64, usize)]| {
            let mut b = ProgramBuilder::new();
            b.halt();
            for &(addr, len) in chunks {
                b.data_bytes(addr, &vec![1; len]);
            }
            b.build().map(|_| ())
        };
        let overlap = |addr| Err(BuildError::DataOverlap { addr });
        assert_eq!(build(&[(0x100, 8), (0x108, 8), (0xf8, 8)]), Ok(()));
        assert_eq!(build(&[(0x100, 8), (0x10, 0), (0x104, 0)]), Ok(()));
        assert_eq!(build(&[(0x100, 8), (0x104, 8)]), overlap(0x104));
        assert_eq!(build(&[(0x100, 8), (0xfc, 8)]), overlap(0x100));
        assert_eq!(
            build(&[(0x100, 8), (0x200, 8), (0x80, 0x400)]),
            overlap(0x100)
        );
        assert_eq!(build(&[(0x100, 8), (0x100, 1)]), overlap(0x100));
    }

    #[test]
    fn clones_share_one_data_image() {
        let mut b = ProgramBuilder::new();
        b.halt();
        b.data_u64(DATA_BASE, &[1; 1024]); // two pages
        let p = b.build().unwrap();
        let q = p.clone();
        assert!(std::ptr::eq(p.data_image(), q.data_image()));
        assert_eq!(p.data_image().page_count(), 2);
    }

    #[test]
    fn li_small_and_32bit() {
        use crate::emulator::Emulator;
        let r5 = IntReg::new(5);
        for v in [0i64, 7, -7, 32767, -32768, 65535, 0x1234_5678, -0x1234_5678] {
            let mut b = ProgramBuilder::new();
            b.li(r5, v);
            b.halt();
            let p = b.build().unwrap();
            let mut e = Emulator::new(&p);
            e.run(100).unwrap();
            assert_eq!(e.regs().read_int(r5) as i64, v, "li {v}");
        }
    }

    #[test]
    fn li_full_64bit() {
        use crate::emulator::Emulator;
        let r5 = IntReg::new(5);
        for v in [
            0x0123_4567_89ab_cdefu64 as i64,
            -1,
            i64::MIN,
            i64::MAX,
            0x8000_0000_0000_0001u64 as i64,
            0x0000_ffff_0000_ffffu64 as i64,
        ] {
            let mut b = ProgramBuilder::new();
            b.li(r5, v);
            b.halt();
            let p = b.build().unwrap();
            let mut e = Emulator::new(&p);
            e.run(100).unwrap();
            assert_eq!(
                e.regs().read_int(r5),
                v as u64,
                "li {v:#x} produced {:#x}",
                e.regs().read_int(r5)
            );
        }
    }
}
