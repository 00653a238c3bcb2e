//! The synthetic-benchmark program generator.
//!
//! One generated program is a prologue (base registers, chain seeds, FP
//! constants), a main loop whose body is emitted by a greedy
//! largest-deficit scheduler against the profile's Table 2 mix targets,
//! and an epilogue that folds the chains into memory so the whole
//! computation is architecturally observable (and oracle-checkable).
//!
//! Expected *dynamic* instruction counts are tracked during emission —
//! branch diamonds contribute the probability-weighted length of their two
//! paths — so the measured committed mix lands on the Table 2 targets.

use crate::profile::WorkloadProfile;
use ftsim_isa::{FpReg, IntReg, Program, ProgramBuilder, DATA_BASE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dynamic instructions targeted per loop-body iteration.
const BODY_TARGET: f64 = 300.0;
/// Bytes of the working set addressed between window advances.
const WINDOW: usize = 2048;

/// What the generator emitted, for calibration tests and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorReport {
    /// Expected dynamic counts per body iteration:
    /// `[mem, int, fp_add, fp_mul, fp_div]`.
    pub expected: [f64; 5],
    /// Expected dynamic conditional branches per iteration (including the
    /// loop-back branch).
    pub branches: f64,
    /// Static body length in instructions.
    pub static_body: usize,
}

impl GeneratorReport {
    /// Expected dynamic mix fraction of class `i`
    /// (`[mem, int, fp_add, fp_mul, fp_div]`).
    pub fn fraction(&self, i: usize) -> f64 {
        let total: f64 = self.expected.iter().sum();
        self.expected[i] / total
    }
}

// Register conventions (see module docs in `profile`).
const LOOP_CTR: IntReg = int(9);
const BASE: IntReg = int(10);
const WOFF: IntReg = int(11);
const PTR: IntReg = int(12);
const COND: IntReg = int(14);
const DIV_ONE: IntReg = int(15);
const DIV_CHAIN: IntReg = int(16);
const FIRST_CHAIN: u8 = 17; // r17.. (up to 8 chains)
const FIRST_TMP: u8 = 25; // r25..r28 load temps

const fn int(i: u8) -> IntReg {
    IntReg::new(i)
}

const FP_ADD_CONST: FpReg = fp(30);
const FP_MUL_CONST: FpReg = fp(31);
const FIRST_FP_CHAIN: u8 = 1;
const FIRST_FP_TMP: u8 = 26; // f26..f29 fp load temps

const fn fp(i: u8) -> FpReg {
    FpReg::new(i)
}

struct Emitter<'a> {
    b: ProgramBuilder,
    p: &'a WorkloadProfile,
    rng: SmallRng,
    counts: [f64; 5],
    branches: f64,
    mem_counter: usize,
    chain_rot: usize,
    fp_rot: usize,
    tmp_rot: usize,
    fp_tmp_rot: usize,
    label_counter: usize,
    offset_slot: usize,
    shift_rot: usize,
}

impl<'a> Emitter<'a> {
    fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    fn chain(&mut self) -> IntReg {
        let r = IntReg::new(FIRST_CHAIN + (self.chain_rot % self.p.chains) as u8);
        self.chain_rot += 1;
        r
    }

    fn fp_chain(&mut self) -> FpReg {
        let n = self.p.fp_chains.max(1);
        let r = FpReg::new(FIRST_FP_CHAIN + (self.fp_rot % n) as u8);
        self.fp_rot += 1;
        r
    }

    fn tmp(&mut self) -> IntReg {
        let r = IntReg::new(FIRST_TMP + (self.tmp_rot % 4) as u8);
        self.tmp_rot += 1;
        r
    }

    fn last_tmp(&self) -> IntReg {
        IntReg::new(FIRST_TMP + (self.tmp_rot.wrapping_sub(1) % 4) as u8)
    }

    fn fp_tmp(&mut self) -> FpReg {
        let r = FpReg::new(FIRST_FP_TMP + (self.fp_tmp_rot % 4) as u8);
        self.fp_tmp_rot += 1;
        r
    }

    /// The next offset within the current window: a dense walk over the
    /// profile's reuse span, so the first pass misses each line and later
    /// passes hit — giving a per-profile, tunable L1 miss rate.
    fn offset(&mut self) -> i32 {
        let step = self.p.stride.max(8);
        let span = self.p.reuse_span.min(WINDOW).max(step);
        let off = (self.offset_slot * step) % span;
        self.offset_slot += 1;
        (off & !7) as i32
    }

    /// One integer chain operation (dependence within the chain only).
    fn emit_chain_op(&mut self) {
        let c = self.chain();
        match self.rng.gen_range(0..4u32) {
            0 => self.b.addi(c, c, 3),
            1 => self.b.xori(c, c, 0x55),
            2 => self.b.addi(c, c, -1),
            _ => self.b.ori(c, c, 0x21),
        };
        self.counts[1] += 1.0;
    }

    /// One serially-dependent integer division (ammp's critical path).
    fn emit_serial_div(&mut self) {
        self.b.div(DIV_CHAIN, DIV_CHAIN, DIV_ONE);
        self.counts[1] += 1.0;
    }

    /// One memory unit: occasional window advance, then a load or store
    /// (2:1), FP loads interleaved on FP-heavy profiles.
    fn emit_mem(&mut self) {
        self.mem_counter += 1;
        if self.mem_counter % self.p.ops_per_window.max(1) == 0 && self.p.working_set > WINDOW {
            // Advance the window pointer through the working set.
            let mask = (self.p.working_set - 1) as i32;
            self.b.addi(WOFF, WOFF, WINDOW as i32);
            self.b.andi(WOFF, WOFF, mask);
            self.b.add(PTR, BASE, WOFF);
            self.counts[1] += 3.0;
            self.offset_slot = 0;
        }
        let is_store = self.mem_counter % 3 == 0;
        let off = self.offset();
        if is_store {
            let data = IntReg::new(FIRST_CHAIN + (self.mem_counter % self.p.chains) as u8);
            self.b.sd(data, PTR, off);
        } else if self.p.fp_chains > 0 && self.mem_counter % 3 == 1 && self.p.mix.fp_total() > 0.05
        {
            let ft = self.fp_tmp();
            self.b.lfd(ft, PTR, off);
        } else {
            let t = self.tmp();
            self.b.ld(t, PTR, off);
            if self.p.load_consume {
                let c = self.chain();
                self.b.add(c, c, t);
                self.counts[1] += 1.0;
            }
        }
        self.counts[0] += 1.0;
    }

    /// One conditional-branch diamond testing a pseudo-random bit of the
    /// most recent loaded value.
    fn emit_branch(&mut self) {
        let mask = self.p.branch_bias_mask as i32;
        let p_taken = 1.0 / f64::from(self.p.branch_bias_mask + 1);
        let shifts = [3u32, 7, 13, 19, 29, 37, 43, 53];
        let sh = shifts[self.shift_rot % shifts.len()] as i32;
        self.shift_rot += 1;
        let id = self.label_counter;
        self.label_counter += 1;
        let skip = format!("bs{id}");
        let join = format!("bj{id}");

        let src = self.last_tmp();
        self.b.srli(COND, src, sh);
        self.b.andi(COND, COND, mask);
        self.b.beq(COND, IntReg::ZERO, &skip);
        // Not-taken path: one chain op plus the join jump.
        let c1 = self.chain();
        self.b.addi(c1, c1, 5);
        self.b.j(&join);
        self.b.label(&skip);
        // Taken path: one chain op.
        let c2 = self.chain();
        self.b.xori(c2, c2, 0x0f);
        self.b.label(&join);

        // Expected dynamic: srli + andi + beq always; then taken path (1)
        // with probability p, not-taken path (2) otherwise.
        self.counts[1] += 3.0 + p_taken + 2.0 * (1.0 - p_taken);
        self.branches += 1.0;
    }

    fn emit_fp(&mut self, class: usize) {
        let c = self.fp_chain();
        match class {
            2 => {
                // Every fourth FP add consumes a loaded FP temp,
                // creating memory-to-FP dependences (fpppp-style).
                if self.fp_rot % 4 == 0 && self.p.mix.mem > 0.3 {
                    let t = FpReg::new(FIRST_FP_TMP + (self.fp_tmp_rot % 4) as u8);
                    self.b.fadd(c, c, t);
                } else {
                    self.b.fadd(c, c, FP_ADD_CONST);
                }
            }
            3 => {
                self.b.fmul(c, c, FP_MUL_CONST);
            }
            _ => {
                self.b.fdiv(c, c, FP_MUL_CONST);
            }
        }
        self.counts[class] += 1.0;
    }

    /// Emits the whole loop body by greedy largest-deficit scheduling.
    fn emit_body(&mut self) {
        let targets = [
            self.p.mix.mem,
            self.p.mix.int,
            self.p.mix.fp_add,
            self.p.mix.fp_mul,
            self.p.mix.fp_div,
        ];
        // Account for the loop-back overhead up front (addi + bne).
        self.counts[1] += 2.0;
        self.branches += 1.0;

        let mut divs_emitted = 0.0f64;
        while self.total() < BODY_TARGET {
            let total = self.total();
            // Largest-deficit class wins; classes with a zero target never
            // emit (ties would otherwise leak stray FP ops into integer
            // benchmarks), and ties break toward the earliest class.
            let (class, _) = targets
                .iter()
                .enumerate()
                .filter(|(_, t)| **t > 0.0)
                .map(|(i, t)| (i, t * total - self.counts[i]))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("at least one nonzero target");
            match class {
                0 => self.emit_mem(),
                1 => {
                    if divs_emitted < self.p.serial_div_frac * total {
                        self.emit_serial_div();
                        divs_emitted += 1.0;
                    } else if self.branches < self.p.branch_frac * total {
                        self.emit_branch();
                    } else {
                        self.emit_chain_op();
                    }
                }
                c => self.emit_fp(c),
            }
        }
    }
}

/// Generates the program for `profile` with `iterations` loop passes.
///
/// # Panics
///
/// Panics if the profile is malformed (label collisions are impossible by
/// construction; builder errors indicate a generator bug).
pub(crate) fn generate(profile: &WorkloadProfile, iterations: u32) -> (Program, GeneratorReport) {
    assert!(iterations >= 1, "need at least one iteration");
    assert!(
        (1..=8).contains(&profile.chains),
        "integer chains must be 1..=8"
    );
    assert!(profile.fp_chains <= 6, "fp chains must be <= 6");
    assert!(
        profile.working_set.is_power_of_two(),
        "working set must be a power of two"
    );

    let mut rng = SmallRng::seed_from_u64(profile.seed);
    let mut b = ProgramBuilder::new();

    // --- Data image ----------------------------------------------------
    // Pseudo-random working set (branch conditions read these values).
    let words = (profile.working_set / 8).min(1 << 20);
    let data: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
    b.data_u64(DATA_BASE, &data);
    // FP constants placed just past the working set.
    let const_base = DATA_BASE + profile.working_set as u64 + 64;
    b.data_f64(const_base, &[0.0009765625, 0.9999995]);
    let chain_inits: Vec<f64> = (0..6).map(|i| 1.0 + i as f64 * 0.125).collect();
    b.data_f64(const_base + 16, &chain_inits);

    // --- Prologue -------------------------------------------------------
    b.li(BASE, DATA_BASE as i64);
    b.addi(WOFF, IntReg::ZERO, 0);
    b.add(PTR, BASE, IntReg::ZERO);
    b.addi(DIV_ONE, IntReg::ZERO, 1);
    b.li(DIV_CHAIN, 1_000_001);
    for i in 0..profile.chains {
        b.addi(
            IntReg::new(FIRST_CHAIN + i as u8),
            IntReg::ZERO,
            (i as i32) * 7 + 3,
        );
    }
    // Pre-load the temps so branch conditions have data from cycle one.
    for i in 0..4 {
        b.ld(IntReg::new(FIRST_TMP + i), BASE, i as i32 * 8);
    }
    let cb = const_base as i64;
    let scratch = IntReg::new(13);
    b.li(scratch, cb);
    b.lfd(FP_ADD_CONST, scratch, 0);
    b.lfd(FP_MUL_CONST, scratch, 8);
    for i in 0..profile.fp_chains.max(1) {
        b.lfd(
            FpReg::new(FIRST_FP_CHAIN + i as u8),
            scratch,
            16 + i as i32 * 8,
        );
    }
    for i in 0..4 {
        b.lfd(FpReg::new(FIRST_FP_TMP + i), scratch, 16 + i as i32 * 8);
    }
    b.li(LOOP_CTR, i64::from(iterations));
    b.label("main_loop");

    // --- Body -----------------------------------------------------------
    let static_start = b.here();
    let mut em = Emitter {
        b,
        p: profile,
        rng,
        counts: [0.0; 5],
        branches: 0.0,
        mem_counter: 0,
        chain_rot: 0,
        fp_rot: 0,
        tmp_rot: 4, // prologue pre-loaded 4 temps
        fp_tmp_rot: 0,
        label_counter: 0,
        offset_slot: 0,
        shift_rot: 0,
    };
    em.emit_body();
    let Emitter {
        mut b,
        counts,
        branches,
        ..
    } = em;
    let static_body = b.here() - static_start;

    // --- Loop-back and epilogue -----------------------------------------
    b.addi(LOOP_CTR, LOOP_CTR, -1);
    b.bne(LOOP_CTR, IntReg::ZERO, "main_loop");
    // Fold every chain into a checksum past the working set, so all
    // computation is architecturally live and the oracle can verify it.
    let sink = IntReg::new(13);
    b.li(sink, (DATA_BASE + profile.working_set as u64 + 1024) as i64);
    let acc = IntReg::new(FIRST_CHAIN);
    for i in 1..profile.chains {
        b.add(acc, acc, IntReg::new(FIRST_CHAIN + i as u8));
    }
    b.add(acc, acc, DIV_CHAIN);
    b.sd(acc, sink, 0);
    if profile.fp_chains > 0 {
        let facc = FpReg::new(FIRST_FP_CHAIN);
        for i in 1..profile.fp_chains {
            b.fadd(facc, facc, FpReg::new(FIRST_FP_CHAIN + i as u8));
        }
        b.sfd(facc, sink, 8);
    }
    b.halt();

    let program = b
        .build()
        .expect("generator produces valid labels and disjoint data");
    (
        program,
        GeneratorReport {
            expected: counts,
            branches,
            static_body,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::spec_profiles;

    #[test]
    fn reports_hit_table2_targets() {
        for p in spec_profiles() {
            let (_, report) = p.program_with_report(2);
            let names = ["mem", "int", "fp_add", "fp_mul", "fp_div"];
            let targets = [
                p.mix.mem,
                p.mix.int,
                p.mix.fp_add,
                p.mix.fp_mul,
                p.mix.fp_div,
            ];
            for i in 0..5 {
                let got = report.fraction(i);
                assert!(
                    (got - targets[i]).abs() < 0.03,
                    "{}: {} expected {:.3} got {:.3}",
                    p.name,
                    names[i],
                    targets[i],
                    got
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = &spec_profiles()[0];
        let a = p.program(3);
        let b = p.program(3);
        assert_eq!(a, b);
    }

    #[test]
    fn programs_run_to_halt_on_the_oracle() {
        use ftsim_isa::Emulator;
        for p in spec_profiles() {
            let prog = p.program(3);
            let mut emu = Emulator::new(&prog);
            let retired = emu
                .run(3_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(retired > 500, "{}: only {retired} instructions", p.name);
        }
    }

    #[test]
    fn dynamic_length_scales_with_iterations() {
        use ftsim_isa::Emulator;
        let p = &spec_profiles()[2]; // go
        let short = {
            let mut e = Emulator::new(&p.program(2));
            e.run(10_000_000).unwrap()
        };
        let long = {
            let mut e = Emulator::new(&p.program(8));
            e.run(10_000_000).unwrap()
        };
        let ratio = long as f64 / short as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn program_for_instructions_is_close() {
        use ftsim_isa::Emulator;
        let p = &spec_profiles()[4]; // ijpeg
        let prog = p.program_for_instructions(30_000);
        let mut e = Emulator::new(&prog);
        let retired = e.run(10_000_000).unwrap();
        assert!(
            (20_000..60_000).contains(&retired),
            "retired {retired} for a 30k request"
        );
    }

    #[test]
    fn working_set_is_touched_but_not_exceeded_much() {
        use ftsim_isa::Emulator;
        let p = spec_profiles()
            .into_iter()
            .find(|p| p.name == "ijpeg")
            .unwrap();
        let prog = p.program(8);
        let mut e = Emulator::new(&prog);
        e.run(10_000_000).unwrap();
        // Stores must stay inside [DATA_BASE, DATA_BASE + ws + 2KB).
        let hi = DATA_BASE + p.working_set as u64 + 2048;
        let pages = e.mem().page_count() as u64;
        assert!(pages * 4096 <= p.working_set as u64 + 16 * 4096);
        let _ = hi;
    }
}
