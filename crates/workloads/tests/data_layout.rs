//! Every shipped program lays its data out without overlap: each Table 2
//! profile, hand-written kernel, graduated workload and 64 `fuzzgen`
//! seeds build (`ProgramBuilder::build` refuses overlapping chunks), and
//! the laid-out image holds every chunk's bytes exactly as written.

use ftsim_isa::Program;
use ftsim_workloads::{
    dot_product, fibonacci, graduated_workloads, pointer_chase, spec_profiles, FuzzSpec,
};

fn assert_laid_out(name: &str, program: &Program) {
    let mem = program.initial_memory();
    for (addr, bytes) in program.data() {
        for (i, &b) in bytes.iter().enumerate() {
            let at = addr + i as u64;
            assert_eq!(mem.read_u8(at), b, "{name}: byte at {at:#x}");
        }
    }
}

#[test]
fn every_registered_program_lays_out_without_overlap() {
    for p in spec_profiles() {
        assert_laid_out(p.name, &p.program(1));
    }
    assert_laid_out("dot_product", &dot_product(64));
    assert_laid_out("fibonacci", &fibonacci(10));
    assert_laid_out("pointer_chase", &pointer_chase(64, 100));
    for g in graduated_workloads() {
        assert_laid_out(g.name, &g.generate().program);
    }
    for seed in 0..64 {
        let fp = FuzzSpec::from_seed(seed).generate();
        assert_laid_out(&format!("fuzzgen seed {seed}"), &fp.program);
    }
}
