//! Tripwire for copy-on-write data images: every machine built from one
//! program starts from that program's laid-out image without copying a
//! page, a store peels exactly the page it lands in, and neither the
//! image nor a sibling machine ever sees the store.

use ftsim_core::{MachineConfig, Processor};
use ftsim_faults::FaultInjector;
use ftsim_isa::{Emulator, IntReg, Program, ProgramBuilder, DATA_BASE};
use ftsim_mem::{MemDiff, PAGE_BYTES};
use std::sync::Arc;

/// Word 1 of the image's third page, which the program overwrites.
const STORE_AT: u64 = DATA_BASE + 2 * PAGE_BYTES as u64 + 8;

/// Four pages of nonzero data and one store into the third.
fn program() -> Arc<Program> {
    let (addr, value) = (IntReg::new(1), IntReg::new(2));
    let mut b = ProgramBuilder::new();
    b.li(addr, STORE_AT as i64);
    b.li(value, 0x77);
    b.sd(value, addr, 0);
    b.halt();
    let words: Vec<u64> = (1..=(PAGE_BYTES as u64 / 2)).collect(); // four pages
    b.data_u64(DATA_BASE, &words);
    Arc::new(b.build().unwrap())
}

fn processor(program: &Arc<Program>) -> Processor {
    Processor::with_shared_program(
        MachineConfig::ss2(),
        Arc::clone(program),
        FaultInjector::none(),
    )
}

#[test]
fn machines_share_the_image_and_stores_peel_one_page() {
    let program = program();
    let image = program.initial_memory();
    let pages = program.data_image().page_count();
    assert_eq!(pages, 4);
    let original = image.read_u64(STORE_AT);

    let mut a = processor(&program);
    let sibling = processor(&program);
    let mut emu = Emulator::new(&program);
    assert_eq!(a.mem().pages_shared_with(&image), pages);
    assert_eq!(sibling.mem().pages_shared_with(&image), pages);
    assert_eq!(emu.mem().pages_shared_with(&image), pages);

    while !a.halted() {
        a.cycle();
    }
    assert_eq!(a.mem().read_u64(STORE_AT), 0x77);
    assert_eq!(a.mem().pages_shared_with(&image), pages - 1);
    assert_eq!(sibling.mem().read_u64(STORE_AT), original);
    assert_eq!(image.read_u64(STORE_AT), original);
    assert_eq!(program.initial_memory().read_u64(STORE_AT), original);

    // The oracle peels the same page; the shared ones compare equal
    // unread and the two peeled copies agree.
    emu.run(100).unwrap();
    assert_eq!(emu.mem().pages_shared_with(&image), pages - 1);
    assert!(emu.mem().diff(a.mem(), 4).is_empty());
    // A one-word change in the peeled page is still found.
    assert_eq!(
        image.diff(a.mem(), 4),
        [MemDiff {
            addr: STORE_AT,
            left: original,
            right: 0x77
        }]
    );
}
