//! P3 fixture: fault-injection code sourcing randomness outside the
//! dedicated FAULT_STREAM. Seeding a private generator (line 8) or
//! borrowing another subsystem's stream by raw number (line 9) couples
//! fault draws to the workload/ECMP/RED sequences, even though naming two
//! streams makes the function a stream distributor.

fn build_fault_channel(seed: u64, root: &mut DetRng) -> (DetRng, DetRng, DetRng) {
    let private = DetRng::new(seed);
    let borrowed = root.stream(2);
    let sanctioned = root.stream(FAULT_STREAM); // the one right way
    (private, borrowed, sanctioned)
}
