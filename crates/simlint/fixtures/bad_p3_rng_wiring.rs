//! P3 fixture: fault randomness wired up outside fault code. Neither the
//! file nor any function here is named for faults, yet each flagged site
//! seeds or draws fault randomness off FAULT_STREAM, found from the names
//! at the site itself.

fn wire_links(seed: u64) -> DetRng {
    let fault_rng = DetRng::new(seed); // a fault-named binding
    fault_rng
}

fn build_net(cfg: &NetConfig) -> Network {
    let rng = DetRng::new(cfg.fault_seed); // seeded from a fault identifier
    Network {
        rng,
        fault_rng: DetRng::new(cfg.seed), // a fault-named struct field
    }
}

impl Network {
    fn reset(&mut self, root: &mut DetRng) {
        self.fault_rng = root.stream(ECMP_STREAM); // a fault-named target
    }

    fn reseed(&mut self, root: &mut DetRng) {
        self.rng = DetRng::new(self.cfg.seed); // not fault code: silent
        self.fault_rng = root.stream(FAULT_STREAM); // the one right way
    }
}
