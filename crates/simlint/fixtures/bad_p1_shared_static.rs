//! P1 fixture: shared mutable globals in sim code. `EVENT_COUNT` and
//! `DROPS` must fire at their declarations; `DROPS` is additionally
//! referenced from the `run` hot path, so its finding carries a witness
//! chain. (`thread_local!` is clippy's `disallowed_macros`.)

use std::sync::atomic::AtomicU64;

static mut EVENT_COUNT: u64 = 0;

static DROPS: AtomicU64 = AtomicU64::new(0);

pub fn run(steps: u64) -> u64 {
    let mut done = 0;
    while done < steps {
        done += bump();
    }
    done
}

fn bump() -> u64 {
    DROPS.fetch_add(1, Ordering::Relaxed);
    1
}
