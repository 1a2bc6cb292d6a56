// Fixture: every violation here carries a suppression — zero findings.
fn head(q: &std::collections::VecDeque<u32>) -> u32 {
    *q.front().expect("") // simlint: allow(D5) — fixture demonstrating suppression
}

fn tail(q: &std::collections::VecDeque<u32>) -> u32 {
    // simlint: allow(D5) — the comment-only line above covers this one
    *q.back().expect("")
}
