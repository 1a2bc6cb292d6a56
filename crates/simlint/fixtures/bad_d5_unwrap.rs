// Known-bad fixture: D5 must fire on an expect that names no invariant.
// (`.unwrap()` is clippy's `unwrap_used`, denied in every sim crate.)
fn head(q: &std::collections::VecDeque<u32>) -> u32 {
    let a = q.front().expect("caller checked backlog");
    let b = q.back().expect("");
    *a + *b
}
