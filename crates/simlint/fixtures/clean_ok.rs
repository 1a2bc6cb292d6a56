// Fixture: idiomatic sim code — the analyzer must stay silent, including on
// rule-like text inside strings and comments (.expect(""), Nanos(80)).
use std::collections::BTreeMap;

fn routes() -> BTreeMap<u32, u32> {
    let mut m = BTreeMap::new();
    m.insert(1, 2);
    m
}

fn label() -> &'static str {
    ".expect(\"\") Nanos(80) — strings do not trip rules"
}

fn head(q: &std::collections::VecDeque<u32>) -> u32 {
    *q.front().expect("caller checked backlog")
}
