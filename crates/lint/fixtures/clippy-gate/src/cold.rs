//! A module no panic, clock, container or cast lint is switched on in —
//! the scope every toolchain rule must stay out of. The workspace-wide
//! lints still apply.

use std::collections::HashMap;

// case: unwrap_in_a_cold_module_does_not_fire
pub fn unwrap(x: Option<u8>) -> u8 {
    if x == Some(0) {
        panic!("cold code may panic");
    }
    x.unwrap()
}

// case: hashmap_fires_in_deterministic_crates_only
pub fn counts(words: &[&str]) -> HashMap<String, usize> {
    let mut m = HashMap::new();
    for w in words {
        *m.entry((*w).to_string()).or_insert(0) += 1;
    }
    m
}

// case: narrowing_casts_fire_in_io_only
pub fn narrow(x: u64) -> usize {
    x as usize
}

// case: todo_and_unimplemented_are_denied_everywhere
pub fn later(x: u8) -> u8 {
    match x {
        0 => todo!(), //~ clippy::todo
        1 => unimplemented!(), //~ clippy::unimplemented
        _ => x,
    }
}

// case: dbg_macro_is_denied_everywhere
pub fn traced(x: u8) -> u8 {
    dbg!(x) //~ clippy::dbg_macro
}
