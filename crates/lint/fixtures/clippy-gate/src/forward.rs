//! A bit-identical-output module: wall-clock reads and unordered
//! containers are denied here, as in the roots of sc-core, sc-nonlinear,
//! sc-hw, tensor, vit, io and core (the clock also in registry, http,
//! bench and cli). The unbounded `mpsc::channel` is denied wherever the
//! clock is.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant, SystemTime};

// case: instant_now_is_deny_class_everywhere_but_the_timing_authority
pub fn stamp() -> Instant {
    Instant::now() //~ clippy::disallowed_methods
}

// case: system_time_fires_anywhere_in_forward_scope
pub fn wall() -> SystemTime {
    std::time::SystemTime::now() //~ clippy::disallowed_methods
}

// case: importing_instant_without_calling_now_is_fine
pub fn later(t: Instant) -> Instant {
    t + Duration::from_millis(1)
}

// case: elapsed_on_a_passed_in_instant_is_fine
pub fn age(t: Instant) -> Duration {
    t.elapsed()
}

// case: hashmap_fires_in_deterministic_crates_only
pub fn table() -> usize {
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new(); //~ clippy::disallowed_types
    m.len()
}

// case: hashset_fires_in_deterministic_crates
pub fn seen(xs: &[u32]) -> usize {
    xs.iter().collect::<std::collections::HashSet<_>>().len() //~ clippy::disallowed_types
}

// case: btreemap_is_always_fine
pub fn ordered(xs: &[u32]) -> (BTreeMap<u32, u32>, BTreeSet<u32>) {
    (xs.iter().map(|x| (*x, *x)).collect(), xs.iter().copied().collect())
}

// case: unbounded_channel_is_denied_where_the_clock_is
pub fn unbounded() -> std::sync::mpsc::Sender<u32> {
    std::sync::mpsc::channel().0 //~ clippy::disallowed_methods
}

// case: sync_channel_is_the_bounded_queue_and_is_fine
pub fn bounded() -> std::sync::mpsc::SyncSender<u32> {
    std::sync::mpsc::sync_channel(4).0
}

// case: wallclock_in_test_code_still_needs_an_expect
#[cfg(test)]
mod tests {
    #[test]
    fn deadline() {
        let t = std::time::Instant::now(); //~ clippy::disallowed_methods
        assert!(t.elapsed().as_secs() < 60);
    }
}
