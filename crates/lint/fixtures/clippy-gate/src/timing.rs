//! The timing authority: like `ascend-obs`, this module reads the clock
//! freely.

use std::time::{Instant, SystemTime};

// case: instant_now_is_deny_class_everywhere_but_the_timing_authority
pub fn start() -> Instant {
    Instant::now()
}

// case: system_time_in_the_timing_authority_does_not_fire
pub fn wall() -> SystemTime {
    SystemTime::now()
}
