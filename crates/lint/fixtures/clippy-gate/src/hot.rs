//! A hot-path module: the panic surface is denied here, as in
//! `crates/core/src/serve.rs` and the crate roots of sc-core, sc-nonlinear,
//! sc-hw, obs, registry and http; every other crate root denies it too.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

// case: unwrap_in_hot_path_is_deny_class
pub fn unwrap(x: Option<u8>) -> u8 {
    x.unwrap() //~ clippy::unwrap_used
}

// case: expect_in_hot_path_is_deny_class
pub fn expect(x: Result<u8, String>, y: Option<u8>) -> u8 {
    x.expect("typed errors instead") //~ clippy::expect_used
        + y.expect("typed errors instead") //~ clippy::expect_used
}

// case: panic_macros_fire_but_assert_does_not
pub fn macros(ok: bool, a: u8, b: u8) {
    assert!(ok);
    assert_eq!(a, b);
    if a > 1 {
        panic!("boom"); //~ clippy::panic
    }
    if b > 1 {
        unreachable!(); //~ clippy::unreachable
    }
}

// case: unwrap_or_variants_do_not_fire
pub fn fallbacks(x: Option<u8>, y: Option<u8>, z: Option<u8>, f: fn() -> u8) -> u8 {
    x.unwrap_or(0) + y.unwrap_or_else(f) + z.unwrap_or_default()
}

// case: commented_and_quoted_panics_do_not_fire
// x.unwrap() would panic!
/* y.expect("no") */
pub fn quoted() -> &'static str {
    "x.unwrap() panic!"
}

// case: test_module_panics_do_not_fire
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = "1".parse::<u8>().ok();
        assert_eq!(x.unwrap(), 1);
        assert_eq!(x.expect("set above"), 1);
        if x.is_none() {
            panic!("unset");
        }
    }
}
