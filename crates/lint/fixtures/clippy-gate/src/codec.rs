//! The artifact codec: truncating casts are denied here, as in ascend-io.
#![deny(clippy::cast_possible_truncation)]

// case: narrowing_casts_fire_in_io_only
pub fn len(x: u64) -> usize {
    x as usize //~ clippy::cast_possible_truncation
}

// case: usize_to_u32_cast_fires_in_the_codec
pub fn count(n: usize) -> u32 {
    n as u32 //~ clippy::cast_possible_truncation
}

// case: float_to_int_cast_fires_in_the_codec
pub fn level(f: f64) -> u32 {
    f as u32 //~ clippy::cast_possible_truncation
}

// case: widening_casts_do_not_fire
pub fn widen(x: u32) -> (u64, f64) {
    let a = x as u64;
    let b = x as f64;
    (a, b)
}

// case: try_from_is_the_clean_codec_conversion
pub fn checked(x: u64) -> Option<u32> {
    u32::try_from(x).ok()
}
