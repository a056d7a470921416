//! `unsafe_code` is forbidden workspace-wide through `[workspace.lints]`,
//! with no per-root attribute.

// case: unsafe_block_is_forbidden
pub fn text(b: &[u8]) -> &str {
    // SAFETY: none; the crate must not compile with this block.
    unsafe { std::str::from_utf8_unchecked(b) } //~ unsafe_code
}

// case: unsafe_fn_is_forbidden
/// # Safety
///
/// Always safe to call; the declaration alone is what the lint rejects.
pub unsafe fn raw() {} //~ unsafe_code

// case: unsafe_impl_is_forbidden
pub struct Handle(pub *const u8);
// SAFETY: none; the crate must not compile with this impl.
unsafe impl Send for Handle {} //~ unsafe_code
