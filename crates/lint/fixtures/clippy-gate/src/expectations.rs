//! The escape hatch: `#[expect(lint, reason = "…")]` on the narrowest
//! statement or item.
#![deny(clippy::unwrap_used, clippy::expect_used)]

// case: expect_with_a_reason_suppresses_its_lint
pub fn waived(x: Option<u8>) -> u8 {
    #[expect(clippy::unwrap_used, reason = "the caller checked is_some")]
    let y = x.unwrap();
    y
}

// case: expect_does_not_leak_past_its_statement
pub fn scoped(x: Option<u8>) -> u8 {
    #[expect(clippy::unwrap_used, reason = "the caller checked is_some")]
    let y = x.unwrap();
    y + x.unwrap() //~ clippy::unwrap_used
}

// case: expect_for_the_wrong_lint_leaves_the_violation_and_is_unfulfilled
pub fn wrong(x: Option<u8>) -> u8 {
    #[expect(clippy::expect_used, reason = "wrong lint")] //~ unfulfilled_lint_expectations
    let y = x.unwrap(); //~ clippy::unwrap_used
    y
}

// case: stale_expect_is_unfulfilled
#[expect(clippy::unwrap_used, reason = "the unwrap was fixed long ago")] //~ unfulfilled_lint_expectations
pub fn fixed(x: Option<u8>) -> u8 {
    x.unwrap_or(0)
}

// case: allow_without_a_reason_is_denied
#[allow(clippy::unwrap_used)] //~ clippy::allow_attributes_without_reason
pub fn bare_allow(x: Option<u8>) -> u8 {
    x.unwrap()
}

// case: expect_without_a_reason_is_denied
#[expect(clippy::unwrap_used)] //~ clippy::allow_attributes_without_reason
pub fn bare_expect(x: Option<u8>) -> u8 {
    x.unwrap()
}

// case: allow_with_a_reason_is_accepted
#[allow(clippy::unwrap_used, reason = "kept as an allow to show the reason is what counts")]
pub fn reasoned_allow(x: Option<u8>) -> u8 {
    x.unwrap()
}
