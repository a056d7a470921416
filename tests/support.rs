//! Shared helpers for the cross-crate integration suite (included per test
//! binary via `mod support;`, and by path from `serve_demo` and the
//! throughput bench).

use ascend::serve::{ServePool, ServeRequest};
use ascend::InferenceBackend;
use ascend_tensor::Tensor;
use sc_core::ScError;

/// Asserts two logit tensors are equal to the last bit — the workspace's
/// one definition of the bit-identity contract that the serve-determinism,
/// golden-regression, and backend-parity suites all enforce.
pub fn assert_bit_identical(a: &Tensor, b: &Tensor, context: &str) {
    assert_eq!(a.shape(), b.shape(), "{context}: shapes differ");
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: logit {i} differs: {x} vs {y}");
    }
}

/// Serves every image in `patches` (`[images · num_patches, patch_dim]`)
/// through `pool` as one request per image: submits them all, then
/// collects in order and stacks the logits into `[images, classes]` — the
/// pooled counterpart of `backend.forward(patches, images)`. Submits block
/// while the queue is full and the workers drain it meanwhile, so any
/// queue depth works.
///
/// # Errors
///
/// The first submit or collect error, in image order.
pub fn serve_per_image<B: InferenceBackend + ?Sized + 'static>(
    pool: &ServePool<B>,
    patches: &Tensor,
) -> Result<Tensor, ScError> {
    let vit = pool.backend().vit_config();
    let (p, pd) = (vit.num_patches(), vit.patch_dim());
    let handles = patches
        .data()
        .chunks(p * pd)
        .map(|image| pool.submit(ServeRequest::new(Tensor::from_vec(image.to_vec(), &[p, pd]), 1)))
        .collect::<Result<Vec<_>, _>>()?;
    let images = handles.len();
    let mut logits = Vec::with_capacity(images * vit.classes);
    for handle in handles {
        logits.extend_from_slice(handle.collect()?.0.data());
    }
    Ok(Tensor::from_vec(logits, &[images, vit.classes]))
}
