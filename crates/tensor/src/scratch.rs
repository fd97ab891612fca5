//! Reusable scratch memory for the compute kernels.
//!
//! The hot path of the pruned-encoder pipeline calls GEMM several times per
//! block; without an arena every call would heap-allocate a packed-panel
//! buffer (and, for `_into` callers, an output tensor). [`Scratch`] owns
//! those buffers and hands out resized views, so steady-state kernel calls
//! perform **zero** allocations once the high-water mark is reached.
//!
//! Kernels that keep the allocating convenience signature (e.g.
//! [`crate::matmul::matmul`]) draw from a thread-local `Scratch` instead,
//! which amortizes the same way across repeated calls on one thread.

use std::cell::Cell;

/// Arena of reusable `f32` buffers for GEMM packing and kernel staging.
///
/// # Example
///
/// ```
/// use defa_tensor::{Scratch, Tensor, matmul::matmul_into};
///
/// # fn main() -> Result<(), defa_tensor::TensorError> {
/// let mut scratch = Scratch::new();
/// let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2])?;
/// let b = Tensor::from_vec(vec![3.0, 4.0], [2, 1])?;
/// let mut out = Tensor::zeros([1, 1]);
/// matmul_into(&a, &b, &mut out, &mut scratch)?;
/// assert_eq!(out.as_slice(), &[11.0]);
/// // Subsequent same-shape calls reuse every buffer.
/// matmul_into(&a, &b, &mut out, &mut scratch)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Scratch {
    packed_b: Vec<f32>,
}

impl Scratch {
    /// Creates an empty arena; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// A packed-operand buffer of exactly `len` elements.
    ///
    /// Contents are **unspecified** (stale data from earlier calls) —
    /// packing fully overwrites the buffer, including zero-padding ragged
    /// panel tails, so re-zeroing here would be a redundant memset on the
    /// hot path. The buffer keeps its high-water-mark capacity between
    /// calls, so steady-state use never reallocates.
    pub(crate) fn packed_b(&mut self, len: usize) -> &mut [f32] {
        if self.packed_b.len() < len {
            self.packed_b.resize(len, 0.0);
        }
        &mut self.packed_b[..len]
    }

    /// Current capacity of the packing buffer in elements (its allocation
    /// high-water mark).
    pub fn capacity(&self) -> usize {
        self.packed_b.capacity()
    }
}

thread_local! {
    static TLS_SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's shared [`Scratch`] arena — how the
/// allocating kernels and the `_into` callers without an arena of their
/// own amortize packing buffers across calls.
///
/// The arena is taken out of the thread-local for the call and put back
/// after it, so a reentrant call runs with a fresh arena instead of
/// panicking on a second borrow.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = TLS_SCRATCH.take().unwrap_or_default();
    let r = f(&mut scratch);
    TLS_SCRATCH.set(Some(scratch));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_without_reallocation() {
        let mut s = Scratch::new();
        {
            let b = s.packed_b(16);
            assert_eq!(b.len(), 16);
            b[3] = 5.0;
        }
        // Shrinking or same-size requests reuse the allocation (contents
        // unspecified — callers fully overwrite).
        let cap = s.capacity();
        let b = s.packed_b(8);
        assert_eq!(b.len(), 8);
        assert_eq!(s.capacity(), cap);
    }

    #[test]
    fn thread_scratch_is_reentrant_per_call() {
        let cap = with_thread_scratch(|s| {
            s.packed_b(1024);
            s.capacity()
        });
        assert!(cap >= 1024);
        // Second borrow sees the same arena.
        let cap2 = with_thread_scratch(|s| s.capacity());
        assert_eq!(cap, cap2);
    }
}
