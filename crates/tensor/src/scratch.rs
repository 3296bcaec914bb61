//! Thread-local scratch-buffer arena for kernel temporaries.
//!
//! The hot kernels (`conv2d` forward/backward, the packed matmul panels,
//! max-pool argmax tracking) all need short-lived buffers whose sizes
//! repeat across calls: every forward pass of a given layer pads its
//! samples into the same planes and packs the same weights, every round
//! re-runs the same layers. Allocating those with `vec![0.0; n]` per call
//! puts an allocator round-trip and a page-fault warm-up on every
//! invocation. This arena keeps returned buffers in a thread-local pool
//! keyed by nothing but recency — `take` hands back the most recently
//! returned buffer, grown if needed — so steady-state kernel code
//! performs **zero** heap allocations.
//!
//! Ownership rules:
//!
//! * A [`ScratchF32`]/[`ScratchUsize`] guard owns its buffer exclusively;
//!   dropping it returns the buffer to the current thread's pool.
//! * Guards must not be sent across threads (they are deliberately
//!   `!Send`-ish by construction: nothing stops a move, but the buffer
//!   then simply migrates pools — correctness is unaffected).
//! * Buffers come back **zero-filled** (`take`) or uninitialised-but-set
//!   to a value (`take_filled`); kernels that overwrite every element can
//!   use `take_filled` with any value, padding-aware kernels (conv's
//!   padded planes and dY rows) rely on the zeroing.
//! * The pool caps both the number of parked buffers and the bytes it
//!   will retain, so a one-off giant temporary does not pin memory
//!   forever.
//!
//! Rayon interplay: each worker thread has its own pool, so parallel
//! per-sample conv loops reuse one buffer set per worker — exactly as
//! many live buffers as there are threads, regardless of batch size.

use std::cell::RefCell;

/// Maximum number of parked buffers per pool per thread.
const POOL_MAX_BUFFERS: usize = 8;
/// Maximum elements a parked buffer may keep; larger ones are freed on
/// return so a single huge temporary cannot pin memory.
const POOL_MAX_ELEMS: usize = 1 << 24; // 64 MiB of f32

thread_local! {
    static F32_POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    static USIZE_POOL: RefCell<Vec<Vec<usize>>> = const { RefCell::new(Vec::new()) };
}

macro_rules! scratch_impl {
    ($guard:ident, $elem:ty, $pool:ident, $take:ident, $take_filled:ident, $doc:expr) => {
        #[doc = $doc]
        ///
        /// Dereferences to a slice of the requested length; the backing
        /// buffer returns to the thread-local pool on drop.
        pub struct $guard {
            buf: Vec<$elem>,
            len: usize,
        }

        impl std::ops::Deref for $guard {
            type Target = [$elem];
            #[inline]
            fn deref(&self) -> &[$elem] {
                &self.buf[..self.len]
            }
        }

        impl std::ops::DerefMut for $guard {
            #[inline]
            fn deref_mut(&mut self) -> &mut [$elem] {
                &mut self.buf[..self.len]
            }
        }

        impl Drop for $guard {
            fn drop(&mut self) {
                let buf = std::mem::take(&mut self.buf);
                if buf.capacity() == 0 || buf.capacity() > POOL_MAX_ELEMS {
                    return;
                }
                $pool.with(|p| {
                    let mut p = p.borrow_mut();
                    if p.len() < POOL_MAX_BUFFERS {
                        p.push(buf);
                    }
                });
            }
        }

        /// Borrows a zero-filled scratch buffer of `len` elements from the
        /// current thread's pool (allocating only if the pool is empty).
        pub fn $take(len: usize) -> $guard {
            $take_filled(len, <$elem>::default())
        }

        /// Borrows a scratch buffer of `len` elements with every element
        /// set to `fill`.
        pub fn $take_filled(len: usize, fill: $elem) -> $guard {
            let mut buf = $pool.with(|p| p.borrow_mut().pop()).unwrap_or_default();
            buf.clear();
            buf.resize(len, fill);
            $guard { buf, len }
        }
    };
}

scratch_impl!(
    ScratchF32,
    f32,
    F32_POOL,
    take_f32,
    take_f32_filled,
    "An `f32` scratch buffer borrowed from the thread-local arena."
);
scratch_impl!(
    ScratchUsize,
    usize,
    USIZE_POOL,
    take_usize,
    take_usize_filled,
    "A `usize` scratch buffer borrowed from the thread-local arena."
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_and_sized() {
        let mut a = take_f32(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x == 0.0));
        a[7] = 3.5;
        drop(a);
        // The recycled buffer must come back clean.
        let b = take_f32(50);
        assert_eq!(b.len(), 50);
        assert!(b.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn reuse_avoids_reallocation() {
        let a = take_f32(1024);
        let ptr = a.as_ptr();
        drop(a);
        let b = take_f32(512); // smaller fits in the recycled buffer
        assert_eq!(b.as_ptr(), ptr, "pool should hand back the same buffer");
    }

    #[test]
    fn filled_variant_sets_every_element() {
        let a = take_f32_filled(17, 2.5);
        assert!(a.iter().all(|&x| x == 2.5));
        let b = take_usize_filled(9, 42);
        assert!(b.iter().all(|&x| x == 42));
    }

    #[test]
    fn nested_borrows_are_distinct() {
        let mut a = take_f32(8);
        let mut b = take_f32(8);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(a[0], 1.0);
        assert_eq!(b[0], 2.0);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let a = take_f32(POOL_MAX_ELEMS + 1);
        let ptr = a.as_ptr();
        drop(a);
        let b = take_f32(POOL_MAX_ELEMS + 1);
        // A fresh allocation (almost certainly a different block, but the
        // guarantee we test is just that nothing crashed and sizes hold).
        assert_eq!(b.len(), POOL_MAX_ELEMS + 1);
        let _ = ptr;
    }
}
