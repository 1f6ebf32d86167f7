//! Synchronization facade for the lock-free executor.
//!
//! Everything in `pool.rs` that touches atomics, fences, the
//! eventcount's parking-lot mutex/condvar pair, or the spin-wait in
//! front of it imports from here instead of `std`. In a normal build
//! the types are *re-exports of the real `std` types* — zero cost,
//! byte-identical codegen, pinned by the byte-identity suites. Under `--features model-check` they swap to
//! [`asr_verify::shadow`]'s instrumented twins, which route every
//! operation through the mini-loom model checker's deterministic
//! scheduler and explicit weak-memory model (see
//! `crates/decoder/src/model_check.rs` for the harnesses and
//! ARCHITECTURE.md "Verification & static analysis" for the design).
//!
//! Outside an active `model::check` run the shadow types fall back to
//! their wrapped `std` primitives, so the rest of the test suite still
//! behaves normally even when the feature is enabled.

#[cfg(feature = "model-check")]
pub(crate) use asr_verify::shadow::{
    fence, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard,
};
#[cfg(not(feature = "model-check"))]
pub(crate) use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize};
#[cfg(not(feature = "model-check"))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};

pub(crate) use std::sync::atomic::Ordering;

/// Spin-waits while `waiting()` holds, for at most `bound`; returns
/// whether it still held when the window closed (the caller then
/// parks). Each poll is followed by a `spin_loop` pause, and the clock
/// is read only once per `PAUSES_PER_CLOCK_READ` polls, so the wait is
/// noticed within a pause of ending. A zero `bound` polls nothing.
///
/// Inside a `model::check` run a non-zero window is exactly one poll and
/// no clock: the checker explores a fixed budget, not elapsed time.
pub(crate) fn poll_while(bound: std::time::Duration, waiting: impl Fn() -> bool) -> bool {
    const PAUSES_PER_CLOCK_READ: u32 = 32;
    if bound.is_zero() {
        return true;
    }
    #[cfg(feature = "model-check")]
    if asr_verify::model::is_active() {
        return waiting();
    }
    let start = std::time::Instant::now();
    loop {
        for _ in 0..PAUSES_PER_CLOCK_READ {
            if !waiting() {
                return false;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= bound {
            return true;
        }
    }
}
