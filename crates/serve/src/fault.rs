//! Planted faults: a stale partition key for oracle-sensitivity testing
//! of the incremental partition cache, and a worker panic for testing the
//! daemon's per-request panic isolation.
//!
//! When armed, [`crate::incremental::partition_keys`] drops the salted
//! cone-hash component from every partition key, leaving only the member
//! ids and the budget-share basis — so an edit that changes a function's
//! body (but not its size) produces the *same* partition key, and the
//! daemon splices a stale cached body into the response. This is the
//! "stale cone key deliberately reused" bug class the incremental fuzz
//! oracle must be able to catch; `cargo fuzzgate` arms it and fails if
//! no divergence is found.
//!
//! Unlike `hlo::fault` (thread-local, armed and observed on the same
//! thread), this flag is **process-global**: the daemon's worker threads
//! compute partition keys, while the test arms the fault from its own
//! thread. Arming takes a process-wide window lock, so two fault-armed
//! tests serialize instead of sharing a window — and tests that must
//! observe the fault *disarmed* (anything asserting clean incremental
//! behaviour while a fault-armed test may run in the same process) hold
//! the same window via [`exclusion`]. A second `arm` on the same thread
//! deadlocks; don't nest guards.
//!
//! The planted panic ([`FaultGuard::arm_panic`]) shares the window, but
//! fires only for the one trace id it was armed with, so requests from
//! other tests in the same process never see it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

static STALE_PARTITION_KEYS: AtomicBool = AtomicBool::new(false);
/// The trace id (as its 64-bit value) whose request must panic; 0 = none.
static PANIC_TRACE_ID: AtomicU64 = AtomicU64::new(0);
static WINDOW: Mutex<()> = Mutex::new(());

fn window() -> MutexGuard<'static, ()> {
    WINDOW.lock().unwrap_or_else(|e| e.into_inner())
}

/// True while a [`FaultGuard`] is live: partition keys must be computed
/// without their cone-hash component.
pub fn stale_partition_keys_armed() -> bool {
    STALE_PARTITION_KEYS.load(Ordering::SeqCst)
}

/// Blocks until no [`FaultGuard`] is live and keeps the fault disarmed
/// while the returned guard is held. Tests whose assertions depend on
/// clean partition keys take this so a concurrently scheduled
/// fault-armed test cannot corrupt them.
pub fn exclusion() -> MutexGuard<'static, ()> {
    let w = window();
    debug_assert!(!stale_partition_keys_armed());
    w
}

/// RAII guard arming one planted fault for its lifetime.
#[derive(Debug)]
pub struct FaultGuard {
    _window: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Arms the stale-partition-key fault, blocking until any live guard
    /// or [`exclusion`] window is released.
    pub fn arm() -> FaultGuard {
        let w = window();
        STALE_PARTITION_KEYS.store(true, Ordering::SeqCst);
        FaultGuard { _window: w }
    }

    /// Arms a worker panic in every request carrying `trace_id` (a
    /// nonzero trace id), blocking like [`FaultGuard::arm`].
    ///
    /// # Panics
    /// When `trace_id` is not a valid, nonzero trace id.
    pub fn arm_panic(trace_id: &str) -> FaultGuard {
        let id = u64::from_str_radix(trace_id, 16)
            .ok()
            .filter(|&id| id != 0 && crate::valid_trace_id(trace_id))
            .expect("a nonzero 16-hex-digit trace id");
        let w = window();
        PANIC_TRACE_ID.store(id, Ordering::SeqCst);
        FaultGuard { _window: w }
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        STALE_PARTITION_KEYS.store(false, Ordering::SeqCst);
        PANIC_TRACE_ID.store(0, Ordering::SeqCst);
    }
}

/// True while a guard from [`FaultGuard::arm_panic`] for `trace_id` is
/// live: the worker running that request must panic.
pub fn panic_armed_for(trace_id: &str) -> bool {
    let armed = PANIC_TRACE_ID.load(Ordering::SeqCst);
    armed != 0 && u64::from_str_radix(trace_id, 16) == Ok(armed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_arms_and_disarms() {
        {
            let _g = FaultGuard::arm();
            assert!(stale_partition_keys_armed());
        }
        let _w = exclusion();
        assert!(!stale_partition_keys_armed());
    }

    #[test]
    fn panic_fires_for_its_trace_id_only() {
        let g = FaultGuard::arm_panic("00000000000000f1");
        assert!(panic_armed_for("00000000000000f1") && !panic_armed_for("00000000000000f2"));
        drop(g);
        assert!(!panic_armed_for("00000000000000f1"));
    }
}
