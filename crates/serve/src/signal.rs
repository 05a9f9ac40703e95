//! SIGTERM handling for clean shutdown.
//!
//! The handler only sets an atomic flag; the supervisor polls it at
//! every pause (checkpoint boundary), drains — checkpoints the live
//! machine, journals the state — and exits 0. No allocation, locking,
//! or IO happens in signal context.
//!
//! Raw `signal(2)` FFI keeps the crate dependency-free: the function is
//! in the C library every Rust binary on this platform already links.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

const SIGTERM: i32 = 15;

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Installs the SIGTERM handler. Call once, early in `main`.
pub fn install_term_handler() {
    #[cfg(unix)]
    #[allow(unsafe_code)]
    unsafe {
        signal(SIGTERM, on_term);
    }
}

/// Whether a SIGTERM has arrived (drain requested).
pub fn term_requested() -> bool {
    TERM.load(Ordering::SeqCst)
}

/// Requests a drain from inside the process — used by tests to exercise
/// the drain path without delivering a real signal.
pub fn request_term() {
    TERM.store(true, Ordering::SeqCst);
}

/// Clears the drain flag (test-only: the flag is process-global and
/// tests run many sweeps in one process).
pub fn clear_term_for_tests() {
    TERM.store(false, Ordering::SeqCst);
}

/// Serializes tests around the process-global drain flag. A test that
/// raises it holds the write side; every other test that runs the
/// supervisor holds the read side, so none of them sees a stray drain.
#[cfg(test)]
static TERM_TEST_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// Read side of the drain-flag test lock (see `TERM_TEST_LOCK`).
#[cfg(test)]
pub(crate) fn term_shared_for_tests() -> std::sync::RwLockReadGuard<'static, ()> {
    TERM_TEST_LOCK
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write side of the drain-flag test lock (see `TERM_TEST_LOCK`).
#[cfg(test)]
pub(crate) fn term_exclusive_for_tests() -> std::sync::RwLockWriteGuard<'static, ()> {
    TERM_TEST_LOCK
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
