//! Cooperative SIGINT/SIGTERM handling for long-running sweeps and the
//! `slip serve` daemon.
//!
//! `std` exposes no signal API, so the handler is registered through
//! the C `signal(2)` entry point that `std` already links (no `libc`
//! crate). The handler does the only async-signal-safe thing possible:
//! it stores into a static [`AtomicBool`]. Everything else — stopping
//! cell dispatch, sealing the journal, draining the server — happens
//! cooperatively in normal code that polls [`interrupted`].
//!
//! The worker pool checks the flag between cells, so an interrupted
//! sweep finishes the cells already in flight, flushes their journal
//! records (each record is written and flushed atomically under the
//! journal mutex, so a polled interrupt can never tear a line), and
//! returns [`std::io::ErrorKind::Interrupted`] — the journal is then a
//! clean prefix and a re-run with the same options resumes from it.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; polled by the pool loop.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);
/// Guards one-time handler installation.
static INSTALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGPIPE: i32 = 13;
    pub const SIGTERM: i32 = 15;
    /// `signal(2)`'s default action.
    pub const SIG_DFL: usize = 0;
    extern "C" {
        /// C `signal(2)`; `std` links the platform C runtime already.
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT/SIGTERM handler (idempotent) and returns the
/// flag it sets. On non-unix targets this is a no-op flag that only
/// [`trip`] can set.
pub fn install() -> &'static AtomicBool {
    #[cfg(unix)]
    if !INSTALLED.swap(true, Ordering::SeqCst) {
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            sys::signal(sys::SIGINT, handler);
            sys::signal(sys::SIGTERM, handler);
        }
    }
    #[cfg(not(unix))]
    INSTALLED.store(true, Ordering::SeqCst);
    &INTERRUPTED
}

/// Restores the default SIGPIPE action, which the Rust runtime sets to
/// "ignore": a write to a closed stdout then ends the process quietly,
/// as it ends any Unix filter, instead of failing the write (and making
/// `println!` panic). Sockets are unaffected: `std` sends with
/// `MSG_NOSIGNAL`.
pub fn end_on_closed_stdout() {
    #[cfg(unix)]
    unsafe {
        sys::signal(sys::SIGPIPE, sys::SIG_DFL);
    }
}

/// Whether an interrupt has been delivered (or [`trip`]ed) since the
/// last [`reset`].
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Sets the flag without a signal — for tests and for protocol-driven
/// shutdown paths that want to share the drain machinery.
pub fn trip() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Clears the flag (a drained server may want to serve again; tests
/// must not leak state into each other).
pub fn reset() {
    INTERRUPTED.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the flag is process-global state and the
    // harness runs tests in parallel threads.
    #[test]
    fn flag_round_trips_and_real_sigint_sets_it() {
        reset();
        assert!(!interrupted());
        trip();
        assert!(interrupted());
        reset();
        assert!(!interrupted());

        #[cfg(unix)]
        {
            extern "C" {
                fn raise(signum: i32) -> i32;
            }
            let flag = install();
            flag.store(false, Ordering::SeqCst);
            // With the handler installed, raising SIGINT must set the
            // flag instead of killing the process.
            unsafe { raise(super::sys::SIGINT) };
            assert!(interrupted());
            reset();
        }
    }
}
