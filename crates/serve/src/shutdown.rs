//! Graceful daemon shutdown on `SIGTERM` / `SIGINT` (ctrl-c).
//!
//! Without a handler, `kill` (SIGTERM) would tear the process down
//! mid-request and drop any buffered checkpoint deltas. The daemon
//! installs handlers for both signals, parks the main thread on [`wait`],
//! and on delivery unwinds cleanly: the accept loop stops, each model
//! refuses new work and flushes its buffered checkpoint deltas under its
//! write guard (after the requests holding the guard finish), and the
//! process exits `0`.
//!
//! The handler itself only stores into a `static AtomicBool` — the one
//! async-signal-safe thing worth doing — and [`wait`] polls it. The
//! workspace has no FFI bindings crate, so the single `signal(2)` import
//! below is the only foreign call, kept behind `cfg(unix)` (elsewhere
//! [`install`] is a no-op and the daemon runs until killed, as before).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    #![allow(unsafe_code)]

    use super::REQUESTED;
    use std::sync::atomic::Ordering;

    // Numbers are POSIX-mandated for every unix target rustc supports.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// `signal(2)`. The return value is the previous handler
        /// (pointer-sized); we never inspect it.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // An atomic store is async-signal-safe; everything else (the
        // actual teardown) happens on the parked main thread.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is the libc prototype; `on_signal` is an
        // `extern "C" fn(i32)` that only touches an atomic.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub fn install() {}
}

/// Installs the `SIGTERM`/`SIGINT` handlers. Idempotent; call once before
/// serving. On non-unix targets this is a no-op.
pub fn install() {
    sys::install();
}

/// Whether a shutdown signal has arrived (or [`request`] was called).
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Requests shutdown programmatically — same effect as a signal. Lets
/// tests (and future admin endpoints) drive the graceful path without
/// process machinery.
pub fn request() {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Parks the calling thread until shutdown is requested, polling the flag
/// (a signal handler can't unblock a condvar safely, and 50 ms of exit
/// latency is invisible next to a checkpoint flush).
pub fn wait() {
    while !requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
}
