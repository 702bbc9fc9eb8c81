//! SIGINT/SIGTERM → cooperative cancellation, without any signal-handling
//! crate.
//!
//! Long sweeps must survive a Ctrl-C with their journal intact: the
//! handler itself only flips an [`AtomicBool`] (the one action that is
//! async-signal-safe), and a watcher thread polls the flag and fires a
//! [`CancelToken`] that the campaign runner links into every in-flight
//! job. The runner then drains queued jobs, aborts running scans at their
//! next poll stride, syncs the journal, and reports `interrupted` — at
//! which point the CLI exits with the conventional `128 + SIGINT = 130`
//! and every completed job is safely on disk for `--resume`.
//!
//! The `serve` subcommand additionally hooks **SIGTERM** (what service
//! managers send on shutdown) through [`hook_drain`]: either signal
//! fires the same token, the server stops accepting, in-flight jobs
//! cancel cooperatively, and the process exits 130.
//!
//! On non-Unix targets the hooks are no-ops: the token simply never fires
//! from a signal (the process dies the default way), and everything else
//! still works.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use selfstab_global::CancelToken;

/// Set (only) by the signal handlers; drained by the watcher thread.
static SIGNAL_RECEIVED: AtomicBool = AtomicBool::new(false);

/// Conventional exit code for "terminated by SIGINT" (128 + 2); `serve`
/// reuses it for SIGTERM-initiated drains too, so supervisors observe one
/// stable shutdown code.
pub const EXIT_SIGINT: u8 = 130;

#[cfg(unix)]
mod hook {
    use super::SIGNAL_RECEIVED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// ISO C `signal(2)` — present in every libc we build against, so
        /// no binding crate is needed for this one call.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// The handler: store one flag and return. Anything more (locks,
    /// allocation, IO) is not async-signal-safe.
    extern "C" fn on_signal(_signum: i32) {
        SIGNAL_RECEIVED.store(true, Ordering::SeqCst);
    }

    pub fn install_sigint() {
        // Safety: `signal` is the ISO C signal-installation call; the
        // handler only touches an atomic, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
        }
    }

    pub fn install_sigterm() {
        // Safety: as above.
        unsafe {
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod hook {
    pub fn install_sigint() {}
    pub fn install_sigterm() {}
}

/// Spawns the watcher that fires `token` once a hooked signal lands.
/// Dropping every external clone of the token retires the watcher thread.
fn watch(token: &Arc<CancelToken>) {
    let weak = Arc::downgrade(token);
    std::thread::spawn(move || loop {
        let Some(token) = weak.upgrade() else {
            return; // the command finished; nobody is listening any more
        };
        if SIGNAL_RECEIVED.load(Ordering::SeqCst) {
            token.cancel();
            return;
        }
        drop(token);
        std::thread::sleep(Duration::from_millis(20));
    });
}

/// Installs the SIGINT hook and returns a token that fires shortly after
/// the first Ctrl-C.
pub fn interrupt_token() -> Arc<CancelToken> {
    hook::install_sigint();
    let token = Arc::new(CancelToken::new());
    watch(&token);
    token
}

/// Installs both SIGINT and SIGTERM hooks and arms the watcher to fire
/// `token` — the `serve` drain path, where a supervisor's SIGTERM must
/// behave exactly like an operator's Ctrl-C.
pub fn hook_drain(token: &Arc<CancelToken>) {
    hook::install_sigint();
    hook::install_sigterm();
    watch(token);
}
