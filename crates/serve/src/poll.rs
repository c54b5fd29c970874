//! The accept loop's wait for a connection, with no external crates: on
//! Linux the listener's fd is handed to `poll(2)` through the libc
//! symbol (already linked by std), so a connection is accepted as soon
//! as it arrives; elsewhere the loop naps. Either way the wait ends
//! within its timeout, so the loop re-reads the stop flags in time.

use std::net::TcpListener;
use std::time::Duration;

/// Blocks until `listener` has a connection pending, `timeout` passes or
/// a signal interrupts the wait. Errors are not reported: the caller's
/// nonblocking `accept` finds out what happened.
#[cfg(target_os = "linux")]
pub(crate) fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::os::fd::AsRawFd;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    const POLLIN: c_short = 0x001;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    let mut fds = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fds` is one valid, exclusively borrowed `pollfd` that
    // outlives the call, and `nfds = 1` says so; the fd stays open
    // because `listener` is borrowed for the whole call.
    unsafe {
        poll(&mut fds, 1, timeout_ms);
    }
}

/// Naps 5 ms (off Linux): `timeout` only caps the nap.
#[cfg(not(target_os = "linux"))]
pub(crate) fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_millis(5)));
}
