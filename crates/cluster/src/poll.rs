//! The one system call std does not wrap: `poll(2)`, which lets a TCP rank
//! wait on every socket of its mesh from its own thread (see
//! [`crate::net`]). Unix only; the constants are the values every unix
//! shares.

use std::io;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// Readable, or the peer closed its end.
pub const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub const POLLOUT: c_short = 0x004;
/// An error is pending on the socket (reported whatever was asked).
pub const POLLERR: c_short = 0x008;
/// The connection hung up (reported whatever was asked).
pub const POLLHUP: c_short = 0x010;

/// `struct pollfd`.
#[repr(C)]
pub struct PollFd {
    /// The descriptor.
    pub fd: c_int,
    /// What to wait for.
    pub events: c_short,
    /// What happened, filled in by the call.
    pub revents: c_short,
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Waits until one of `fds` is ready or `timeout` passed (`None`: no bound,
/// a partial millisecond rounded up); returns how many are ready.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = match timeout {
        None => -1,
        Some(t) => t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records, and `nfds` is its length, so the kernel reads and
    // writes only inside it; the call keeps no pointer past its return.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}
