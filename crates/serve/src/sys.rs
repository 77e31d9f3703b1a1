//! The crate's one FFI declaration: `poll(2)`.
//!
//! `std` has non-blocking sockets but no way to wait on several of
//! them, so the server's readiness wait needs this single libc symbol
//! (std already links libc on every unix). Everything unsafe in the
//! workspace lives in [`wait`]; callers see a safe slice API.

use std::ffi::c_int;
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Data (or EOF, or a pending `accept`) can be read without blocking.
pub(crate) const POLLIN: i16 = 0x001;
/// A write would not block.
pub(crate) const POLLOUT: i16 = 0x004;

/// `struct pollfd`: identical layout on every unix `std` supports.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watches `source` for `events`; error and hang-up conditions are
    /// always reported.
    pub(crate) fn new(source: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything (requested events,
    /// `POLLERR`, `POLLHUP` or `POLLNVAL`) for this descriptor.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until at least one descriptor is ready or `timeout` passes
/// (`None` waits indefinitely); returns how many are ready. A signal
/// restarts the wait.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout = match timeout {
        None => -1,
        Some(d) => c_int::try_from(d.as_millis()).unwrap_or(c_int::MAX),
    };
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // structs with the layout of `struct pollfd`, and the length
        // passed is the slice's own, so the kernel reads and writes only
        // inside it. Descriptors that are closed or invalid are reported
        // through `revents` (`POLLNVAL`), not undefined behaviour.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn wait_reports_only_the_readable_end() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let (_c, d) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&b, POLLIN), PollFd::new(&d, POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        a.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready() && !fds[1].ready());
    }

    #[test]
    fn writable_is_reported_only_when_asked_for() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&a, POLLIN), PollFd::new(&a, POLLOUT)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert!(!fds[0].ready() && fds[1].ready());
    }

    #[test]
    fn hang_up_is_reported_without_being_requested() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let mut fds = [PollFd::new(&a, 0)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready());
    }
}
