//! The crate's entire syscall surface, as raw FFI behind safe wrappers.
//!
//! Everything `dds-reactor` asks of the OS is declared in this one
//! module, so the crate's documentation claim — "exactly these
//! syscalls, nothing else" — is auditable by reading one file:
//!
//! | syscall | backend | used for |
//! |---|---|---|
//! | `epoll_create1` | epoll | the readiness queue |
//! | `epoll_ctl` | epoll | register / modify / deregister |
//! | `epoll_wait` | epoll | blocking readiness wait |
//! | `eventfd` | epoll | cross-thread wakeups ([`crate::Waker`]) |
//! | `poll` | poll | the portable fallback wait |
//! | `pipe` + `fcntl` | poll | cross-thread wakeups on the fallback |
//! | `read` / `write` | both | draining / firing wakeup fds |
//! | `close` | both | fd lifecycle |
//! | `getrlimit` / `setrlimit` | — | `RLIMIT_NOFILE` helpers for tests and benches |
//!
//! No other module in the workspace contains `unsafe`; this crate opts
//! out of the workspace-wide `unsafe_code = "deny"` lint precisely so
//! that every unsafe block lives here, each with a SAFETY note.

use std::io;
use std::os::unix::io::RawFd;

// ---------------------------------------------------------------------
// Raw declarations (the symbols std already links from libc).
// ---------------------------------------------------------------------

/// Kernel epoll event record. x86-64 keeps the kernel's packed layout;
/// other architectures use the natural C layout, matching `libc`.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// `poll(2)` descriptor record (natural C layout on every unix).
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

#[cfg(target_os = "linux")]
#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

#[allow(non_camel_case_types)]
type nfds_t = u64;

extern "C" {
    #[cfg(target_os = "linux")]
    fn epoll_create1(flags: i32) -> i32;
    #[cfg(target_os = "linux")]
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    #[cfg(target_os = "linux")]
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    #[cfg(target_os = "linux")]
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: nfds_t, timeout: i32) -> i32;
    fn pipe(fds: *mut i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    #[cfg(target_os = "linux")]
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    #[cfg(target_os = "linux")]
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

// Linux constant values (asm-generic); the poll/fcntl ones are the
// POSIX-universal values shared by every supported unix.
#[cfg(target_os = "linux")]
pub(crate) const EPOLL_CLOEXEC: i32 = 0o2000000;
#[cfg(target_os = "linux")]
pub(crate) const EPOLL_CTL_ADD: i32 = 1;
#[cfg(target_os = "linux")]
pub(crate) const EPOLL_CTL_DEL: i32 = 2;
#[cfg(target_os = "linux")]
pub(crate) const EPOLL_CTL_MOD: i32 = 3;
#[cfg(target_os = "linux")]
pub(crate) const EPOLLIN: u32 = 0x001;
#[cfg(target_os = "linux")]
pub(crate) const EPOLLOUT: u32 = 0x004;
#[cfg(target_os = "linux")]
pub(crate) const EPOLLERR: u32 = 0x008;
#[cfg(target_os = "linux")]
pub(crate) const EPOLLHUP: u32 = 0x010;
#[cfg(target_os = "linux")]
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
#[cfg(target_os = "linux")]
pub(crate) const EPOLLET: u32 = 1 << 31;
#[cfg(target_os = "linux")]
const EFD_CLOEXEC: i32 = 0o2000000;
#[cfg(target_os = "linux")]
const EFD_NONBLOCK: i32 = 0o4000;

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;
pub(crate) const POLLERR: i16 = 0x008;
pub(crate) const POLLHUP: i16 = 0x010;

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: i32 = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: i32 = 0x0004;

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------
// Safe wrappers.
// ---------------------------------------------------------------------

/// Create an epoll instance (close-on-exec).
#[cfg(target_os = "linux")]
pub(crate) fn epoll_create() -> io::Result<RawFd> {
    // SAFETY: no pointers; the kernel allocates and returns an fd (or -1).
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Add/modify/remove `fd` on an epoll instance. `event` may be `None`
/// only for `EPOLL_CTL_DEL`.
#[cfg(target_os = "linux")]
pub(crate) fn epoll_control(
    epfd: RawFd,
    op: i32,
    fd: RawFd,
    event: Option<EpollEvent>,
) -> io::Result<()> {
    let mut event = event;
    let ptr = event
        .as_mut()
        .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
    // SAFETY: `ptr` is either null (DEL, where the kernel ignores it) or
    // points at a live, properly laid out `EpollEvent` on our stack for
    // the duration of the call.
    cvt(unsafe { epoll_ctl(epfd, op, fd, ptr) }).map(|_| ())
}

/// Wait for readiness on an epoll instance; retries on `EINTR`.
/// `timeout_ms = -1` blocks indefinitely. Returns the number of events
/// written into `events`.
#[cfg(target_os = "linux")]
pub(crate) fn epoll_wait_events(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    loop {
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        let cap = events.len().min(i32::MAX as usize) as i32;
        // SAFETY: `events` is a live, writable slice of `cap` properly
        // laid out records; the kernel writes at most `cap` of them.
        match cvt(unsafe { epoll_wait(epfd, events.as_mut_ptr(), cap, timeout_ms) }) {
            #[allow(clippy::cast_sign_loss)]
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Create a non-blocking close-on-exec eventfd (the epoll waker).
#[cfg(target_os = "linux")]
pub(crate) fn eventfd_create() -> io::Result<RawFd> {
    // SAFETY: no pointers; the kernel allocates and returns an fd (or -1).
    cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
}

/// `poll(2)` over `fds`; retries on `EINTR`. Returns the number of
/// descriptors with non-zero `revents`.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, writable slice of `len` properly laid
        // out pollfd records, exactly what the kernel expects.
        match cvt(unsafe { poll(fds.as_mut_ptr(), fds.len() as nfds_t, timeout_ms) }) {
            #[allow(clippy::cast_sign_loss)]
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Create a non-blocking pipe: `(read_end, write_end)` — the fallback
/// backend's waker primitive.
pub(crate) fn pipe_nonblocking() -> io::Result<(RawFd, RawFd)> {
    let mut fds = [0i32; 2];
    // SAFETY: `fds` is a live 2-element array the kernel fills.
    cvt(unsafe { pipe(fds.as_mut_ptr()) })?;
    for fd in fds {
        if let Err(e) = set_nonblocking_fd(fd) {
            close_fd(fds[0]);
            close_fd(fds[1]);
            return Err(e);
        }
    }
    Ok((fds[0], fds[1]))
}

/// Put an arbitrary fd into non-blocking mode via `fcntl`.
pub(crate) fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl with F_GETFL/F_SETFL takes no pointers.
    let flags = cvt(unsafe { fcntl(fd, F_GETFL, 0) })?;
    // SAFETY: as above.
    cvt(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) }).map(|_| ())
}

/// Write `buf` to `fd` once (no retry; callers tolerate `WouldBlock`).
pub(crate) fn write_fd(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live readable slice; the kernel reads at most
    // `buf.len()` bytes from it.
    let n = unsafe { write(fd, buf.as_ptr(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        #[allow(clippy::cast_sign_loss)]
        Ok(n as usize)
    }
}

/// Read from `fd` into `buf` once.
pub(crate) fn read_fd(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live writable slice; the kernel writes at most
    // `buf.len()` bytes into it.
    let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        #[allow(clippy::cast_sign_loss)]
        Ok(n as usize)
    }
}

/// Close an fd this crate opened (best-effort; double-close is a bug,
/// so callers own their fds exclusively).
pub(crate) fn close_fd(fd: RawFd) {
    // SAFETY: called exactly once per fd owned by this crate's types.
    let _ = unsafe { close(fd) };
}

/// The process's `RLIMIT_NOFILE` as `(soft, hard)`.
///
/// # Errors
/// The raw `getrlimit` failure, or `Unsupported` off Linux.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    #[cfg(target_os = "linux")]
    {
        let mut lim = RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: `lim` is a live, properly laid out rlimit record the
        // kernel fills.
        cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
        Ok((lim.rlim_cur, lim.rlim_max))
    }
    #[cfg(not(target_os = "linux"))]
    {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "rlimit helpers are linux-only",
        ))
    }
}

/// Set the soft `RLIMIT_NOFILE` (the hard limit is left unchanged).
/// Used by the EMFILE regression test (to lower it) and by the
/// many-connection benchmarks (to raise it toward the hard limit).
///
/// # Errors
/// The raw `setrlimit` failure — e.g. raising above the hard limit —
/// or `Unsupported` off Linux.
pub fn set_nofile_limit(soft: u64) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let (_, hard) = nofile_limit()?;
        let lim = RLimit {
            rlim_cur: soft.min(hard),
            rlim_max: hard,
        };
        // SAFETY: `lim` is a live, properly laid out rlimit record the
        // kernel reads.
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }).map(|_| ())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = soft;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "rlimit helpers are linux-only",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_round_trips_and_is_nonblocking() {
        let (r, w) = pipe_nonblocking().expect("pipe");
        let mut buf = [0u8; 8];
        // Empty pipe: non-blocking read must WouldBlock, not hang.
        let err = read_fd(r, &mut buf).expect_err("empty pipe");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(write_fd(w, b"ping").expect("write"), 4);
        assert_eq!(read_fd(r, &mut buf).expect("read"), 4);
        assert_eq!(&buf[..4], b"ping");
        close_fd(r);
        close_fd(w);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn nofile_limit_reads_back() {
        let (soft, hard) = nofile_limit().expect("getrlimit");
        assert!(soft > 0 && hard >= soft);
        // Re-setting the current soft limit is a no-op that must succeed.
        set_nofile_limit(soft).expect("setrlimit");
        assert_eq!(nofile_limit().expect("getrlimit").0, soft);
    }
}
