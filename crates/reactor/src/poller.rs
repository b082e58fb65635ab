//! [`Poller`]: one readiness queue over many file descriptors.
//!
//! The shape is deliberately the smallest slice of the mio idiom that a
//! single-threaded event loop needs: register an fd with a [`Token`]
//! and an [`Interest`], block in [`Poller::wait`] for a batch of
//! [`Event`]s, and let a [`Waker`] interrupt the wait from another
//! thread. Two backends implement it:
//!
//! * **epoll** (Linux, the default): readiness is kernel-indexed, so a
//!   wait over 10k mostly-idle fds costs the kernel only the ready
//!   ones. Supports both level- and edge-triggered registrations.
//! * **poll** (any unix, [`Poller::with_poll_backend`]): the portable
//!   O(n)-per-wait fallback. Level-triggered only — an edge-triggered
//!   [`Interest`] registers, but delivers level semantics (documented,
//!   not silent: level is a superset, so correct loops stay correct,
//!   they just wake more).

use std::io;
use std::os::unix::io::RawFd;
use std::sync::Mutex;
use std::time::Duration;

use crate::sys;

/// Caller-chosen identifier attached to a registration and echoed in
/// every [`Event`] for it (typically a slab index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// What readiness to watch for, plus the trigger mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    const R: u8 = 0b001;
    const W: u8 = 0b010;
    const E: u8 = 0b100;

    /// Wake when the fd is readable (or the peer hung up).
    pub const READABLE: Interest = Interest(Self::R);
    /// Wake when the fd is writable.
    pub const WRITABLE: Interest = Interest(Self::W);
    /// Watch nothing (a parked registration — kept in the table so a
    /// later [`Poller::modify`] can re-arm it without re-registering).
    pub const NONE: Interest = Interest(0);

    /// Combine two interests.
    #[must_use]
    pub const fn or(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Edge-triggered delivery (epoll backend only; the poll fallback
    /// delivers level semantics regardless).
    #[must_use]
    pub const fn edge(self) -> Interest {
        Interest(self.0 | Self::E)
    }

    /// Is readable-readiness requested?
    #[must_use]
    pub const fn is_readable(self) -> bool {
        self.0 & Self::R != 0
    }

    /// Is writable-readiness requested?
    #[must_use]
    pub const fn is_writable(self) -> bool {
        self.0 & Self::W != 0
    }

    /// Is edge-triggered delivery requested?
    #[must_use]
    pub const fn is_edge(self) -> bool {
        self.0 & Self::E != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.or(rhs)
    }
}

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration's token.
    pub token: Token,
    /// The fd can be read without blocking (includes peer hang-up, so
    /// the read that observes EOF is never skipped).
    pub readable: bool,
    /// The fd can be written without blocking.
    pub writable: bool,
    /// The fd is in an error state (reported regardless of interest).
    pub is_error: bool,
    /// The peer closed (reported regardless of interest).
    pub is_hangup: bool,
}

/// Reusable batch buffer for [`Poller::wait`].
pub struct Events {
    events: Vec<Event>,
    capacity: usize,
    /// The kernel's records, filled by `epoll_wait`: allocated once
    /// here, so a wait costs no allocation however large the capacity.
    #[cfg(target_os = "linux")]
    raw: Vec<sys::EpollEvent>,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.max(1);
        Events {
            events: Vec::with_capacity(capacity),
            capacity,
            #[cfg(target_os = "linux")]
            raw: vec![sys::EpollEvent { events: 0, data: 0 }; capacity],
        }
    }

    /// The events delivered by the last wait.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Number of events delivered by the last wait.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Did the last wait deliver nothing (timeout)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// A readiness queue over raw fds (see the module docs for backends).
pub struct Poller {
    backend: Backend,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(EpollBackend),
    Poll(PollBackend),
}

impl Poller {
    /// The platform's best backend: epoll on Linux, poll elsewhere.
    ///
    /// # Errors
    /// Propagates the backend's creation failure.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller {
                backend: Backend::Epoll(EpollBackend::new()?),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Self::with_poll_backend()
        }
    }

    /// Force the portable `poll(2)` backend (available on Linux too, so
    /// the fallback path is exercised by the same test suite).
    ///
    /// # Errors
    /// Propagates the backend's creation failure.
    pub fn with_poll_backend() -> io::Result<Poller> {
        Ok(Poller {
            backend: Backend::Poll(PollBackend::new()),
        })
    }

    /// Which backend this poller runs (`"epoll"` or `"poll"`).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    /// Watch `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`]; the caller keeps ownership.
    ///
    /// # Errors
    /// The backend's registration failure (e.g. an fd registered twice).
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.register(fd, token, interest),
            Backend::Poll(b) => b.register(fd, token, interest, false),
        }
    }

    /// Change an existing registration's token or interest.
    ///
    /// # Errors
    /// The backend's failure (e.g. the fd was never registered).
    pub fn modify(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.modify(fd, token, interest),
            Backend::Poll(b) => b.modify(fd, token, interest),
        }
    }

    /// Stop watching `fd`. Always call before closing the fd — a closed
    /// fd silently vanishes from epoll but would poison the poll
    /// backend's table.
    ///
    /// # Errors
    /// The backend's failure (e.g. the fd was never registered).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.deregister(fd),
            Backend::Poll(b) => b.deregister(fd),
        }
    }

    /// Block until readiness, a [`Waker::wake`], or `timeout` (`None`
    /// blocks indefinitely). Delivered events replace the buffer's
    /// previous batch. Returns the number of events.
    ///
    /// # Errors
    /// The backend's wait failure (`EINTR` is retried internally).
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.events.clear();
        let timeout_ms = timeout_to_ms(timeout);
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.wait(events, timeout_ms),
            Backend::Poll(b) => b.wait(events, timeout_ms),
        }
    }

    /// Create a waker bound to this poller: [`Waker::wake`] from any
    /// thread makes the current (or next) [`Poller::wait`] return with
    /// an event carrying `token`.
    ///
    /// # Errors
    /// Propagates fd creation / registration failures.
    pub fn waker(&self, token: Token) -> io::Result<Waker> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => {
                let fd = sys::eventfd_create()?;
                // Edge-triggered: the loop need not drain the counter;
                // each wake (re-)arms exactly one event.
                b.register(fd, token, Interest::READABLE.edge())?;
                Ok(Waker {
                    write_fd: fd,
                    owned_read_fd: None,
                })
            }
            Backend::Poll(b) => {
                let (r, w) = sys::pipe_nonblocking()?;
                // Marked as a waker: the backend drains the pipe itself
                // when reporting it, preserving level-trigger hygiene.
                b.register(r, token, Interest::READABLE, true)?;
                Ok(Waker {
                    write_fd: w,
                    owned_read_fd: Some(r),
                })
            }
        }
    }
}

/// Cross-thread wakeup handle (created by [`Poller::waker`]).
///
/// Dropping the waker closes its fds; the poller-side registration is
/// cleaned up implicitly (epoll) or on the next wait (poll backend
/// reports `POLLHUP`-style errors on a closed pipe — deregister the
/// waker's token first if the poller outlives it).
pub struct Waker {
    write_fd: RawFd,
    /// The poll backend's pipe read end (epoll's eventfd is both ends).
    owned_read_fd: Option<RawFd>,
}

impl Waker {
    /// Wake the poller. Cheap, non-blocking, safe from any thread; a
    /// full pipe means a wake is already pending, which is success.
    pub fn wake(&self) {
        match sys::write_fd(self.write_fd, &1u64.to_ne_bytes()) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => {}
        }
    }
}

// SAFETY: a `Waker` is only an fd number written with a single atomic
// 8-byte write; the kernel serializes concurrent writers.
unsafe impl Send for Waker {}
// SAFETY: as above — `wake` takes `&self` and performs one syscall.
unsafe impl Sync for Waker {}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close_fd(self.write_fd);
        if let Some(r) = self.owned_read_fd {
            sys::close_fd(r);
        }
    }
}

#[allow(clippy::cast_possible_truncation)]
fn timeout_to_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            // Round up so a 1ns timeout still sleeps ~1ms instead of
            // busy-spinning at 0.
            let ms = d.as_millis().min(i32::MAX as u128) as i32;
            if ms == 0 && !d.is_zero() {
                1
            } else {
                ms
            }
        }
    }
}

// ---------------------------------------------------------------------
// epoll backend (Linux).
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
struct EpollBackend {
    epfd: RawFd,
}

#[cfg(target_os = "linux")]
impl EpollBackend {
    fn new() -> io::Result<EpollBackend> {
        Ok(EpollBackend {
            epfd: sys::epoll_create()?,
        })
    }

    fn event_for(token: Token, interest: Interest) -> sys::EpollEvent {
        let mut events = 0u32;
        if interest.is_readable() {
            events |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.is_writable() {
            events |= sys::EPOLLOUT;
        }
        if interest.is_edge() {
            events |= sys::EPOLLET;
        }
        sys::EpollEvent {
            events,
            data: token.0 as u64,
        }
    }

    fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_control(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            Some(Self::event_for(token, interest)),
        )
    }

    fn modify(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_control(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            Some(Self::event_for(token, interest)),
        )
    }

    fn deregister(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_DEL, fd, None)
    }

    fn wait(&self, events: &mut Events, timeout_ms: i32) -> io::Result<usize> {
        let n = sys::epoll_wait_events(self.epfd, &mut events.raw, timeout_ms)?;
        for raw in &events.raw[..n] {
            let bits = raw.events;
            events.events.push(Event {
                token: Token(raw.data as usize),
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                is_error: bits & sys::EPOLLERR != 0,
                is_hangup: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollBackend {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

// ---------------------------------------------------------------------
// poll(2) backend (portable fallback).
// ---------------------------------------------------------------------

struct Registration {
    fd: RawFd,
    token: Token,
    interest: Interest,
    is_waker: bool,
}

struct PollBackend {
    table: Mutex<Vec<Registration>>,
}

impl PollBackend {
    fn new() -> PollBackend {
        PollBackend {
            table: Mutex::new(Vec::new()),
        }
    }

    fn register(
        &self,
        fd: RawFd,
        token: Token,
        interest: Interest,
        is_waker: bool,
    ) -> io::Result<()> {
        let mut table = self.table.lock().expect("poll registration table");
        if table.iter().any(|r| r.fd == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        table.push(Registration {
            fd,
            token,
            interest,
            is_waker,
        });
        Ok(())
    }

    fn modify(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        let mut table = self.table.lock().expect("poll registration table");
        let reg = table
            .iter_mut()
            .find(|r| r.fd == fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        reg.token = token;
        reg.interest = interest;
        Ok(())
    }

    fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut table = self.table.lock().expect("poll registration table");
        let before = table.len();
        table.retain(|r| r.fd != fd);
        if table.len() == before {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        }
        Ok(())
    }

    fn wait(&self, events: &mut Events, timeout_ms: i32) -> io::Result<usize> {
        // Snapshot under the lock, poll outside it (a concurrent wake
        // writes the already-snapshotted pipe, so it is never missed).
        let (mut fds, meta): (Vec<sys::PollFd>, Vec<(Token, bool)>) = {
            let table = self.table.lock().expect("poll registration table");
            table
                .iter()
                .map(|r| {
                    let mut ev = 0i16;
                    if r.interest.is_readable() {
                        ev |= sys::POLLIN;
                    }
                    if r.interest.is_writable() {
                        ev |= sys::POLLOUT;
                    }
                    (
                        sys::PollFd {
                            fd: r.fd,
                            events: ev,
                            revents: 0,
                        },
                        (r.token, r.is_waker),
                    )
                })
                .unzip()
        };
        sys::poll_fds(&mut fds, timeout_ms)?;
        for (pfd, &(token, is_waker)) in fds.iter().zip(&meta) {
            if pfd.revents == 0 {
                continue;
            }
            if events.events.len() == events.capacity {
                break;
            }
            if is_waker {
                // Drain so level-triggered polling does not spin.
                let mut sink = [0u8; 64];
                while matches!(sys::read_fd(pfd.fd, &mut sink), Ok(n) if n > 0) {}
                events.events.push(Event {
                    token,
                    readable: true,
                    writable: false,
                    is_error: false,
                    is_hangup: false,
                });
                continue;
            }
            let r = pfd.revents;
            events.events.push(Event {
                token,
                readable: r & (sys::POLLIN | sys::POLLHUP) != 0,
                writable: r & sys::POLLOUT != 0,
                is_error: r & sys::POLLERR != 0,
                is_hangup: r & sys::POLLHUP != 0,
            });
        }
        Ok(events.events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        a.set_nodelay(true).expect("nodelay");
        b.set_nodelay(true).expect("nodelay");
        (a, b)
    }

    fn pollers() -> Vec<Poller> {
        let mut v = vec![Poller::with_poll_backend().expect("poll backend")];
        if cfg!(target_os = "linux") {
            v.push(Poller::new().expect("default backend"));
        }
        v
    }

    #[test]
    fn readable_event_fires_and_clears() {
        for poller in pollers() {
            let (mut a, b) = pair();
            b.set_nonblocking(true).expect("nonblocking");
            poller
                .register(b.as_raw_fd(), Token(7), Interest::READABLE)
                .expect("register");
            let mut events = Events::with_capacity(8);

            // Nothing written: a short wait times out.
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert_eq!(n, 0, "{}: spurious event", poller.backend_name());

            a.write_all(b"x").expect("write");
            poller.wait(&mut events, None).expect("wait");
            let ev = events.iter().next().expect("one event");
            assert_eq!(ev.token, Token(7));
            assert!(ev.readable && !ev.writable);

            // Level-triggered: unread data keeps the event coming.
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .expect("wait");
            assert_eq!(
                events.len(),
                1,
                "{}: level retrigger",
                poller.backend_name()
            );

            // Drained: back to quiet.
            let mut sink = [0u8; 4];
            let got = {
                let mut b = &b;
                b.read(&mut sink).expect("drain")
            };
            assert_eq!(got, 1);
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert_eq!(n, 0, "{}: event after drain", poller.backend_name());
            poller.deregister(b.as_raw_fd()).expect("deregister");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn edge_trigger_fires_once_per_arrival() {
        let poller = Poller::new().expect("epoll");
        let (mut a, b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        poller
            .register(b.as_raw_fd(), Token(1), Interest::READABLE.edge())
            .expect("register");
        let mut events = Events::with_capacity(8);

        a.write_all(b"x").expect("write");
        poller.wait(&mut events, None).expect("wait");
        assert_eq!(events.len(), 1);

        // Unread data, but no *new* arrival: edge mode stays quiet.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .expect("wait");
        assert_eq!(n, 0, "edge-triggered event re-fired without new data");

        // A new arrival re-arms it.
        a.write_all(b"y").expect("write");
        poller.wait(&mut events, None).expect("wait");
        assert_eq!(events.len(), 1);
        poller.deregister(b.as_raw_fd()).expect("deregister");
    }

    #[test]
    fn writable_interest_and_modify() {
        for poller in pollers() {
            let (a, _b) = pair();
            a.set_nonblocking(true).expect("nonblocking");
            // A fresh socket's send buffer is empty: immediately writable.
            poller
                .register(a.as_raw_fd(), Token(3), Interest::WRITABLE)
                .expect("register");
            let mut events = Events::with_capacity(8);
            poller.wait(&mut events, None).expect("wait");
            let ev = events.iter().next().expect("one event");
            assert!(ev.writable && !ev.readable);

            // Parked: no interest, no events even though still writable.
            poller
                .modify(a.as_raw_fd(), Token(3), Interest::NONE)
                .expect("modify");
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert_eq!(n, 0, "{}: parked fd still fired", poller.backend_name());

            // Re-armed under a new token.
            poller
                .modify(a.as_raw_fd(), Token(9), Interest::WRITABLE)
                .expect("modify");
            poller.wait(&mut events, None).expect("wait");
            assert_eq!(events.iter().next().expect("event").token, Token(9));
            poller.deregister(a.as_raw_fd()).expect("deregister");
        }
    }

    #[test]
    fn hangup_is_reported_as_readable() {
        for poller in pollers() {
            let (a, b) = pair();
            b.set_nonblocking(true).expect("nonblocking");
            poller
                .register(b.as_raw_fd(), Token(2), Interest::READABLE)
                .expect("register");
            drop(a);
            let mut events = Events::with_capacity(8);
            poller.wait(&mut events, None).expect("wait");
            let ev = events.iter().next().expect("hangup event");
            assert!(
                ev.readable,
                "{}: hangup must read as readable so EOF is observed",
                poller.backend_name()
            );
            poller.deregister(b.as_raw_fd()).expect("deregister");
        }
    }

    #[test]
    fn waker_interrupts_a_blocking_wait() {
        for poller in pollers() {
            let waker = poller.waker(Token(99)).expect("waker");
            let wake_from_thread = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
                waker // keep alive until after the wake
            });
            let mut events = Events::with_capacity(8);
            let started = std::time::Instant::now();
            poller.wait(&mut events, None).expect("wait");
            assert!(started.elapsed() < Duration::from_secs(5));
            assert_eq!(events.iter().next().expect("wake event").token, Token(99));
            let waker = wake_from_thread.join().expect("waker thread");

            // Coalescing: many wakes, then at most one event per wait
            // and a quiet queue once consumed.
            waker.wake();
            waker.wake();
            waker.wake();
            poller.wait(&mut events, None).expect("wait");
            assert_eq!(events.len(), 1);
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert_eq!(
                n,
                0,
                "{}: wake not coalesced/drained",
                poller.backend_name()
            );
        }
    }

    #[test]
    fn deregistered_fd_is_silent_and_double_deregister_errors() {
        for poller in pollers() {
            let (mut a, b) = pair();
            b.set_nonblocking(true).expect("nonblocking");
            poller
                .register(b.as_raw_fd(), Token(4), Interest::READABLE)
                .expect("register");
            poller.deregister(b.as_raw_fd()).expect("deregister");
            a.write_all(b"x").expect("write");
            let mut events = Events::with_capacity(8);
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .expect("wait");
            assert_eq!(n, 0, "{}: deregistered fd fired", poller.backend_name());
            assert!(poller.deregister(b.as_raw_fd()).is_err());
        }
    }
}
