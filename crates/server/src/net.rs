//! Shared socket plumbing: TCP and Unix-domain sockets behind one
//! [`Listener`] / [`Stream`] / [`Endpoint`] vocabulary.
//!
//! The engine server ([`crate::Server`]), its [`crate::Client`] and the
//! cluster nodes (`dds-cluster`) bind or dial either transport, in
//! blocking mode (a thread reading one connection) or non-blocking
//! under an event loop. This module is their shared vocabulary, so they
//! share one implementation of the fiddly parts (`TCP_NODELAY` on both
//! sides, stale Unix socket files, half-close semantics).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};

/// One connection, accepted or dialed, over either transport.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection (`TCP_NODELAY` already set).
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Dial a TCP endpoint; sets `TCP_NODELAY` (small framed requests
    /// must never wait out a delayed ACK).
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Stream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Stream::Tcp(stream))
    }

    /// Dial a Unix-domain socket.
    ///
    /// # Errors
    /// Propagates connect failures.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Stream> {
        Ok(Stream::Unix(UnixStream::connect(path)?))
    }

    /// The TCP peer's address: where to dial this connection again.
    ///
    /// # Errors
    /// `NotConnected` once the peer is gone; `Unsupported` on a Unix
    /// stream, whose dialer already holds its path.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        match self {
            Stream::Tcp(s) => s.peer_addr(),
            #[cfg(unix)]
            Stream::Unix(_) => Err(io::ErrorKind::Unsupported.into()),
        }
    }

    /// A second handle to the same connection (independent read/write
    /// position — the usual reader-half/writer-half split).
    ///
    /// # Errors
    /// Propagates `dup` failures.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Switch the connection between blocking and non-blocking mode.
    /// In non-blocking mode reads and writes return
    /// [`io::ErrorKind::WouldBlock`] instead of parking the thread —
    /// the mode the server's event loop runs every connection in.
    ///
    /// # Errors
    /// Propagates the `fcntl`/`ioctlsocket` failure.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

#[cfg(unix)]
impl AsRawFd for Stream {
    /// The connection's raw fd, for registering with a readiness poller
    /// (`dds-reactor`). The `Stream` keeps ownership; the fd stays
    /// valid until the `Stream` is dropped.
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Where a listener lives: enough to dial it (waking a blocked accept
/// loop) and to clean it up after.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address.
    Tcp(SocketAddr),
    /// A Unix socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// Dial this endpoint.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => Stream::connect_tcp(addr),
            #[cfg(unix)]
            Endpoint::Unix(path) => Stream::connect_unix(path),
        }
    }

    /// Remove any filesystem residue (the Unix socket file).
    pub fn cleanup(&self) {
        match self {
            Endpoint::Tcp(_) => {}
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A bound listening socket over either transport.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (with the path it owns).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind a TCP listener (port `0` for an ephemeral port; read it
    /// back with [`Listener::endpoint`]).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Bind a Unix-domain listener at `path` (a stale socket file is
    /// removed first).
    ///
    /// # Errors
    /// Propagates bind failures.
    #[cfg(unix)]
    pub fn bind_unix(path: impl AsRef<Path>) -> io::Result<Listener> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        Ok(Listener::Unix(UnixListener::bind(&path)?, path))
    }

    /// Where this listener can be dialed.
    ///
    /// # Panics
    /// If the OS cannot report the bound TCP address (bind already
    /// succeeded, so this does not happen in practice).
    #[must_use]
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Listener::Tcp(l) => Endpoint::Tcp(l.local_addr().expect("bound tcp listener")),
            #[cfg(unix)]
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    /// The bound TCP address (`None` for Unix listeners).
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(..) => None,
        }
    }

    /// Switch the listener between blocking and non-blocking mode. A
    /// non-blocking [`Listener::accept`] returns
    /// [`io::ErrorKind::WouldBlock`] when no connection is queued.
    ///
    /// # Errors
    /// Propagates the `fcntl`/`ioctlsocket` failure.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(nonblocking),
        }
    }

    /// Block for the next connection; TCP connections come back with
    /// `TCP_NODELAY` set.
    ///
    /// # Errors
    /// Propagates accept failures (callers should back off briefly and
    /// retry rather than busy-spin on persistent errors like EMFILE).
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                Ok(Stream::Unix(stream))
            }
        }
    }
}

#[cfg(unix)]
impl AsRawFd for Listener {
    /// The listening socket's raw fd, for readiness registration.
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_listener_round_trips_bytes() {
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("binds");
        let endpoint = listener.endpoint();
        let join = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accepts");
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).expect("reads");
            conn.write_all(&buf).expect("writes");
            conn.flush().expect("flushes");
        });
        let mut client = endpoint.connect().expect("dials");
        client.write_all(b"hello").expect("writes");
        client.flush().expect("flushes");
        let mut echo = [0u8; 5];
        client.read_exact(&mut echo).expect("reads");
        assert_eq!(&echo, b"hello");
        join.join().expect("server thread");
    }

    #[cfg(unix)]
    #[test]
    fn unix_listener_round_trips_and_cleans_up() {
        let path = std::env::temp_dir().join(format!("dds-net-test-{}.sock", std::process::id()));
        let listener = Listener::bind_unix(&path).expect("binds");
        let endpoint = listener.endpoint();
        assert!(listener.local_addr().is_none());
        let join = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accepts");
            let mut buf = [0u8; 3];
            conn.read_exact(&mut buf).expect("reads");
            conn.write_all(&buf).expect("writes");
        });
        let mut client = endpoint.connect().expect("dials");
        client.write_all(b"abc").expect("writes");
        let mut echo = [0u8; 3];
        client.read_exact(&mut echo).expect("reads");
        assert_eq!(&echo, b"abc");
        join.join().expect("server thread");
        endpoint.cleanup();
        assert!(!path.exists());
    }
}
