//! Socket abstraction: one listener/stream pair that is a TCP socket on
//! every platform and additionally a Unix-domain socket where those exist.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::Scope;
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;

/// Where a [`WireServer`](crate::WireServer) should listen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireBind {
    /// A TCP address, e.g. `"127.0.0.1:0"` (port 0 picks an ephemeral port;
    /// the bound address is reported back through the server handle).
    Tcp(String),
    /// A Unix-domain socket path. A stale socket file at the path is
    /// removed before binding.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// The address a server actually bound — connectable via
/// [`WireClient::connect`](crate::WireClient::connect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundAddr {
    /// A bound TCP socket address.
    Tcp(SocketAddr),
    /// A bound Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl BoundAddr {
    /// Inverse of the [`Display`](std::fmt::Display) form: parses
    /// `tcp://host:port` or `unix:///path` back into an address, so an
    /// advertised follower string (which travels the wire as text) can be
    /// dialed. Returns `None` for anything else — including a bare
    /// `host:port` without its scheme.
    pub fn parse(s: &str) -> Option<BoundAddr> {
        if let Some(rest) = s.strip_prefix("tcp://") {
            return rest.parse().ok().map(BoundAddr::Tcp);
        }
        #[cfg(unix)]
        if let Some(rest) = s.strip_prefix("unix://") {
            if !rest.is_empty() {
                return Some(BoundAddr::Unix(PathBuf::from(rest)));
            }
        }
        None
    }
}

impl std::fmt::Display for BoundAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundAddr::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            BoundAddr::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A bound, nonblocking listening socket.
///
/// Public so layers above the wire protocol (the `ofscil_router` frontend)
/// can run the same accept loop and speak frames themselves.
pub enum WireListener {
    /// A bound TCP listener.
    Tcp(TcpListener),
    /// A bound Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl WireListener {
    /// Binds per the configuration, nonblocking so the accept loop can poll
    /// a shutdown flag, and reports the concrete bound address.
    pub fn bind(bind: &WireBind) -> io::Result<(WireListener, BoundAddr)> {
        match bind {
            WireBind::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                let local = listener.local_addr()?;
                Ok((WireListener::Tcp(listener), BoundAddr::Tcp(local)))
            }
            #[cfg(unix)]
            WireBind::Unix(path) => {
                // A previous server that was killed leaves its socket file
                // behind; rebinding over it is the expected operation.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok((WireListener::Unix(listener), BoundAddr::Unix(path.clone())))
            }
        }
    }

    /// The accept loop of every frame-speaking server: accepts connections
    /// until `shutdown` is raised and serves each on its own thread of
    /// `scope`, by a clone of `serve`. Accepted sockets get the server
    /// tuning of [`WireStream`]'s `configure_for_server` (a socket that
    /// refuses it is dropped), with `read_timeout` between bytes so
    /// connection threads can poll `shutdown` too.
    ///
    /// No pending connection, and any accept error, backs off 2 ms and
    /// keeps accepting: per-connection failures (a peer that reset before
    /// accept completed, transient fd exhaustion, EINTR) must not kill the
    /// listener, and a genuinely broken listener just loops until shutdown,
    /// which costs nothing.
    pub fn serve_connections<'scope, F>(
        &self,
        scope: &'scope Scope<'scope, '_>,
        shutdown: &AtomicBool,
        read_timeout: Duration,
        serve: F,
    ) where
        F: FnOnce(WireStream) + Clone + Send + 'scope,
    {
        while !shutdown.load(Ordering::Acquire) {
            match self.accept() {
                Ok(stream) => {
                    if stream.configure_for_server(read_timeout).is_err() {
                        continue;
                    }
                    let serve = serve.clone();
                    scope.spawn(move || serve(stream));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Accepts one pending connection.
    fn accept(&self) -> io::Result<WireStream> {
        match self {
            WireListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                Ok(WireStream::Tcp(stream))
            }
            #[cfg(unix)]
            WireListener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(WireStream::Unix(stream))
            }
        }
    }
}

/// One connected socket, either family.
#[derive(Debug)]
pub enum WireStream {
    /// A connected TCP stream.
    Tcp(TcpStream),
    /// A connected Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl WireStream {
    /// Connects to a server's bound address.
    pub fn connect(addr: &BoundAddr) -> io::Result<WireStream> {
        match addr {
            BoundAddr::Tcp(addr) => WireStream::connect_tcp(addr),
            #[cfg(unix)]
            BoundAddr::Unix(path) => Ok(WireStream::Unix(UnixStream::connect(path)?)),
        }
    }

    /// Connects to a TCP address with Nagle batching disabled.
    pub(crate) fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<WireStream> {
        let stream = TcpStream::connect(addr)?;
        // Frames are small request/response units; Nagle batching would put
        // a delayed-ACK round trip into every call.
        stream.set_nodelay(true)?;
        Ok(WireStream::Tcp(stream))
    }

    /// Applies connection-level tuning a server wants on accepted sockets:
    /// no Nagle batching, a short read timeout so connection threads can
    /// poll their shutdown flag between bytes, and a bounded write timeout
    /// so a peer that stops reading (full TCP window) cannot pin a
    /// connection thread — and with it the server's teardown — forever; the
    /// blocked write errors out and the connection is dropped instead.
    fn configure_for_server(&self, read_timeout: Duration) -> io::Result<()> {
        if let WireStream::Tcp(stream) = self {
            stream.set_nodelay(true)?;
        }
        self.set_read_timeout(Some(read_timeout))?;
        self.set_write_timeout(Some(Duration::from_secs(5)))
    }

    /// Applies (or clears) a socket read timeout.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            WireStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Applies (or clears) a socket write timeout.
    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            WireStream::Unix(s) => s.set_write_timeout(timeout),
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            WireStream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_addr_parse_inverts_display() {
        let tcp = BoundAddr::Tcp("127.0.0.1:9001".parse().unwrap());
        assert_eq!(BoundAddr::parse(&tcp.to_string()), Some(tcp));
        #[cfg(unix)]
        {
            let unix = BoundAddr::Unix(PathBuf::from("/tmp/ofscil.sock"));
            assert_eq!(BoundAddr::parse(&unix.to_string()), Some(unix));
        }
        assert_eq!(BoundAddr::parse("127.0.0.1:9001"), None);
        assert_eq!(BoundAddr::parse("tcp://not-an-addr"), None);
        assert_eq!(BoundAddr::parse("unix://"), None);
        assert_eq!(BoundAddr::parse(""), None);
    }
}
