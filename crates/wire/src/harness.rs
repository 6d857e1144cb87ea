//! A server on its own thread with a stop switch — the one body behind the
//! "process" harnesses (`ofscil_router::harness::ShardProcess`,
//! `ofscil_ctrl::harness::{FollowerProcess, PrimaryProcess}`), which differ
//! only in which server they start.

use crate::error::WireError;
use crate::net::BoundAddr;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// A running server thread: its bound address, the switch that ends its
/// body, and the handle that joins it. Stops on [`ServerThread::stop`] or
/// drop.
#[derive(Debug)]
pub struct ServerThread {
    addr: BoundAddr,
    stop: mpsc::Sender<()>,
    join: Option<JoinHandle<Result<(), WireError>>>,
}

/// The server-body half of a [`ServerThread`]: reports the bound address,
/// then blocks until the thread's owner stops or drops it.
#[derive(Debug)]
pub struct UntilStopped {
    addr: mpsc::Sender<BoundAddr>,
    stop: mpsc::Receiver<()>,
}

impl UntilStopped {
    /// Call from inside the server's body, with the address it bound.
    pub fn wait(self, addr: &BoundAddr) {
        let _ = self.addr.send(addr.clone());
        let _ = self.stop.recv();
    }
}

impl ServerThread {
    /// Runs `serve` on a new thread and waits for the server inside it to
    /// report its address through [`UntilStopped::wait`]. `what` names the
    /// server in the error for one that exited without ever reporting.
    ///
    /// # Errors
    ///
    /// Returns `serve`'s own error (bind, bootstrap, …) when the server
    /// never came up.
    pub fn spawn<F>(what: &str, serve: F) -> Result<ServerThread, WireError>
    where
        F: FnOnce(UntilStopped) -> Result<(), WireError> + Send + 'static,
    {
        let (addr_tx, addr_rx) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel();
        let join = std::thread::spawn(move || {
            serve(UntilStopped {
                addr: addr_tx,
                stop: stop_rx,
            })
        });
        match addr_rx.recv() {
            Ok(addr) => Ok(ServerThread {
                addr,
                stop: stop_tx,
                join: Some(join),
            }),
            // The server never reached its body; join it for the reason.
            Err(_) => Err(match join.join() {
                Ok(Err(error)) => error,
                Ok(Ok(())) => {
                    WireError::Protocol(format!("{what} exited before reporting its address"))
                }
                Err(_) => WireError::Protocol(format!("{what} thread panicked")),
            }),
        }
    }

    /// The server's bound address.
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// Ends the server's body and waits for it to finish draining. After
    /// this returns the address refuses connections.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for ServerThread {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}
