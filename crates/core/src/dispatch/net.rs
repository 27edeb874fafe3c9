//! The one place dispatcher sockets are set up: `TCP_NODELAY` on every
//! stream, and the blocking accept loop the coordinator and the chaos
//! proxy share.
//!
//! Every frame leaves in one `write_all` of a buffer that already holds
//! the whole frame, so Nagle's algorithm has nothing useful to merge. All
//! it does on this traffic is hold a small frame (a checkpoint, then a
//! `shard_done`) back until the peer's delayed ACK for the previous one
//! arrives — tens of milliseconds per job on loopback.
//!
//! The accept loop blocks in `accept`; stopping it sets its flag and then
//! connects to the listener once, so the blocked call returns and sees
//! the flag. No thread polls, so a new connection is served the moment
//! it arrives.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Turns Nagle's algorithm off on a dispatcher socket.
pub(crate) fn no_delay(stream: TcpStream) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// [`TcpStream::connect`] for a dispatcher peer, with `TCP_NODELAY` set.
pub(crate) fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    no_delay(TcpStream::connect(addr)?)
}

/// A listener served by one thread blocked in `accept`. Each accepted
/// stream gets `TCP_NODELAY` and is handed to the serve callback; the
/// loop ends only at [`shutdown`](Acceptor::shutdown) (or drop).
pub(crate) struct Acceptor {
    stop: Arc<AtomicBool>,
    wake: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Starts accepting on `listener`. `stop` is the loop's flag;
    /// callers that also want their other threads to see shutdown share
    /// it.
    pub(crate) fn spawn(
        listener: TcpListener,
        stop: Arc<AtomicBool>,
        mut serve: impl FnMut(TcpStream) + Send + 'static,
    ) -> io::Result<Acceptor> {
        let wake = wake_addr(listener.local_addr()?);
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                // After the flag is set, whatever arrives (the wake-up
                // connection or a peer racing shutdown) is dropped unserved.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                match accepted.and_then(|(stream, _)| no_delay(stream)) {
                    Ok(stream) => serve(stream),
                    Err(e) => {
                        // Per-connection failures (ECONNABORTED: the peer
                        // reset a connection still in the backlog) land
                        // here, and giving up would strand every later
                        // peer in the backlog. The pause keeps a lasting
                        // failure such as EMFILE from spinning a core.
                        eprintln!("dispatch: accept failed (transient): {e}");
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            })
        };
        Ok(Acceptor {
            stop,
            wake,
            thread: Some(thread),
        })
    }

    /// Stops the loop: sets the flag, wakes the blocked `accept` with a
    /// throwaway connection and joins the thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        match TcpStream::connect_timeout(&self.wake, Duration::from_secs(1)) {
            Err(e) if !thread.is_finished() => {
                // Joining a thread still blocked in accept would hang the
                // caller; leave it to exit on the next connection instead.
                eprintln!(
                    "dispatch: cannot wake the accept loop on {}: {e}",
                    self.wake
                );
            }
            _ => {
                let _ = thread.join();
            }
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where to connect to reach a listener bound at `addr`: an unspecified
/// address (`0.0.0.0`, `::`) accepts on loopback too.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn connected_and_accepted_streams_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (tx, rx) = mpsc::channel();
        let mut acceptor = Acceptor::spawn(listener, Arc::default(), move |stream| {
            let _ = tx.send(stream.nodelay().expect("read TCP_NODELAY"));
        })
        .expect("acceptor");
        let client = connect(addr).expect("connect");
        assert!(client.nodelay().expect("read TCP_NODELAY"), "connected");
        let accepted = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("accepted stream");
        assert!(accepted, "accepted");
        acceptor.shutdown();
    }

    #[test]
    fn the_wake_up_connect_reaches_unspecified_binds_on_loopback() {
        let parse = |s: &str| s.parse::<SocketAddr>().expect("address");
        assert_eq!(wake_addr(parse("0.0.0.0:7")), parse("127.0.0.1:7"));
        assert_eq!(wake_addr(parse("[::]:7")), parse("[::1]:7"));
        assert_eq!(wake_addr(parse("10.1.2.3:7")), parse("10.1.2.3:7"));
    }
}
