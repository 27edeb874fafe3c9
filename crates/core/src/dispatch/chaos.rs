//! Deterministic fault injection for the dispatcher.
//!
//! The dispatcher's recovery claims — re-queue on worker death, journal
//! replay on coordinator restart, idempotent resubmission — are only
//! worth stating if they hold under faults that arrive at awkward
//! moments. This module makes those moments *reproducible*: a
//! [`FaultPlan`] is a pure function of a seed, and a [`ChaosProxy`] is a
//! TCP shim between dispatcher processes that mangles traffic exactly as
//! the plan dictates. A failing seed is a bug report you can re-run.
//!
//! Faults are injected at *frame* granularity (the proxy splits streams
//! on the protocol's frame boundaries without parsing payloads) and
//! triggered by *frame counts*, not wall time — the schedule a seed
//! produces does not depend on host speed. The faults themselves model
//! what TCP can actually do to the dispatcher:
//!
//! * **drop** — the connection dies with the frame unflushed (TCP never
//!   loses a frame from a live stream, so a lost frame *is* a dead
//!   connection). Peers see EOF and take their recovery paths.
//! * **truncate** — a prefix of the frame arrives, then the connection
//!   dies: the receiver's framing layer must answer with a typed
//!   `Truncated`/`Stalled`, never a hang or a panic.
//! * **duplicate** — the frame arrives twice, probing the at-least-once
//!   dedup paths (completion slots, idempotent submission keys).
//! * **delay** — the frame arrives late (bounded), reordering deliveries
//!   across connections and widening race windows.
//! * **kill at frame N** — the Nth forwarded frame kills its connection:
//!   "the worker died mid-shard", placed deterministically.
//! * **heal after N frames** — the storm is bounded: past the heal
//!   point every frame forwards untouched, so a correct recovery path
//!   provably *converges* instead of racing an endless fault stream.
//!
//! Coordinator crash-and-restart is driven by the *harness* (kill the
//! `serve` process or trip its [`ServeOptions::stop`](super::ServeOptions)
//! flag, then restart on the same `--journal`); the proxy keeps the
//! submitter and worker ends alive across the outage so their backoff
//! and resubmission paths run for real.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::net::{self, Acceptor};
use super::proto::{is_read_timeout, read_line_bounded, ProtoError, MAX_FRAME};

/// The dispatcher's one RNG: xorshift64\* over a SplitMix64-scrambled
/// seed, for fault schedules and [`Backoff`](super::Backoff) jitter.
/// Each instance is self-contained on purpose: a fault plan or a
/// backoff must not perturb, or be perturbed by, any other randomness in
/// the process.
#[derive(Clone, Debug)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// An RNG whose entire future is determined by `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        // SplitMix64 scramble: distinct-but-close seeds (0, 1, 2…) get
        // uncorrelated streams, and the forbidden all-zero state is
        // remapped.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ChaosRng {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// The next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A draw in `0..n` (`0` for `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// True with probability `per_mille`/1000.
    pub fn chance(&mut self, per_mille: u16) -> bool {
        self.below(1_000) < u64::from(per_mille)
    }
}

/// What to do to the traffic, derived entirely from a seed.
///
/// Rates are per-mille per frame; `kill_at_frame` counts frames
/// *forwarded through the whole proxy* (all connections, both
/// directions), so one plan places one deterministic mid-stream death.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the per-connection fault streams derive from.
    pub seed: u64,
    /// Chance a frame's connection dies with the frame unflushed.
    pub drop_per_mille: u16,
    /// Chance a frame is delivered twice.
    pub dup_per_mille: u16,
    /// Chance a frame's prefix is delivered and the connection then dies.
    pub truncate_per_mille: u16,
    /// Chance a frame is delayed by `delay_ms` before delivery.
    pub delay_per_mille: u16,
    /// How long a delayed frame waits.
    pub delay_ms: u64,
    /// Kill the connection carrying the Nth forwarded frame (1-based).
    pub kill_at_frame: Option<u64>,
    /// Stop injecting faults after this many forwarded frames: the storm
    /// passes, the network heals, and recovery can be asserted to
    /// *converge* rather than merely survive. `None` storms forever —
    /// use only with probabilistic rates low enough to make progress.
    pub heal_after_frames: Option<u64>,
}

impl FaultPlan {
    /// A plan that forwards everything untouched — the control arm.
    pub fn benign(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            truncate_per_mille: 0,
            delay_per_mille: 0,
            delay_ms: 0,
            kill_at_frame: None,
            heal_after_frames: None,
        }
    }

    /// Derives a hostile-but-convergent plan from a seed: each fault
    /// class gets an independent rate up to ~10%, delays stay small,
    /// roughly half of all seeds also place one deterministic connection
    /// kill early in the run — and every derived storm heals after a
    /// bounded number of frames, so a correct recovery path always gets
    /// a clean network to finish on (the liveness half of the chaos
    /// suite's contract). The same seed always derives the same plan.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut rng = ChaosRng::new(seed);
        FaultPlan {
            seed,
            drop_per_mille: rng.below(100) as u16,
            dup_per_mille: rng.below(150) as u16,
            truncate_per_mille: rng.below(100) as u16,
            delay_per_mille: rng.below(300) as u16,
            delay_ms: 1 + rng.below(25),
            kill_at_frame: if rng.chance(500) {
                Some(1 + rng.below(40))
            } else {
                None
            },
            heal_after_frames: Some(60 + rng.below(140)),
        }
    }
}

/// A frame-aware TCP shim applying a [`FaultPlan`] between dispatcher
/// peers. Point submitters and workers at the proxy's listen address
/// instead of the coordinator's; every accepted connection is forwarded
/// upstream with faults injected per frame, each connection drawing its
/// own deterministic stream from the plan's seed and the connection's
/// accept index.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    forwarded: Arc<AtomicU64>,
    acceptor: Acceptor,
}

impl ChaosProxy {
    /// Starts a proxy listening on `listen`, forwarding to `upstream`
    /// under `plan`. Returns once the listener is bound.
    pub fn start(
        listen: impl ToSocketAddrs,
        upstream: SocketAddr,
        plan: FaultPlan,
    ) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let forwarded = Arc::new(AtomicU64::new(0));
        let acceptor = {
            let relays_stop = Arc::clone(&stop);
            let forwarded = Arc::clone(&forwarded);
            let mut conn_index: u64 = 0;
            Acceptor::spawn(listener, stop, move |inbound| {
                let index = conn_index;
                conn_index += 1;
                let forwarded = Arc::clone(&forwarded);
                let stop = Arc::clone(&relays_stop);
                std::thread::spawn(move || {
                    let _ = relay(inbound, upstream, plan, index, forwarded, stop);
                });
            })?
        };
        Ok(ChaosProxy {
            local_addr,
            forwarded,
            acceptor,
        })
    }

    /// Where peers should connect.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Frames forwarded (or faulted) so far, across all connections.
    pub fn frames_seen(&self) -> u64 {
        self.forwarded.load(Ordering::SeqCst)
    }

    /// Shared handle to the forwarded-frame counter (debug/monitoring).
    pub fn frames(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.forwarded)
    }

    /// Stops accepting (dropping the proxy does the same). Existing
    /// relays end when their connections do.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

/// One proxied connection: dial upstream, pump both directions on their
/// own threads, die together (any fault or error shuts both sockets, so
/// the two pumps and both peers observe one connection death).
fn relay(
    inbound: TcpStream,
    upstream: SocketAddr,
    plan: FaultPlan,
    conn_index: u64,
    forwarded: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    let outbound = net::connect(upstream)?;
    let pump_up = {
        let from = inbound.try_clone()?;
        let to = outbound.try_clone()?;
        let rng = ChaosRng::new(plan.seed ^ (conn_index << 1));
        let forwarded = Arc::clone(&forwarded);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || pump(from, to, plan, rng, forwarded, stop))
    };
    let rng = ChaosRng::new(plan.seed ^ ((conn_index << 1) | 1));
    pump(outbound, inbound, plan, rng, forwarded, stop);
    let _ = pump_up.join();
    Ok(())
}

/// Forwards frames from `from` to `to`, applying the plan. Any exit —
/// clean EOF, injected fault, transport error — shuts down both sockets,
/// which also ends the sibling pump.
fn pump(
    from: TcpStream,
    to: TcpStream,
    plan: FaultPlan,
    mut rng: ChaosRng,
    forwarded: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) {
    // A blocked read must not outlive the proxy: poll with a timeout so
    // the stop flag is honored.
    let _ = from.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(from.try_clone().expect("clone proxied socket"));
    let mut to = to;
    let mut buf = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match read_raw_frame(&mut reader, &mut buf) {
            Ok(true) => {}
            Ok(false) => break, // clean EOF
            Err(ProtoError::Io(e)) if is_read_timeout(&e) => continue,
            Err(_) => break,
        }
        let n = forwarded.fetch_add(1, Ordering::SeqCst) + 1;
        if plan.heal_after_frames.is_some_and(|heal| n > heal) {
            // The storm has passed: forward untouched from here on.
            if to.write_all(&buf).is_err() || to.flush().is_err() {
                break;
            }
            continue;
        }
        if plan.kill_at_frame == Some(n) || rng.chance(plan.drop_per_mille) {
            // The frame dies with its connection.
            break;
        }
        if rng.chance(plan.truncate_per_mille) && buf.len() > 1 {
            let _ = to.write_all(&buf[..buf.len() / 2]);
            let _ = to.flush();
            break;
        }
        if rng.chance(plan.delay_per_mille) {
            std::thread::sleep(Duration::from_millis(plan.delay_ms));
        }
        if to.write_all(&buf).is_err() {
            break;
        }
        if rng.chance(plan.dup_per_mille) && to.write_all(&buf).is_err() {
            break;
        }
        if to.flush().is_err() {
            break;
        }
    }
    let _ = reader.into_inner().shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Reads one raw frame — bytes untouched, boundary found by the
/// protocol's own bounded line reader — so the proxy can mangle frames
/// without re-encoding them. `Ok(false)` is EOF. A read timeout before
/// a frame's first byte surfaces, so the pump can poll its stop flag;
/// one mid-frame retries until the newline lands.
fn read_raw_frame(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> Result<bool, ProtoError> {
    buf.clear();
    loop {
        match read_line_bounded(reader, buf, MAX_FRAME) {
            Err(ProtoError::Io(e)) if is_read_timeout(&e) && !buf.is_empty() => {}
            other => return other.map(|ended| ended || !buf.is_empty()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let draws = |seed: u64| -> Vec<u64> {
            let mut rng = ChaosRng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));
        assert_ne!(draws(0), draws(1), "scrambled: adjacent seeds diverge");
    }

    #[test]
    fn chance_respects_the_rate_extremes() {
        let mut rng = ChaosRng::new(7);
        assert!((0..100).all(|_| !rng.chance(0)));
        assert!((0..100).all(|_| rng.chance(1_000)));
    }

    #[test]
    fn plans_derive_deterministically_and_within_bounds() {
        for seed in 0..200 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b, "seed {seed} must derive one plan");
            assert!(a.drop_per_mille < 100);
            assert!(a.dup_per_mille < 150);
            assert!(a.truncate_per_mille < 100);
            assert!(a.delay_per_mille < 300);
            assert!(a.delay_ms >= 1 && a.delay_ms <= 25);
            if let Some(kill) = a.kill_at_frame {
                assert!((1..=40).contains(&kill));
            }
            let heal = a.heal_after_frames.expect("derived plans always heal");
            assert!((60..200).contains(&heal));
        }
        let benign = FaultPlan::benign(9);
        assert_eq!(benign.drop_per_mille, 0);
        assert_eq!(benign.kill_at_frame, None);
    }

    #[test]
    fn benign_proxy_is_byte_transparent() {
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = upstream.local_addr().expect("addr");
        let proxy =
            ChaosProxy::start("127.0.0.1:0", upstream_addr, FaultPlan::benign(1)).expect("proxy");

        // Raw byte-level echo upstream, so any re-encoding or boundary
        // slip in the proxy shows up as a byte diff.
        let echo = std::thread::spawn(move || {
            let (stream, _) = upstream.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut out = stream;
            let mut buf = Vec::new();
            for _ in 0..2 {
                assert!(read_raw_frame(&mut reader, &mut buf).expect("read frame"));
                out.write_all(&buf).expect("echo");
            }
            out.flush().expect("flush");
        });

        let heartbeat = b"{\"type\":\"heartbeat\"}\n".to_vec();
        // Escaped newline and non-ASCII text inside the line: only the
        // real terminator ends the frame.
        let reject = "{\"type\":\"reject\",\"reason\":\"protocol\",\"message\":\"a\\nb \u{e9}\"}\n"
            .as_bytes()
            .to_vec();

        let mut client = TcpStream::connect(proxy.local_addr()).expect("connect via proxy");
        client.write_all(&heartbeat).expect("send heartbeat");
        client.write_all(&reject).expect("send reject");
        client.flush().expect("flush");

        let mut expected = heartbeat;
        expected.extend_from_slice(&reject);
        let mut echoed = vec![0u8; expected.len()];
        client.read_exact(&mut echoed).expect("read echo");
        assert_eq!(echoed, expected, "benign proxy must be byte-transparent");
        drop(client);
        echo.join().expect("echo thread");
    }
}
