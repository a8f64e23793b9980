//! The non-blocking client tier in front of the local cache: a deadline-
//! and backoff-guarded peer connection for GETs, and the write-behind
//! queue streaming local inserts out.
//!
//! The invariant both halves protect: **the main loop never waits on the
//! network beyond the configured deadline, and usually not at all.** A GET
//! runs only on a local cache miss and is bounded by socket timeouts; a
//! failed operation starts an exponential backoff during which every fetch
//! returns a miss *immediately*; once the failure budget is spent the peer
//! is declared *down* and the tier runs pure local — which is why killing
//! the peer mid-run costs at most `max_retries` deadlines of wall clock
//! per down transition. Down is not forever: after an exponentially
//! scaled cooldown (longer for every consecutive down transition) the
//! client half-opens and risks exactly one probe — a restarted peer is
//! re-adopted at the first probe that succeeds, a still-dead one costs a
//! single deadline and a deeper cooldown. Inserts stream through a bounded
//! drop-oldest queue serviced by a dedicated writer thread with its own
//! connection, so even a stalled peer cannot slow an insert down.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::{CacheEntry, CacheStats};
use crate::remote::codec::{self, Frame, FrameKind};
use crate::remote::RemoteCounters;
use crate::supervisor::HealthMonitor;

/// How many doublings the retry backoff is allowed (64× the base, matching
/// the worker-respawn and breaker-cooldown caps).
const BACKOFF_CAP_SHIFT: u32 = 6;

/// Cooldown multiplier applied when the failure budget is spent: the first
/// half-open reconnect probe waits this many backoff bases, doubling per
/// consecutive down transition (up to the same cap as the retry backoff).
const DOWN_COOLDOWN_FACTOR: u32 = 8;

/// One guarded connection to the cache peer; see the module docs.
pub(crate) struct PeerClient {
    addr: String,
    deadline: Duration,
    backoff_base: Duration,
    max_retries: u32,
    stream: Option<TcpStream>,
    consecutive_failures: u32,
    next_attempt: Option<Instant>,
    /// Failure budget spent: only half-open probes (one per cooldown) until
    /// one succeeds.
    down: bool,
    /// Consecutive down transitions without an intervening success — scales
    /// the reconnect cooldown.
    downs: u32,
    /// Successful recoveries from the down state.
    reconnects: u64,
}

impl PeerClient {
    pub(crate) fn new(
        addr: String,
        deadline: Duration,
        backoff_base: Duration,
        max_retries: u32,
    ) -> Self {
        PeerClient {
            addr,
            deadline,
            backoff_base,
            max_retries,
            stream: None,
            consecutive_failures: 0,
            next_attempt: None,
            down: false,
            downs: 0,
            reconnects: 0,
        }
    }

    /// Whether the failure budget is spent and the client is in the
    /// half-open reconnect cycle (local-only until a probe succeeds).
    pub(crate) fn is_down(&self) -> bool {
        self.down
    }

    /// How many times a down peer was successfully re-adopted.
    pub(crate) fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Whether an operation may be attempted right now (not backing off,
    /// and not inside a down cooldown). While this is false the caller
    /// treats the peer as a miss without touching the socket. A down client
    /// whose cooldown has expired reads as ready: the next operation *is*
    /// the half-open reconnect probe.
    pub(crate) fn ready(&self) -> bool {
        self.next_attempt.is_none_or(|at| Instant::now() >= at)
    }

    fn connected(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            // `connect_timeout` needs a resolved address; take the first.
            let addr = self
                .addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "peer address"))?;
            let stream = TcpStream::connect_timeout(&addr, self.deadline)?;
            stream.set_read_timeout(Some(self.deadline))?;
            stream.set_write_timeout(Some(self.deadline))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    fn record_success(&mut self) {
        if self.down {
            self.down = false;
            self.reconnects += 1;
        }
        self.downs = 0;
        self.consecutive_failures = 0;
        self.next_attempt = None;
    }

    /// Books one failure: drops the (possibly desynced) connection and
    /// starts the next backoff window. Spending the failure budget — or
    /// failing a half-open reconnect probe — enters (or deepens) the down
    /// state, whose cooldown scales exponentially with consecutive down
    /// transitions so a permanently dead peer costs asymptotically nothing.
    fn record_failure(&mut self) {
        self.stream = None;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.down || self.consecutive_failures >= self.max_retries {
            self.down = true;
            self.downs = self.downs.saturating_add(1);
            self.consecutive_failures = 0;
            let shift = (self.downs - 1).min(BACKOFF_CAP_SHIFT);
            self.next_attempt =
                Some(Instant::now() + self.backoff_base * DOWN_COOLDOWN_FACTOR * (1u32 << shift));
            return;
        }
        let shift = (self.consecutive_failures - 1).min(BACKOFF_CAP_SHIFT);
        self.next_attempt = Some(Instant::now() + self.backoff_base * (1u32 << shift));
    }

    fn transact<T>(
        &mut self,
        request: &[u8],
        read: impl FnOnce(&mut TcpStream) -> io::Result<T>,
    ) -> io::Result<T> {
        let result = (|| {
            let stream = self.connected()?;
            stream.write_all(request)?;
            read(stream)
        })();
        match &result {
            Ok(_) => self.record_success(),
            Err(_) => self.record_failure(),
        }
        result
    }

    /// One request/single-reply exchange under the deadline.
    pub(crate) fn request(&mut self, request: &[u8]) -> io::Result<Frame> {
        self.transact(request, |stream| {
            codec::read_frame(stream)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"))
        })
    }

    /// Fire-and-forget send (the write-behind PUT path).
    pub(crate) fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.transact(request, |_| Ok(()))
    }

    /// Requests the peer's full snapshot stream, feeding each decodable
    /// entry to `on_entry`; returns the peer's stats header and the number
    /// of entry frames that failed to decode. Each frame is read under the
    /// deadline (per frame, not per stream — a live peer streams entries
    /// back-to-back).
    pub(crate) fn bulk_snapshot(
        &mut self,
        mut on_entry: impl FnMut(CacheEntry),
    ) -> io::Result<(CacheStats, u64)> {
        let request = codec::encode_frame(FrameKind::SnapshotRequest, &[]);
        self.transact(&request, |stream| {
            let mut reader = io::BufReader::new(stream);
            let eof = || io::Error::new(io::ErrorKind::UnexpectedEof, "snapshot stream truncated");
            let header = codec::read_frame(&mut reader)?.ok_or_else(eof)?;
            if header.kind != FrameKind::SnapshotHeader {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "expected header"));
            }
            let (stats, _count) = codec::decode_snapshot_header(&header.payload)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad header"))?;
            let mut rejected = 0u64;
            loop {
                let frame = codec::read_frame(&mut reader)?.ok_or_else(eof)?;
                match frame.kind {
                    FrameKind::Entry => match codec::decode_entry(&frame.payload) {
                        Some(entry) => on_entry(entry),
                        None => rejected += 1,
                    },
                    FrameKind::SnapshotEnd => return Ok((stats, rejected)),
                    _ => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "unexpected frame in snapshot stream",
                        ))
                    }
                }
            }
        })
    }
}

/// Bound on the write-behind queue between local inserts and the peer
/// stream. When the streaming thread falls behind, the *oldest* queued entry
/// is dropped (counted in `puts_dropped`) — inserts from the main loop and
/// workers never block on the network.
const WRITE_BEHIND_CAPACITY: usize = 256;

/// The write-behind queue's shared half: bounded, drop-oldest, observable
/// from the insert-observer closure.
pub(crate) struct WriteBehindShared {
    queue: Mutex<VecDeque<CacheEntry>>,
    wake: Condvar,
    shutting_down: AtomicBool,
}

impl WriteBehindShared {
    /// Enqueues one entry for streaming, dropping the *oldest* queued entry
    /// when full — the newest trajectory is the one the other process is
    /// about to need, and the insert path must never block.
    pub(crate) fn push(&self, entry: CacheEntry, counters: &RemoteCounters) {
        let mut queue = lock(&self.queue);
        if queue.len() >= WRITE_BEHIND_CAPACITY {
            queue.pop_front();
            counters.record_put_dropped();
        }
        queue.push_back(entry);
        drop(queue);
        self.wake.notify_one();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The write-behind streamer: the shared queue plus its writer thread.
pub(crate) struct WriteBehind {
    shared: Arc<WriteBehindShared>,
    handle: Option<JoinHandle<()>>,
}

impl WriteBehind {
    /// Spawns the writer thread with its own peer connection. A spawn
    /// failure is recorded and degrades to no streaming (`None`) — the same
    /// policy as a failed worker spawn.
    pub(crate) fn start(
        client: PeerClient,
        counters: Arc<RemoteCounters>,
        health: &Arc<HealthMonitor>,
    ) -> Option<WriteBehind> {
        let shared = Arc::new(WriteBehindShared {
            queue: Mutex::new(VecDeque::with_capacity(WRITE_BEHIND_CAPACITY)),
            wake: Condvar::new(),
            shutting_down: AtomicBool::new(false),
        });
        let thread_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("asc-remote-writeback".into())
            .spawn(move || writer_loop(&thread_shared, client, &counters));
        match spawned {
            Ok(handle) => Some(WriteBehind { shared, handle: Some(handle) }),
            Err(_) => {
                health.record_spawn_failures(1);
                None
            }
        }
    }

    /// The queue half, for the insert-observer closure.
    pub(crate) fn shared(&self) -> Arc<WriteBehindShared> {
        Arc::clone(&self.shared)
    }

    /// Drains the queue (streaming what a live peer will still take), then
    /// joins the writer.
    pub(crate) fn finish(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn writer_loop(shared: &WriteBehindShared, mut client: PeerClient, counters: &RemoteCounters) {
    stream_entries(shared, &mut client, counters);
    // The streamer's client dies with this thread; fold its reconnect count
    // into the shared stats on the way out.
    counters.add_peer_reconnects(client.reconnects());
}

fn stream_entries(shared: &WriteBehindShared, client: &mut PeerClient, counters: &RemoteCounters) {
    loop {
        let entry = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(entry) = queue.pop_front() {
                    break entry;
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                // The timeout is only a liveness backstop for a missed
                // notify; the condvar carries the real signal.
                let (guard, _) = shared
                    .wake
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                queue = guard;
            }
        };
        if !client.ready() {
            // During backoff or a down cooldown, holding the entry would
            // stall the drain, so it is discarded. The local cache still
            // has it — only the *sharing* is lost. The first send after a
            // cooldown expires doubles as the reconnect probe.
            counters.record_put_dropped();
            continue;
        }
        let framed = codec::encode_frame(FrameKind::Put, &codec::encode_entry(&entry));
        match client.send(&framed) {
            Ok(()) => counters.record_put_streamed(),
            Err(_) => counters.record_put_dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::CachePeer;

    fn get_request() -> Vec<u8> {
        codec::encode_frame(FrameKind::Get, &codec::encode_get(7, &[(1, 2)]))
    }

    fn drive_down(client: &mut PeerClient) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !client.is_down() {
            assert!(Instant::now() < give_up, "client never went down");
            if !client.ready() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let _ = client.request(&get_request());
        }
    }

    #[test]
    fn a_restarted_peer_is_readopted_after_the_down_cooldown() {
        let peer = CachePeer::bind("127.0.0.1:0", 1 << 12).expect("bind");
        let addr = peer.local_addr();
        let mut client = PeerClient::new(
            addr.to_string(),
            Duration::from_millis(500),
            Duration::from_millis(1),
            2,
        );
        let reply = client.request(&get_request()).expect("live peer answers");
        assert_eq!(reply.kind, FrameKind::GetMiss);
        assert!(!client.is_down());

        // Kill the peer and burn the failure budget against it.
        peer.shutdown();
        drive_down(&mut client);
        assert!(!client.ready(), "down must start a cooldown, not allow immediate probes");
        assert_eq!(client.reconnects(), 0);

        // Restart the peer on the same port (the OS may briefly hold it),
        // then let the cooldown expire: the next operation is the half-open
        // probe and must re-adopt the revived peer.
        let revived = loop {
            match CachePeer::bind(&addr.to_string(), 1 << 12) {
                Ok(peer) => break peer,
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < give_up, "probe never re-adopted the revived peer");
            if !client.ready() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if client.request(&get_request()).is_ok() {
                break;
            }
        }
        assert!(!client.is_down());
        assert_eq!(client.reconnects(), 1);
        revived.shutdown();
    }

    #[test]
    fn failed_probes_deepen_the_down_state_without_a_fresh_budget() {
        // Nothing listens here: TEST-NET-1 port 9 never answers; use a
        // refused loopback port instead so failures are immediate.
        let dead = CachePeer::bind("127.0.0.1:0", 1 << 12).expect("bind");
        let addr = dead.local_addr();
        dead.shutdown();
        let mut client = PeerClient::new(
            addr.to_string(),
            Duration::from_millis(200),
            Duration::from_millis(1),
            1,
        );
        drive_down(&mut client);
        // A failed half-open probe books exactly one more down transition —
        // it must not get `max_retries` fresh attempts.
        let give_up = Instant::now() + Duration::from_secs(10);
        while !client.ready() {
            assert!(Instant::now() < give_up);
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = client.request(&get_request());
        assert!(client.is_down(), "one failed probe must re-enter the down state immediately");
        assert!(!client.ready(), "a failed probe must start the next cooldown");
        assert_eq!(client.reconnects(), 0);
    }
}
