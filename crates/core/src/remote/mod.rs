//! The distributed trajectory-cache tier: wire codec, TCP cache peers, and
//! persistent warm starts.
//!
//! The paper's Blue Gene/P deployment treats the trajectory cache as a
//! *cluster* resource — speculated trajectories are shared across nodes,
//! with per-query reduction and point-to-point transfer costs (the very
//! costs [`crate::cluster`] models). This module is that sharing made
//! concrete, as two extra tiers behind the in-process cache:
//!
//! 1. **Local shards** ([`crate::cache`]): always probed first, the only
//!    tier on the correctness path.
//! 2. **Cache peer** ([`CachePeer`]): a TCP server other runs GET from and
//!    PUT to. On a local miss the runtime probes the peer by
//!    `(position-hash, value-hash)` pairs, re-verifies anything returned
//!    (byte match *and* checksum) and inserts it locally (read-through);
//!    local inserts stream out asynchronously through a bounded drop-oldest
//!    queue (write-behind). Deadline, retry backoff and a failure budget
//!    bound the cost of a sick peer: it degrades to local-only exactly like
//!    a dead planner degrades to miss-driven dispatch.
//! 3. **Snapshot** ([`snapshot`]): the same codec pointed at disk — save on
//!    shutdown, load on startup — so one run's warmup amortizes across
//!    runs and across machines.
//!
//! Every boundary crossing re-proves integrity: frames are length-checked
//! and version-checked, and entries carry the checksum they were sealed
//! with, verified on decode ([`codec`]). Corruption anywhere costs one
//! counted, dropped frame ([`RemoteStats::frames_rejected`]) — never a
//! wrong fast-forward, because a remotely-fetched entry is applied only
//! after the same `matches(state)` + `verify()` guards a local hit passes.
//! Final program states therefore stay bit-identical with the tier on,
//! off, shared between processes, or killed mid-run. How a sick or dead
//! peer degrades (down → cooldown → half-open reconnect probe), and where
//! that sits in the repo-wide failure model, is tabulated in
//! `ROBUSTNESS.md` at the repository root.

pub mod codec;
mod peer;
pub mod snapshot;

mod client;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use asc_tvm::delta::PositionSchema;
use asc_tvm::state::StateVector;

use crate::cache::{CacheEntry, TrajectoryCache};
use crate::config::RemoteConfig;
use crate::remote::client::{PeerClient, WriteBehind};
use crate::remote::codec::FrameKind;
use crate::supervisor::Supervision;

pub use peer::CachePeer;

/// Most distinct read-set shapes remembered per rip for remote probes. A
/// GET can only ask about shapes the client knows; real programs produce a
/// handful per rip (the premise of the grouped cache index), so the cap is
/// slack, not a working limit.
const SCHEMA_CATALOG_LIMIT: usize = 64;

/// Counters describing one run's remote-tier activity, surfaced as
/// [`RunReport::remote`](crate::runtime::RunReport::remote).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Remote probes that returned an entry which matched the querying
    /// state and passed verification (each also read-through into the
    /// local cache).
    pub remote_hits: u64,
    /// Remote probes answered with a miss (or an entry that did not match
    /// the querying state after the hash said it might).
    pub remote_misses: u64,
    /// Remote operations that timed out or failed on I/O.
    pub remote_timeouts: u64,
    /// Frames dropped for malformation or checksum failure, on any path
    /// (GET replies, bulk transfers, snapshot entries).
    pub frames_rejected: u64,
    /// Entries imported in bulk: from the startup snapshot file and the
    /// connect-time peer transfer.
    pub snapshot_loaded: u64,
    /// Bulk-import entries rejected (corrupt, or lost to truncation).
    pub snapshot_rejected: u64,
    /// Entries exported to the shutdown snapshot file.
    pub snapshot_saved: u64,
    /// Local inserts successfully streamed to the peer.
    pub puts_streamed: u64,
    /// Local inserts dropped from the write-behind path (queue overflow,
    /// backoff, or a down peer). Only the sharing is lost — the local
    /// cache kept every one.
    pub puts_dropped: u64,
    /// Times a down peer (failure budget spent) was re-adopted by a
    /// successful half-open reconnect probe, across both the fetch and
    /// write-behind connections.
    pub peer_reconnects: u64,
    /// Whether the peer was observed down (failure budget spent, running
    /// local-only) at any point — including runs that later re-adopted it.
    pub degraded: bool,
}

macro_rules! remote_counter {
    ($($(#[$doc:meta])* $record:ident => $field:ident;)*) => {
        $(
            $(#[$doc])*
            pub(crate) fn $record(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )*
    };
}

/// The tier's shared atomic counters (the [`RemoteStats`] source).
#[derive(Debug, Default)]
pub(crate) struct RemoteCounters {
    remote_hits: AtomicU64,
    remote_misses: AtomicU64,
    remote_timeouts: AtomicU64,
    frames_rejected: AtomicU64,
    snapshot_loaded: AtomicU64,
    snapshot_rejected: AtomicU64,
    snapshot_saved: AtomicU64,
    puts_streamed: AtomicU64,
    puts_dropped: AtomicU64,
    peer_reconnects: AtomicU64,
    degraded: AtomicBool,
}

impl RemoteCounters {
    remote_counter! {
        /// Books one verified, matching remote hit.
        record_remote_hit => remote_hits;
        /// Books one remote miss.
        record_remote_miss => remote_misses;
        /// Books one timed-out or failed remote operation.
        record_remote_timeout => remote_timeouts;
        /// Books one malformed or checksum-failing frame.
        record_frame_rejected => frames_rejected;
        /// Books one successfully streamed insert.
        record_put_streamed => puts_streamed;
        /// Books one dropped write-behind insert.
        record_put_dropped => puts_dropped;
    }

    fn add_bulk(&self, loaded: u64, rejected: u64) {
        self.snapshot_loaded.fetch_add(loaded, Ordering::Relaxed);
        self.snapshot_rejected.fetch_add(rejected, Ordering::Relaxed);
    }

    /// Folds one client's recovery count in (each client tracks its own).
    pub(crate) fn add_peer_reconnects(&self, count: u64) {
        self.peer_reconnects.fetch_add(count, Ordering::Relaxed);
    }

    fn snapshot(&self) -> RemoteStats {
        RemoteStats {
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            remote_misses: self.remote_misses.load(Ordering::Relaxed),
            remote_timeouts: self.remote_timeouts.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            snapshot_loaded: self.snapshot_loaded.load(Ordering::Relaxed),
            snapshot_rejected: self.snapshot_rejected.load(Ordering::Relaxed),
            snapshot_saved: self.snapshot_saved.load(Ordering::Relaxed),
            puts_streamed: self.puts_streamed.load(Ordering::Relaxed),
            puts_dropped: self.puts_dropped.load(Ordering::Relaxed),
            peer_reconnects: self.peer_reconnects.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// State the insert-observer closure shares with the tier: the counters and
/// the schema catalog remote probes are phrased in.
struct TierShared {
    counters: Arc<RemoteCounters>,
    /// Distinct read-set shapes seen per rip — from the snapshot load, the
    /// bulk transfer, remote hits and local inserts. A remote GET sends
    /// `(schema hash, value hash of the query state's bytes at the schema's
    /// positions)` for each; the peer cannot see the state, so the catalog
    /// is what makes its entries addressable at all.
    catalog: Mutex<std::collections::HashMap<u32, Vec<PositionSchema>>>,
    /// Cleared at [`RemoteTier::finish`]: the observer goes quiet before
    /// the write-behind drains, so late worker inserts cannot race the
    /// queue teardown.
    active: AtomicBool,
}

impl TierShared {
    fn catalog_add(&self, entry: &CacheEntry) {
        let schema = PositionSchema::of(&entry.start);
        let mut catalog = self.catalog.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let schemas = catalog.entry(entry.rip).or_default();
        if schemas.len() < SCHEMA_CATALOG_LIMIT && schemas.iter().all(|s| s.hash() != schema.hash())
        {
            schemas.push(schema);
        }
    }

    fn pairs_for(&self, rip: u32, state: &StateVector) -> Vec<(u64, u64)> {
        let catalog = self.catalog.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match catalog.get(&rip) {
            Some(schemas) => schemas
                .iter()
                .filter_map(|schema| schema.hash_values_of(state).map(|v| (schema.hash(), v)))
                .collect(),
            None => Vec::new(),
        }
    }
}

/// One run's remote tier, owned by the `accelerate` main loop: probes the
/// peer on local misses, streams inserts behind, and handles the snapshot
/// load/save at the run's edges. See the module docs for the protocol and
/// failure model.
pub(crate) struct RemoteTier {
    cache: Arc<TrajectoryCache>,
    shared: Arc<TierShared>,
    client: Option<Mutex<PeerClient>>,
    write_behind: Option<WriteBehind>,
    snapshot_save: Option<std::path::PathBuf>,
}

impl RemoteTier {
    /// Starts the tier for one run: loads the startup snapshot, connects
    /// and bulk-fetches from the peer, and attaches the write-behind
    /// observer to `cache`. Returns `None` when the tier is disabled.
    /// Every failure inside degrades (and is counted) rather than erroring
    /// — a missing snapshot is a cold start, an unreachable peer is a
    /// local-only run.
    pub(crate) fn start(
        config: &RemoteConfig,
        cache: &Arc<TrajectoryCache>,
        supervision: &Supervision,
    ) -> Option<RemoteTier> {
        if !config.enabled {
            return None;
        }
        let shared = Arc::new(TierShared {
            counters: Arc::new(RemoteCounters::default()),
            catalog: Mutex::new(std::collections::HashMap::new()),
            active: AtomicBool::new(true),
        });

        if let Some(path) = &config.snapshot_load {
            match snapshot::load(cache, path) {
                Ok(load) => shared.counters.add_bulk(load.loaded, load.rejected),
                // Missing file: a cold start, not damage. Anything else
                // (unreadable, bad header) counts one rejection.
                Err(error) if error.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => shared.counters.add_bulk(0, 1),
            }
        }
        // Seed the schema catalog from everything now in the local cache.
        cache.for_each_entry(|entry| shared.catalog_add(entry));

        let deadline = Duration::from_millis(config.deadline_ms);
        let backoff = Duration::from_millis(config.retry_backoff_ms);
        let mut client = None;
        let mut write_behind = None;
        if let Some(addr) = &config.peer {
            let mut fetcher = PeerClient::new(addr.clone(), deadline, backoff, config.max_retries);
            // Connect-time bulk transfer: everything the peer already holds
            // becomes local (and addressable) immediately — the network
            // half of the warm start.
            match fetcher.bulk_snapshot(|entry| {
                shared.catalog_add(&entry);
                cache.insert_unobserved(entry);
                shared.counters.snapshot_loaded.fetch_add(1, Ordering::Relaxed);
            }) {
                Ok((_peer_stats, rejected)) => shared.counters.add_bulk(0, rejected),
                Err(_) => shared.counters.record_remote_timeout(),
            }
            let streamer = PeerClient::new(addr.clone(), deadline, backoff, config.max_retries);
            write_behind =
                WriteBehind::start(streamer, Arc::clone(&shared.counters), &supervision.health);
            client = Some(Mutex::new(fetcher));
        }

        let observer_shared = Arc::clone(&shared);
        let observer_queue = write_behind.as_ref().map(WriteBehind::shared);
        cache.set_insert_observer(Arc::new(move |entry| {
            if !observer_shared.active.load(Ordering::Relaxed) {
                return;
            }
            observer_shared.catalog_add(entry);
            if let Some(queue) = &observer_queue {
                queue.push(entry.clone(), &observer_shared.counters);
            }
        }));

        Some(RemoteTier {
            cache: Arc::clone(cache),
            shared,
            client,
            write_behind,
            snapshot_save: config.snapshot_save.clone(),
        })
    }

    /// Probes the peer for `state` at `rip` — called on a local cache miss
    /// only. A verified, matching entry is inserted locally (read-through)
    /// and returned; everything else is a miss. Never blocks beyond the
    /// configured deadline, and returns immediately while the client backs
    /// off or once it is dead.
    pub(crate) fn fetch(&self, rip: u32, state: &StateVector) -> Option<CacheEntry> {
        let client = self.client.as_ref()?;
        let pairs = self.shared.pairs_for(rip, state);
        if pairs.is_empty() {
            return None;
        }
        let mut client = client.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if !client.ready() {
            if client.is_down() {
                self.shared.counters.degraded.store(true, Ordering::Relaxed);
            }
            return None;
        }
        let request = codec::encode_frame(FrameKind::Get, &codec::encode_get(rip, &pairs));
        let counters = &self.shared.counters;
        match client.request(&request) {
            Ok(frame) => match frame.kind {
                FrameKind::GetHit => match codec::decode_entry(&frame.payload) {
                    Some(entry) if entry.rip == rip => {
                        // Read-through: the entry joins the local tier
                        // either way (un-echoed — it came *from* the peer).
                        self.shared.catalog_add(&entry);
                        self.cache.insert_unobserved(entry.clone());
                        if entry.matches(state) {
                            counters.record_remote_hit();
                            Some(entry)
                        } else {
                            // The 64-bit hashes said maybe; the bytes said
                            // no — the collision guard, across the wire.
                            counters.record_remote_miss();
                            None
                        }
                    }
                    Some(_) | None => {
                        counters.record_frame_rejected();
                        None
                    }
                },
                FrameKind::GetMiss => {
                    counters.record_remote_miss();
                    None
                }
                _ => {
                    counters.record_frame_rejected();
                    None
                }
            },
            Err(error) => {
                if error.kind() == std::io::ErrorKind::InvalidData {
                    counters.record_frame_rejected();
                } else {
                    counters.record_remote_timeout();
                }
                None
            }
        }
    }

    /// Shuts the tier down after the speculation machinery has joined:
    /// quiets the insert observer, drains the write-behind queue, writes
    /// the shutdown snapshot, and returns the run's counters.
    pub(crate) fn finish(self) -> RemoteStats {
        self.shared.active.store(false, Ordering::SeqCst);
        if let Some(write_behind) = self.write_behind {
            write_behind.finish();
        }
        if let Some(path) = &self.snapshot_save {
            if let Ok(saved) = snapshot::save(&self.cache, path) {
                self.shared.counters.snapshot_saved.fetch_add(saved, Ordering::Relaxed);
            }
        }
        if let Some(client) = &self.client {
            let client = client.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            self.shared.counters.add_peer_reconnects(client.reconnects());
            if client.is_down() {
                self.shared.counters.degraded.store(true, Ordering::Relaxed);
            }
        }
        self.shared.counters.snapshot()
    }
}
