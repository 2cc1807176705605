//! One shard of the distributed control plane: a full
//! [`AllocatorService`] plus the exchange protocol run over a real
//! [`Transport`] — receiver-driven, so a slow peer degrades its own
//! freshness instead of stalling everyone's tick.
//!
//! A [`ShardPeer`] is the distributed twin of one shard inside the
//! in-process `ShardedService`: it owns the same [`ExchangeCore`]
//! state machine, so an exchange round is the same shape — export and
//! broadcast, apply every peer's frame, install — with the frames now
//! crossing a wire instead of a `Vec` slice. The phases are an explicit
//! session type: [`ShardPeer::begin_round`] ticks the allocator and
//! broadcasts this shard's frame, and the [`ExchangeRound`] it returns
//! must be [`finish`](ExchangeRound::finish)ed before the next tick —
//! the borrow makes misordering a compile error.
//!
//! Receiving is asynchronous: a [`RecvRuntime`] thread per remote peer
//! drains that peer's frames into a mailbox as they arrive, and the
//! barrier inside [`ExchangeRound::finish`] installs **the freshest
//! state each mailbox holds** rather than blocking per socket:
//!
//! * a peer that was fresh last round is waited for (up to the round
//!   timeout) — in a healthy cluster frames are already buffered and
//!   the wait is a mailbox handoff, which is what keeps the on-time
//!   path bit-for-bit identical to the old blocking lockstep;
//! * a peer that already missed a barrier is only *polled* — its missed
//!   rounds cost nothing, the round installs from the last state it
//!   shipped, and [`WireStats`] reports how far behind it is
//!   ([`PeerLag::rounds_behind`]);
//! * a peer that has been stale for
//!   [`ExchangeConfig::max_rounds_behind`] consecutive barriers is
//!   waited for again each round, so a free-running cluster cannot
//!   drift unboundedly ahead of a laggard's state.
//!
//! The peer reports two byte counts: the *logical* hub-model accounting
//! (`ServiceStats::exchange_bytes`, identical to in-process) and the
//! actual on-wire bytes its transport moved ([`WireStats`]), frame
//! headers, record tags and length prefixes included — now with a
//! per-peer receive/staleness breakdown.

use std::io;
use std::time::{Duration, Instant};

use flowtune::{
    AllocatorService, ExchangeConfig, ExchangeCore, FlowMigration, ServiceError, ServiceStats,
};
use flowtune_alloc::{RateAllocator, SerialAllocator};
use flowtune_proto::exchange::{
    decode_header, encode_header, encode_record, FrameHeader, FrameKind, Record, RecordIter,
};
use flowtune_proto::{Message, Token};

use crate::runtime::{Polled, RecvRuntime};
use crate::transport::{Sender, Transport, TransportError};

/// What went wrong driving a peer's exchange. Layered over
/// [`TransportError`]: transport-level faults keep their typed cause,
/// OS-level ones carry the raw [`io::Error`], and the
/// `From<PeerError> for io::Error` shim lets callers that still speak
/// `io::Result` migrate incrementally.
#[derive(Debug)]
pub enum PeerError {
    /// The transport failed moving a frame to or from `peer`.
    Transport {
        /// The remote peer involved.
        peer: u16,
        /// The typed transport-level cause.
        error: TransportError,
    },
    /// An OS-level I/O failure on the link to `peer`.
    Io {
        /// The remote peer involved.
        peer: u16,
        /// The raw cause.
        error: io::Error,
    },
    /// `peer`'s epoch frame never arrived. An epoch is a barrier —
    /// unlike a state round it cannot degrade to stale state.
    EpochTimeout {
        /// The peer whose epoch frame is missing.
        peer: u16,
    },
    /// `peer`'s receiver thread is gone and its mailbox is empty; the
    /// terminal cause was already reported.
    ReceiverGone {
        /// The peer whose receive path died.
        peer: u16,
    },
    /// Splitting the transport into its halves failed at construction.
    Setup {
        /// The raw cause.
        error: io::Error,
    },
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Transport { peer, error } => write!(f, "peer {peer}: {error}"),
            PeerError::Io { peer, error } => write!(f, "peer {peer}: {error}"),
            PeerError::EpochTimeout { peer } => {
                write!(f, "epoch frame from peer {peer} never arrived")
            }
            PeerError::ReceiverGone { peer } => {
                write!(f, "receive path to peer {peer} is gone")
            }
            PeerError::Setup { error } => write!(f, "transport split failed: {error}"),
        }
    }
}

impl std::error::Error for PeerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PeerError::Transport { error, .. } => Some(error),
            PeerError::Io { error, .. } | PeerError::Setup { error } => Some(error),
            PeerError::EpochTimeout { .. } | PeerError::ReceiverGone { .. } => None,
        }
    }
}

impl PeerError {
    /// The failure's I/O class — what the `io::Error` shim carries, and
    /// what a `ServiceError::PeerFailed` reports.
    pub(crate) fn kind(&self) -> io::ErrorKind {
        match self {
            PeerError::Transport { error, .. } => io::Error::from(*error).kind(),
            PeerError::Io { error, .. } | PeerError::Setup { error } => error.kind(),
            PeerError::EpochTimeout { .. } => io::ErrorKind::TimedOut,
            PeerError::ReceiverGone { .. } => io::ErrorKind::BrokenPipe,
        }
    }
}

impl From<PeerError> for io::Error {
    fn from(e: PeerError) -> io::Error {
        io::Error::new(e.kind(), e)
    }
}

/// Re-type an `io::Error` from a transport call: recover the
/// [`TransportError`] it carries when there is one.
fn io_to_peer(peer: u16, e: io::Error) -> PeerError {
    match e.get_ref().and_then(|r| r.downcast_ref::<TransportError>()) {
        Some(&error) => PeerError::Transport { peer, error },
        None => PeerError::Io { peer, error: e },
    }
}

/// One remote peer's receive/staleness view, as reported in
/// [`WireStats::peers`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerLag {
    /// The remote peer's shard id.
    pub peer: u16,
    /// Consecutive exchange barriers this peer has missed. `0` means it
    /// was fresh at the latest barrier.
    pub rounds_behind: u64,
    /// The worst `rounds_behind` observed over the peer's lifetime —
    /// the high-water mark a post-run report reads after the laggard
    /// has recovered.
    pub peak_rounds_behind: u64,
    /// The last round (tick number) at which this peer's frame arrived
    /// in time for the barrier.
    pub last_fresh_round: u64,
    /// Bytes received from this peer (length prefixes included),
    /// counted at mailbox arrival.
    pub rx_bytes: u64,
    /// Frames received from this peer, counted at mailbox arrival.
    pub rx_frames: u64,
}

/// On-wire counters of one peer's transport use (separate from the
/// logical `ServiceStats::exchange_bytes` accounting — see the module
/// docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Bytes shipped to peers (length prefixes included).
    pub tx_bytes: u64,
    /// Bytes received from peers (length prefixes included).
    pub rx_bytes: u64,
    /// Frames shipped.
    pub tx_frames: u64,
    /// Frames received.
    pub rx_frames: u64,
    /// Exchange rounds in which at least one peer's frame missed the
    /// barrier and the round installed from last-shipped state.
    pub late_rounds: u64,
    /// Per-remote-peer receive and staleness breakdown, ascending by
    /// shard id.
    pub peers: Vec<PeerLag>,
}

impl WireStats {
    /// How many consecutive barriers `peer` has missed, or `None` if
    /// `peer` is not a remote peer of this endpoint.
    pub fn rounds_behind(&self, peer: u16) -> Option<u64> {
        self.peers
            .iter()
            .find(|l| l.peer == peer)
            .map(|l| l.rounds_behind)
    }

    /// The worst staleness across remote peers (0 when everyone was
    /// fresh at the latest barrier).
    pub fn max_rounds_behind(&self) -> u64 {
        self.peers
            .iter()
            .map(|l| l.rounds_behind)
            .max()
            .unwrap_or(0)
    }

    /// The worst staleness any remote peer ever reached (the high-water
    /// mark survives recovery).
    pub fn max_peak_rounds_behind(&self) -> u64 {
        self.peers
            .iter()
            .map(|l| l.peak_rounds_behind)
            .max()
            .unwrap_or(0)
    }
}

/// Per-slot staleness bookkeeping behind [`PeerLag`].
#[derive(Debug, Clone, Copy, Default)]
struct SlotLag {
    rounds_behind: u64,
    peak_rounds_behind: u64,
    last_fresh_round: u64,
    /// Newest state-frame round ever applied from this peer. Carried
    /// across barriers: a free-running peer's frame for round `T+1` can
    /// be swept up during barrier `T`, and must still satisfy barrier
    /// `T+1` when it comes.
    freshest_round: u64,
}

/// One shard's allocator service plus its side of the wire exchange.
#[derive(Debug)]
pub struct ShardPeer<T: Transport, E: RateAllocator = SerialAllocator> {
    svc: AllocatorService<E>,
    core: ExchangeCore,
    tx: T::Tx,
    rt: RecvRuntime,
    exchange: ExchangeConfig,
    ticks: u64,
    /// An exchange round was exported this tick and awaits its barrier.
    round_due: bool,
    // Reusable export/frame scratch: the encode path allocates nothing
    // once these are warm.
    loads: Vec<f64>,
    hessians: Vec<f64>,
    prices: Vec<f64>,
    frame_buf: Vec<u8>,
    /// Per-mailbox-slot staleness bookkeeping.
    lag: Vec<SlotLag>,
    /// Epoch frames the barrier set aside for [`ShardPeer::gather_epoch`],
    /// per mailbox slot.
    epoch_stash: Vec<std::collections::VecDeque<Vec<u8>>>,
    /// This peer's exchange counters (rounds, logical bytes, decode
    /// errors) — the distributed share of what the in-process routing
    /// layer counts centrally.
    local: ServiceStats,
    /// Send-side wire counters; the receive side lives in the runtime's
    /// mailboxes.
    tx_bytes: u64,
    tx_frames: u64,
    late_rounds: u64,
    /// Cumulative wall time of completed exchange phases: frame encode
    /// and broadcast, barrier wait and install.
    exchange_time: Duration,
}

impl<T: Transport, E: RateAllocator> ShardPeer<T, E> {
    /// Wrap `svc` as the shard `transport.shard()` peer of a
    /// `transport.peers()`-shard cluster, splitting the transport and
    /// spawning the receiver runtime. The exchange cadence, delta
    /// filter, barrier timeout and staleness bound all come from
    /// `exchange` ([`ExchangeConfig::from_flowtune`] lifts them from a
    /// service's flat config).
    ///
    /// # Errors
    /// [`PeerError::Setup`] when splitting the transport fails.
    pub fn new(
        svc: AllocatorService<E>,
        transport: T,
        exchange: ExchangeConfig,
    ) -> Result<Self, PeerError> {
        let shard = transport.shard();
        let peers = transport.peers();
        let core = ExchangeCore::new(shard, peers, exchange.delta_eps);
        let (tx, rxs) = transport
            .split()
            .map_err(|error| PeerError::Setup { error })?;
        let slots = rxs.len();
        let rt = RecvRuntime::spawn(rxs);
        Ok(ShardPeer {
            svc,
            core,
            tx,
            rt,
            exchange,
            ticks: 0,
            round_due: false,
            loads: Vec::new(),
            hessians: Vec::new(),
            prices: Vec::new(),
            frame_buf: Vec::new(),
            lag: vec![SlotLag::default(); slots],
            epoch_stash: (0..slots)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            local: ServiceStats::default(),
            tx_bytes: 0,
            tx_frames: 0,
            late_rounds: 0,
            exchange_time: Duration::ZERO,
        })
    }

    /// This peer's shard id.
    pub fn shard(&self) -> u16 {
        self.tx.shard()
    }

    /// Total peers in the cluster, this one included.
    pub fn peers(&self) -> usize {
        self.tx.peers()
    }

    /// Ticks driven so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The exchange configuration this peer runs under.
    pub fn exchange_config(&self) -> ExchangeConfig {
        self.exchange
    }

    /// The wrapped allocator service (message intake for flows this
    /// shard owns goes through here).
    pub fn service(&self) -> &AllocatorService<E> {
        &self.svc
    }

    /// Mutable access to the wrapped service.
    pub fn service_mut(&mut self) -> &mut AllocatorService<E> {
        &mut self.svc
    }

    /// Hand an endpoint notification to this shard's service.
    ///
    /// # Errors
    /// The service's [`ServiceError`]; the message is dropped and
    /// counted.
    pub fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        self.svc.on_message(msg)
    }

    /// On-wire transport counters, including the per-peer
    /// receive/staleness breakdown.
    pub fn wire_stats(&self) -> WireStats {
        let mut ws = WireStats {
            tx_bytes: self.tx_bytes,
            tx_frames: self.tx_frames,
            late_rounds: self.late_rounds,
            rx_bytes: 0,
            rx_frames: 0,
            peers: Vec::with_capacity(self.lag.len()),
        };
        for (slot, (&peer, lag)) in self.rt.peers().iter().zip(&self.lag).enumerate() {
            let (rx_bytes, rx_frames) = self.rt.rx_counters(slot);
            ws.rx_bytes += rx_bytes;
            ws.rx_frames += rx_frames;
            ws.peers.push(PeerLag {
                peer,
                rounds_behind: lag.rounds_behind,
                peak_rounds_behind: lag.peak_rounds_behind,
                last_fresh_round: lag.last_fresh_round,
                rx_bytes,
                rx_frames,
            });
        }
        ws
    }

    /// This peer's exchange counters alone (logical bytes, rounds,
    /// decode errors) — what a cluster aggregates across peers.
    pub fn exchange_stats(&self) -> ServiceStats {
        self.local
    }

    /// Cumulative wall time this peer spent in exchange rounds: frame
    /// encode and broadcast, plus barrier wait and install.
    pub fn exchange_time(&self) -> Duration {
        self.exchange_time
    }

    /// The service's counters plus this peer's exchange counters — the
    /// per-shard slice of what `ShardedService::stats` reports for the
    /// whole in-process cluster.
    pub fn stats(&self) -> ServiceStats {
        let mut total = self.svc.stats();
        total.exchange_rounds += self.local.exchange_rounds;
        total.exchange_bytes += self.local.exchange_bytes;
        total.exchange_decode_errors += self.local.exchange_decode_errors;
        total
    }

    /// Start one tick: run the allocator, and when an exchange round is
    /// due, export this shard's link state and broadcast it. The
    /// returned [`ExchangeRound`] borrows this peer until
    /// [`finish`](ExchangeRound::finish)ed — the barrier and install
    /// happen there, and no second round can begin meanwhile.
    ///
    /// # Errors
    /// A [`PeerError`] from a broadcast send (the tick's allocator work
    /// is done, the round is abandoned) or from a previous round left
    /// unfinished (it is caught up first).
    pub fn begin_round(&mut self) -> Result<ExchangeRound<'_, T, E>, PeerError> {
        let updates = self.tick_export()?;
        Ok(ExchangeRound {
            peer: self,
            updates,
        })
    }

    /// One whole tick: allocator, broadcast, barrier, install. For
    /// lockstep drivers; use [`ShardPeer::begin_round`] to overlap
    /// several peers' phases in one thread.
    ///
    /// # Errors
    /// Either phase's [`PeerError`].
    pub fn tick(&mut self) -> Result<Vec<(u16, Message)>, PeerError> {
        self.begin_round()?.finish()
    }

    /// Phase 1: catch up an unfinished round, tick the service, and
    /// when a round is due, export + broadcast.
    pub(crate) fn tick_export(&mut self) -> Result<Vec<(u16, Message)>, PeerError> {
        // A dropped ExchangeRound leaves its barrier pending; run it
        // before starting the next tick so rounds never interleave.
        self.exchange_finish()?;
        self.ticks += 1;
        let updates = self.svc.tick();
        let due = self.exchange.every > 0
            && self.tx.peers() > 1
            && self.ticks.is_multiple_of(self.exchange.every);
        self.round_due = due;
        if due {
            self.svc.link_loads_into(&mut self.loads);
            self.svc.link_hessians_into(&mut self.hessians);
            self.svc.link_prices_into(&mut self.prices);
            let t0 = Instant::now();
            self.frame_buf.clear();
            self.core.begin_round(
                self.ticks,
                &self.loads,
                &self.hessians,
                &self.prices,
                &mut self.frame_buf,
            );
            self.broadcast_frame_buf()?;
            self.exchange_time += t0.elapsed();
        }
        Ok(updates)
    }

    /// Phase 2: the staleness-aware barrier. For each remote peer,
    /// install the freshest state its mailbox holds — waiting only for
    /// peers that were fresh last round (or are past the staleness
    /// bound), polling the rest — then install the recomputed
    /// aggregation into the service. A no-op when no round is due.
    pub(crate) fn exchange_finish(&mut self) -> Result<(), PeerError> {
        if !self.round_due {
            return Ok(());
        }
        self.round_due = false;
        let t0 = Instant::now();
        let target = self.ticks;
        for slot in 0..self.lag.len() {
            self.collect_slot(slot, target)?;
        }
        if let Some(bytes) = self.core.install(&mut self.svc) {
            self.local.exchange_rounds += 1;
            self.local.exchange_bytes += bytes;
        }
        self.exchange_time += t0.elapsed();
        Ok(())
    }

    /// Drain one peer's mailbox: apply every buffered state frame in
    /// arrival order (the replica ends on the freshest), set epoch
    /// frames aside, and decide fresh/stale from the newest round seen
    /// once the mailbox runs dry.
    fn collect_slot(&mut self, slot: usize, target: u64) -> Result<(), PeerError> {
        let Some(&peer) = self.rt.peers().get(slot) else {
            return Ok(());
        };
        let (behind, mut freshest) = match self.lag.get(slot) {
            Some(l) => (l.rounds_behind, l.freshest_round),
            None => return Ok(()),
        };
        let throttle = self.exchange.max_rounds_behind;
        // Fresh peers are waited for — in a healthy cluster their frame
        // is already buffered and the wait is a mailbox handoff. A peer
        // that already missed a barrier is only polled, so its missed
        // rounds cost nothing; once it is `max_rounds_behind` barriers
        // behind we wait again every round, bounding the drift.
        let wait = behind == 0 || (throttle > 0 && behind >= throttle);
        let deadline = Instant::now() + self.exchange.round_timeout;
        loop {
            let polled = if wait && freshest < target {
                self.rt.pop_deadline(slot, deadline)
            } else {
                // Target reached (or peer not waited for): sweep
                // whatever else is already buffered so a recovering
                // peer's backlog drains in one barrier, not one frame
                // per round.
                self.rt.try_pop(slot)
            };
            match polled {
                Polled::Empty => break,
                Polled::Closed => {
                    // The peer's stream ended. A round its final frame
                    // already satisfied still completes (the normal
                    // shutdown race: the peer sent its last round and
                    // exited); the first barrier the closure leaves
                    // unsatisfied surfaces it as an error.
                    if freshest >= target {
                        break;
                    }
                    return Err(self.closed_error(slot, peer));
                }
                Polled::Frame(frame) => {
                    let header = match decode_header(&frame) {
                        Ok(h) => h,
                        Err(_) => {
                            self.local.exchange_decode_errors += 1;
                            self.rt.recycle(frame);
                            continue;
                        }
                    };
                    if header.kind == FrameKind::Epoch {
                        // An epoch announcement racing the tick stream;
                        // gather_epoch consumes it.
                        if let Some(stash) = self.epoch_stash.get_mut(slot) {
                            stash.push_back(frame);
                        }
                        continue;
                    }
                    let round = header.round;
                    if self.core.apply_frame(&frame).is_err() {
                        self.local.exchange_decode_errors += 1;
                    }
                    self.rt.recycle(frame);
                    freshest = freshest.max(round);
                }
            }
        }
        if let Some(l) = self.lag.get_mut(slot) {
            l.freshest_round = freshest;
            if freshest >= target {
                l.rounds_behind = 0;
                l.last_fresh_round = target;
            } else {
                // Stale round (even if older catch-up frames arrived):
                // install from this peer's last-shipped state; its next
                // frame heals the replica.
                l.rounds_behind += 1;
                l.peak_rounds_behind = l.peak_rounds_behind.max(l.rounds_behind);
                self.late_rounds += 1;
            }
        }
        Ok(())
    }

    /// The error for a closed mailbox: the thread's recorded failure if
    /// it is still unclaimed, the generic receiver-gone otherwise.
    fn closed_error(&self, slot: usize, peer: u16) -> PeerError {
        match self.rt.take_failure(slot) {
            Some(e) => io_to_peer(peer, e),
            None => PeerError::ReceiverGone { peer },
        }
    }

    /// Announce a placement epoch: broadcast an epoch frame carrying
    /// this shard's leaving flows (each with the shard that adopts it)
    /// and mark the exchange for a catch-up resync, as every
    /// re-placement epoch does (`ShardRouter::replace`). The counterpart
    /// [`ShardPeer::gather_epoch`] must run on every peer.
    ///
    /// # Errors
    /// A [`PeerError`] from a broadcast send.
    pub fn broadcast_epoch(
        &mut self,
        epoch: u64,
        leavers: &[(FlowMigration, u16)],
    ) -> Result<(), PeerError> {
        self.frame_buf.clear();
        encode_header(
            &FrameHeader {
                kind: FrameKind::Epoch,
                shard: self.tx.shard(),
                round: self.ticks,
                n_links: 0,
                active: false,
                has_hessians: false,
            },
            &mut self.frame_buf,
        );
        encode_record(&Record::EpochBegin { epoch }, false, &mut self.frame_buf);
        for &(m, dst_shard) in leavers {
            encode_record(
                &Record::Migration {
                    token: m.token.get(),
                    src: m.src,
                    dst: m.dst,
                    weight_q8: m.weight_q8,
                    spine: m.spine,
                    dst_shard,
                },
                false,
                &mut self.frame_buf,
            );
        }
        self.broadcast_frame_buf()?;
        self.core.request_resync();
        Ok(())
    }

    /// Collect one epoch frame from every peer, appending the
    /// migrations addressed to this shard to `adopt` (unsorted; the
    /// caller orders and adopts them). Stray state frames received
    /// while waiting are applied to the replicas as usual.
    ///
    /// # Errors
    /// A [`PeerError`]; an epoch is a barrier, so unlike a state round
    /// a peer whose epoch frame never arrives is
    /// [`PeerError::EpochTimeout`], not a late round.
    pub fn gather_epoch(&mut self, adopt: &mut Vec<FlowMigration>) -> Result<(), PeerError> {
        let me = self.tx.shard();
        for slot in 0..self.lag.len() {
            let Some(&peer) = self.rt.peers().get(slot) else {
                continue;
            };
            let deadline = Instant::now() + self.exchange.round_timeout;
            loop {
                let frame = match self.epoch_stash.get_mut(slot).and_then(|s| s.pop_front()) {
                    Some(f) => f,
                    None => match self.rt.pop_deadline(slot, deadline) {
                        Polled::Frame(f) => f,
                        Polled::Empty => return Err(PeerError::EpochTimeout { peer }),
                        Polled::Closed => return Err(self.closed_error(slot, peer)),
                    },
                };
                let (header, records) = match RecordIter::new(&frame) {
                    Ok(decoded) => decoded,
                    Err(_) => {
                        self.local.exchange_decode_errors += 1;
                        self.rt.recycle(frame);
                        continue;
                    }
                };
                if header.kind != FrameKind::Epoch {
                    if self.core.apply_frame(&frame).is_err() {
                        self.local.exchange_decode_errors += 1;
                    }
                    self.rt.recycle(frame);
                    continue;
                }
                for record in records {
                    match record {
                        Ok(Record::Migration {
                            token,
                            src,
                            dst,
                            weight_q8,
                            spine,
                            dst_shard,
                        }) if dst_shard == me => adopt.push(FlowMigration {
                            token: Token::new(token),
                            src,
                            dst,
                            weight_q8,
                            spine,
                        }),
                        Ok(_) => {}
                        Err(_) => {
                            self.local.exchange_decode_errors += 1;
                            break;
                        }
                    }
                }
                self.rt.recycle(frame);
                break;
            }
        }
        Ok(())
    }

    fn broadcast_frame_buf(&mut self) -> Result<(), PeerError> {
        let me = self.tx.shard();
        for p in 0..self.tx.peers() as u16 {
            if p == me {
                continue;
            }
            let bytes = self
                .tx
                .send(p, &self.frame_buf)
                .map_err(|e| io_to_peer(p, e))?;
            self.tx_bytes += bytes;
            self.tx_frames += 1;
        }
        Ok(())
    }
}

/// One in-flight exchange round: the session between
/// [`ShardPeer::begin_round`] (allocator tick + broadcast, already
/// done) and the barrier + install in [`ExchangeRound::finish`]. The
/// exclusive borrow of the peer makes starting a second round before
/// finishing this one a compile error; a round dropped unfinished is
/// caught up by the peer's next tick.
#[must_use = "finish() runs the exchange barrier; dropping delays it to the next tick"]
#[derive(Debug)]
pub struct ExchangeRound<'p, T: Transport, E: RateAllocator = SerialAllocator> {
    peer: &'p mut ShardPeer<T, E>,
    updates: Vec<(u16, Message)>,
}

impl<T: Transport, E: RateAllocator> ExchangeRound<'_, T, E> {
    /// The rate-update stream produced by this round's allocator tick.
    pub fn updates(&self) -> &[(u16, Message)] {
        &self.updates
    }

    /// Move this round's updates into `out` (appended), leaving the
    /// round's own list empty — for callers recycling one buffer
    /// across ticks.
    pub fn take_updates_into(&mut self, out: &mut Vec<(u16, Message)>) {
        out.append(&mut self.updates);
    }

    /// Run the staleness-aware barrier and install the round, returning
    /// the tick's updates.
    ///
    /// # Errors
    /// A [`PeerError`] from the receive path.
    pub fn finish(self) -> Result<Vec<(u16, Message)>, PeerError> {
        self.peer.exchange_finish()?;
        Ok(self.updates)
    }
}
