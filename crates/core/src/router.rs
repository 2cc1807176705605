//! The sharded control plane's routing layer, written once for both of
//! its exchange backends.
//!
//! Flowtune §5 partitions the allocator into blocks that share link
//! state through one aggregation step. The sharded control plane does
//! the same one level up: N [`AllocatorService`] shards, each owning a
//! slice of the endpoint space, exchanging per-link state every
//! [`FlowtuneConfig::exchange_every`](crate::FlowtuneConfig) ticks.
//! [`ShardRouter`] is everything about that arrangement that does not
//! depend on *how* the shards exchange:
//!
//! * **routing** — a `FlowletStart` goes to the shard that owns its
//!   source endpoint under the current [`Placement`]; token-addressed
//!   messages follow a token→shard table;
//! * **routing-layer accounting** — cross-shard duplicate starts,
//!   unknown ends and stray rate updates are disposed of (and counted)
//!   here, so the aggregate [`ServiceStats`] match an unsharded service
//!   byte for byte;
//! * **the observed rack traffic matrix** accumulated from accepted
//!   starts — the online signal a re-placement is computed from;
//! * **the merged update stream** — per-shard streams are token-ordered
//!   and token sets are disjoint, so [`merge_by_token_into`] reproduces
//!   exactly the order an unsharded service emits;
//! * **re-placement epochs** ([`ShardRouter::replace`]) with one
//!   migration order for every backend;
//! * **aggregation** of stats, link loads and phase timings, and the
//!   [`TickDriver`] face.
//!
//! A [`ShardBackend`] holds what differs: the shards themselves, how a
//! tick fans out over them, how an exchange round moves their frames,
//! and how migrated flows reach their new shard. Two backends exist:
//!
//! * the in-process backend behind
//!   [`ShardedService`](crate::ShardedService) — plain services, a
//!   worker-pool fan-out, and per-shard exchange cores over one flat
//!   frame buffer, where the synchronous tick that moves each shard's
//!   frame *is* the transport;
//! * the wire backend behind `flowtune_net::PeerCluster` — one shard
//!   peer per shard, each with its own transport, ticked in
//!   begin-all/finish-all rounds.
//!
//! Both run the same exchange core over the same serialized frames, so
//! with every frame on time the two instantiations are bit-for-bit
//! identical: same update streams, rates, counters and migrations.

use std::collections::HashMap;
use std::time::Duration;

use flowtune_alloc::RateAllocator;
use flowtune_proto::{Message, Token};
use flowtune_topo::TwoTierClos;

use crate::driver::{PhaseTimings, TickDriver};
use crate::placement::{Placement, TrafficMatrix};
use crate::service::{AllocatorService, FlowMigration, ServiceError, ServiceStats};

/// How a sharded control plane ticks its shards and moves link state
/// between them — the part of [`ShardRouter`] that differs between the
/// in-process and the wire deployment (see the module docs).
pub trait ShardBackend: std::fmt::Debug + Send {
    /// The unit the backend is assembled from, one per shard.
    type Shard;
    /// The allocation engine every shard's service runs.
    type Engine: RateAllocator;
    /// The instantiation's [`TickDriver::engine_name`].
    const NAME: &'static str;

    /// Assembles the backend from its shards, in shard order.
    ///
    /// # Panics
    /// Panics if `shards` is empty or the shards are inconsistent with
    /// each other.
    fn from_shards(shards: Vec<Self::Shard>) -> Self;

    /// The shards, in shard order.
    fn shards(&self) -> &[Self::Shard];

    /// Shard `shard`'s allocator service.
    fn service(&self, shard: usize) -> &AllocatorService<Self::Engine>;

    /// Mutable access to shard `shard`'s allocator service.
    fn service_mut(&mut self, shard: usize) -> &mut AllocatorService<Self::Engine>;

    /// One tick of every shard, plus the exchange round when the cadence
    /// is due. Shard `i`'s token-ordered update stream replaces
    /// `streams[i]`.
    ///
    /// # Errors
    /// A [`ServiceError`] naming the lowest-indexed shard that failed.
    fn tick(&mut self, streams: &mut [Vec<(u16, Message)>]) -> Result<(), ServiceError>;

    /// Delivers a re-placement epoch: `moves` lists every migrated flow
    /// as `(from, to, flow)` in ascending token order, already extracted
    /// from its old shard. Each shard adopts its arrivals in ascending
    /// token order, and every shard's exchange is marked for a catch-up
    /// resync.
    ///
    /// # Errors
    /// A [`ServiceError`] naming the shard whose delivery failed.
    fn migrate(&mut self, moves: &[(usize, usize, FlowMigration)]) -> Result<(), ServiceError>;

    /// The exchange's own counters (`exchange_rounds`, `exchange_bytes`,
    /// `exchange_decode_errors`; every other field zero), each round
    /// counted once for the whole control plane.
    fn exchange_stats(&self) -> ServiceStats;

    /// Cumulative wall time spent moving and installing exchange frames.
    fn exchange_time(&self) -> Duration;
}

/// N allocator shards behind one [`TickDriver`] face: the routing layer
/// over an exchange backend (see the module docs).
#[derive(Debug)]
pub struct ShardRouter<B: ShardBackend> {
    backend: B,
    /// The endpoint→shard mapping `FlowletStart`s route by; swapped by
    /// [`ShardRouter::replace`].
    placement: Placement,
    /// token → shard, for `FlowletEnd` routing and rate queries.
    route: HashMap<Token, u32>,
    /// Servers per rack, for the observed matrix's rack granularity.
    servers_per_rack: usize,
    /// Rack-level traffic matrix accumulated from accepted starts.
    observed: TrafficMatrix,
    /// Counters for messages the routing layer disposed of itself
    /// (duplicates, unknown ends, stray rate updates).
    local: ServiceStats,
    /// Per-shard update-stream scratch, reused across ticks so a quiet
    /// tick allocates nothing.
    streams: Vec<Vec<(u16, Message)>>,
}

impl<B: ShardBackend> ShardRouter<B> {
    /// Assembles the control plane from already-built shards (all over
    /// the same fabric) under the contiguous placement: shard `i` owns
    /// the `i`-th contiguous slice of the server space. The shards'
    /// [`FlowtuneConfig::placement`](crate::FlowtuneConfig) spec is not
    /// consulted; pass an explicit [`Placement`] to
    /// [`ShardRouter::with_placement`] for any other mapping.
    ///
    /// # Panics
    /// Panics if `shards` is empty or the shards disagree on the fabric
    /// (or on whatever else the backend requires them to agree on).
    pub fn from_shards(shards: Vec<B::Shard>) -> Self {
        let backend = B::from_shards(shards);
        let servers = backend.service(0).fabric().config().server_count();
        let placement = Placement::contiguous(servers, backend.shards().len());
        Self::assemble(backend, placement)
    }

    /// [`ShardRouter::from_shards`] with an explicit endpoint→shard
    /// [`Placement`] (built by [`Placement::contiguous`] or
    /// [`Placement::traffic`];
    /// [`ServiceBuilder::build_driver`](crate::ServiceBuilder::build_driver)
    /// materializes one from the config's placement spec).
    ///
    /// # Panics
    /// As [`ShardRouter::from_shards`], or if the placement's shape
    /// (server count, shard count) does not match.
    pub fn with_placement(shards: Vec<B::Shard>, placement: Placement) -> Self {
        Self::assemble(B::from_shards(shards), placement)
    }

    fn assemble(backend: B, placement: Placement) -> Self {
        let n = backend.shards().len();
        let clos = backend.service(0).fabric().config().clone();
        assert!(
            (0..n).all(|i| *backend.service(i).fabric().config() == clos),
            "all shards must serve the same fabric"
        );
        assert_eq!(
            placement.servers(),
            clos.server_count(),
            "placement must cover exactly the fabric's servers"
        );
        assert_eq!(
            placement.shard_count(),
            n,
            "placement must map onto exactly the built shards"
        );
        Self {
            backend,
            placement,
            route: HashMap::new(),
            servers_per_rack: clos.servers_per_rack,
            observed: TrafficMatrix::new(clos.server_count() / clos.servers_per_rack),
            local: ServiceStats::default(),
            streams: vec![Vec::new(); n],
        }
    }

    /// The exchange backend (backend-specific telemetry lives there).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.streams.len()
    }

    /// Read access to the shards, in shard order.
    pub fn shards(&self) -> &[B::Shard] {
        self.backend.shards()
    }

    /// The shard owning source endpoint `src` under the current
    /// [`Placement`]. Out-of-range endpoints clamp to the last server's
    /// shard, whose service rejects them as
    /// [`ServiceError::MalformedStart`].
    pub fn shard_of(&self, src: u16) -> usize {
        self.placement.shard_of(src)
    }

    /// The endpoint→shard mapping currently routing `FlowletStart`s.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The shard an active flowlet is registered in.
    pub fn shard_for_token(&self, token: Token) -> Option<usize> {
        self.route.get(&token).map(|&s| s as usize)
    }

    /// The rack-level traffic matrix accumulated from accepted flowlet
    /// starts since construction (offered bytes by `size_hint`, floored
    /// at 1 so zero-hint flowlets still register) — the online signal
    /// [`Placement::traffic`] consumes for a re-placement epoch.
    pub fn observed_matrix(&self) -> &TrafficMatrix {
        &self.observed
    }

    /// Routes an endpoint notification to its shard (see
    /// [`AllocatorService::on_message`] for semantics; the behavior —
    /// including rejection counting — matches the unsharded service).
    ///
    /// # Errors
    /// The inner service's error, or [`ServiceError::DuplicateToken`] /
    /// [`ServiceError::UnexpectedRateUpdate`] raised at the routing layer.
    pub fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        match msg {
            Message::FlowletStart {
                token,
                src,
                dst,
                size_hint,
                ..
            } => {
                if self.route.contains_key(&token) {
                    // Cross-shard duplicate detection must happen here: the
                    // original may live in a different shard than the one
                    // `src` routes to.
                    self.local.bytes_in += msg.encoded_len() as u64;
                    self.local.rejected += 1;
                    return Err(ServiceError::DuplicateToken(token));
                }
                let shard = self.shard_of(src);
                self.backend.service_mut(shard).on_message(msg)?;
                self.route.insert(token, shard as u32);
                // Accepted (so src/dst are in range): feed the online
                // placement signal at rack granularity.
                let rack_of = |s: u16| s as usize / self.servers_per_rack;
                self.observed
                    .add(rack_of(src), rack_of(dst), f64::from(size_hint.max(1)));
                Ok(())
            }
            Message::FlowletEnd { token } => match self.route.remove(&token) {
                Some(shard) => self.backend.service_mut(shard as usize).on_message(msg),
                None => {
                    // Unknown ends are ignored (predecessor allocator or
                    // re-keyed endpoint), but their bytes still arrived.
                    self.local.bytes_in += msg.encoded_len() as u64;
                    Ok(())
                }
            },
            Message::RateUpdate { .. } => {
                self.local.bytes_in += msg.encoded_len() as u64;
                self.local.rejected += 1;
                Err(ServiceError::UnexpectedRateUpdate)
            }
        }
    }

    /// Installs a new [`Placement`] — a **re-placement epoch**. Every
    /// active flowlet whose source endpoint now belongs to a different
    /// shard migrates, in one order whatever the backend: first every
    /// moved flow is extracted from its old shard in ascending token
    /// order, then each shard adopts its arrivals in ascending token
    /// order. Migrated flows re-enter their engine at the initial rate
    /// and re-converge under the new shard's prices (F-NORM keeps the
    /// transient feasible); unmoved flows are untouched, and aggregate
    /// stats do not move — migration is not intake churn. Every shard's
    /// exchange re-ships its unmoved non-zero entries on the next round
    /// (a catch-up resync), so a peer restarted with empty replicas
    /// recovers. Returns the number of flows migrated.
    ///
    /// # Errors
    /// The backend's [`ServiceError`] if delivering the epoch failed.
    ///
    /// # Panics
    /// Panics if the placement's shape (server count, shard count) does
    /// not match this control plane.
    pub fn replace(&mut self, placement: Placement) -> Result<usize, ServiceError> {
        assert_eq!(
            placement.servers(),
            self.placement.servers(),
            "replacement must cover the same server space"
        );
        assert_eq!(
            placement.shard_count(),
            self.shard_count(),
            "replacement must map onto the same shard count"
        );
        // flowtune-lint: allow(float-determinism, "snapshot is sorted by token before any flow moves")
        let mut tokens: Vec<(Token, u32)> = self.route.iter().map(|(&t, &s)| (t, s)).collect();
        tokens.sort_unstable_by_key(|&(t, _)| t);
        let mut moves = Vec::new();
        for (token, old) in tokens {
            let from = old as usize;
            let svc = self.backend.service_mut(from);
            let src = svc
                .flow_source(token)
                .expect("routed token must be registered in its shard");
            let to = placement.shard_of(src);
            if to != from {
                let flow = svc
                    .extract_flow(token)
                    .expect("routed token must be extractable");
                moves.push((from, to, flow));
                self.route.insert(token, to as u32);
            }
        }
        self.placement = placement;
        self.backend.migrate(&moves)?;
        Ok(moves.len())
    }

    /// Current normalized rate of an active flowlet, Gbit/s.
    pub fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        let &shard = self.route.get(&token)?;
        self.backend.service(shard as usize).flow_rate_gbps(token)
    }

    /// Number of active flowlets across all shards.
    pub fn active_flows(&self) -> usize {
        self.route.len()
    }

    /// Operating counters aggregated over shards, plus the routing
    /// layer's own rejections and the backend's exchange counters.
    pub fn stats(&self) -> ServiceStats {
        let mut total = self.local;
        let shards = (0..self.shard_count()).map(|i| self.backend.service(i).stats());
        for stats in std::iter::once(self.backend.exchange_stats()).chain(shards) {
            // Exhaustive destructuring: a counter added to `ServiceStats`
            // must fail to compile here until it is aggregated.
            let ServiceStats {
                starts,
                ends,
                updates_sent,
                updates_suppressed,
                bytes_in,
                bytes_out,
                iterations,
                rejected,
                exchange_rounds,
                exchange_bytes,
                exchange_decode_errors,
                dirty_flows,
                dirty_links,
            } = stats;
            total.starts += starts;
            total.ends += ends;
            total.updates_sent += updates_sent;
            total.updates_suppressed += updates_suppressed;
            total.bytes_in += bytes_in;
            total.bytes_out += bytes_out;
            total.iterations += iterations;
            total.rejected += rejected;
            // Only the backend's entry carries exchange counters: the
            // services never run exchanges themselves.
            total.exchange_rounds += exchange_rounds;
            total.exchange_bytes += exchange_bytes;
            total.exchange_decode_errors += exchange_decode_errors;
            total.dirty_flows += dirty_flows;
            total.dirty_links += dirty_links;
        }
        total
    }

    /// Cumulative per-phase wall time: the shards' intake/allocate/export
    /// phases summed over shards, plus the backend's exchange time. When
    /// shards run concurrently the sum is CPU time, not wall time — still
    /// the right weight for "where do the cycles go" breakdowns.
    pub fn phase_timings(&self) -> PhaseTimings {
        let mut total = PhaseTimings::default();
        for i in 0..self.shard_count() {
            let t = self.backend.service(i).phase_timings();
            total.intake += t.intake;
            total.allocate += t.allocate;
            total.export += t.export;
            total.exchange += t.exchange;
        }
        total.exchange += self.backend.exchange_time();
        total
    }

    /// Per-link loads of the whole control plane's raw allocation: the
    /// element-wise sum of the shards' own loads (empty if no shard
    /// prices fabric links). Telemetry path — allocates.
    pub fn link_loads(&self) -> Vec<f64> {
        let mut total: Vec<f64> = Vec::new();
        for i in 0..self.shard_count() {
            let loads = self.backend.service(i).link_loads();
            total.resize(total.len().max(loads.len()), 0.0);
            for (acc, x) in total.iter_mut().zip(&loads) {
                *acc += x;
            }
        }
        total
    }

    /// The fabric this control plane serves.
    pub fn fabric(&self) -> &TwoTierClos {
        self.backend.service(0).fabric()
    }
}

impl<B: ShardBackend> TickDriver for ShardRouter<B> {
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        ShardRouter::on_message(self, msg)
    }

    /// One tick of every shard (plus the exchange round when due), with
    /// the per-shard update streams merged into `out` in token order.
    /// Ticks into warm buffers allocate nothing.
    ///
    /// # Errors
    /// The backend's [`ServiceError`] — [`ServiceError::ShardPanicked`]
    /// in-process, [`ServiceError::PeerFailed`] on the wire — naming the
    /// failed shard. `out` is left empty: the merged stream would be
    /// missing the failed shard's updates.
    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), ServiceError> {
        out.clear();
        self.backend.tick(&mut self.streams)?;
        merge_by_token_into(&mut self.streams, out);
        Ok(())
    }

    fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        ShardRouter::flow_rate_gbps(self, token)
    }

    fn active_flows(&self) -> usize {
        ShardRouter::active_flows(self)
    }

    fn stats(&self) -> ServiceStats {
        ShardRouter::stats(self)
    }

    fn phase_timings(&self) -> PhaseTimings {
        ShardRouter::phase_timings(self)
    }

    fn link_loads(&self) -> Vec<f64> {
        ShardRouter::link_loads(self)
    }

    fn fabric(&self) -> &TwoTierClos {
        ShardRouter::fabric(self)
    }

    fn engine_name(&self) -> &'static str {
        B::NAME
    }
}

fn update_token(msg: &Message) -> Token {
    match msg {
        Message::RateUpdate { token, .. }
        | Message::FlowletStart { token, .. }
        | Message::FlowletEnd { token } => *token,
    }
}

/// Merges token-ordered update streams into a caller-owned buffer: clears
/// `out`, drains every stream in `streams` into it (their capacity
/// survives for reuse) and sorts the result by token in place. Token sets
/// are disjoint across shards, so the sort key is unique and the order is
/// exactly the one an unsharded service emits. A single stream passes
/// through as-is; with warm buffers a merge allocates nothing.
pub fn merge_by_token_into(streams: &mut [Vec<(u16, Message)>], out: &mut Vec<(u16, Message)>) {
    out.clear();
    let total: usize = streams.iter().map(Vec::len).sum();
    out.reserve(total);
    for stream in streams.iter_mut() {
        out.append(stream);
    }
    if streams.len() > 1 {
        out.sort_unstable_by_key(|(_, msg)| update_token(msg));
    }
}
