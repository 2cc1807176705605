//! The in-process sharded control plane: N allocator services, one slice
//! of the endpoint space each, ticked concurrently in one process.
//!
//! The paper scales NED across cores of one machine (§5); the next scaling
//! step is to partition the *allocator itself* so independent fabric
//! blocks are served by independent services — the path to multi-socket
//! and multi-host allocators (cf. FairQ, arXiv:2401.04850: centralized
//! rate allocation survives at scale only when the allocator is
//! partitioned).
//!
//! [`ShardedService`] is the [`ShardRouter`] over the in-process
//! [`InProcessBackend`]. The router owns everything the in-process and
//! wire deployments share — routing by source endpoint through a
//! [`Placement`](crate::Placement) (contiguous server ranges by default,
//! one §5 block per shard when the counts match; traffic-aware grouping
//! of communicating racks via [`crate::placement`]), token→shard
//! routing for `FlowletEnd`s, routing-layer accounting, the observed
//! rack traffic matrix, the token-ordered stream merge and re-placement
//! epochs ([`ShardRouter::replace`]). This module holds only what is
//! in-process about it: plain [`AllocatorService`] shards, the
//! worker-pool fan-out with shard-panic containment, and the per-shard
//! [`ExchangeCore`]s over one flat frame buffer — a synchronous tick
//! that moves every shard's frame *is* the transport. Each shard runs a
//! full service over the whole fabric but sees only its own flows.
//!
//! The backend also keeps the exchange's cumulative per-link ship
//! counters ([`ShardedService::exchange_shipped_counts`]) — links that
//! keep re-shipping under churn are the shared hot links a better
//! placement would unshare, the trigger for a re-placement epoch.
//!
//! # The two-phase tick
//!
//! A [`ShardedService`] tick runs in two phases separated by a barrier:
//!
//! 1. **allocate ∥** — every shard's per-tick work (engine iterations,
//!    threshold-filtered update export, and — when an exchange round is
//!    due — its link-state export into reusable buffers) runs
//!    *concurrently*, one shard per slot of a persistent
//!    [`flowtune_alloc::WorkerPool`] whose OS threads park between
//!    ticks. Shards share nothing during this phase (each prices links
//!    from its own flows plus the background state installed by the
//!    *previous* exchange round), so concurrency cannot change the
//!    arithmetic: the output is bit-for-bit identical to ticking the
//!    shards one after another.
//! 2. **exchange-barrier, install** — once every shard is done (the
//!    pool's fan-out *is* the barrier), the backend runs the cross-shard
//!    consensus of the exchange (when due) on the caller thread and
//!    installs background loads/Hessians and consensus duals into the
//!    shards; the router then k-way merges the shards' token-ordered
//!    update streams into one (disjoint token sets make the merge exact).
//!
//! [`FlowtuneConfig::parallel_shards`](crate::FlowtuneConfig) (default
//! on) selects phase 1's concurrent path; turning it off ticks the shards
//! sequentially on the caller — same bytes out, useful on single-core
//! hosts and as the reference in equivalence tests. A shard whose engine
//! panics mid-tick is *contained*: siblings complete, the pool survives,
//! and [`ShardRouter::try_tick`] reports
//! [`ServiceError::ShardPanicked`] instead of aborting the process.
//!
//! # Cross-shard link-state exchange
//!
//! Partitioning alone is exact (bit-for-bit) only for workloads whose
//! links each carry a single shard's flows. When shards *do* contend for
//! a link (e.g. a many-to-one incast from several blocks), each shard in
//! isolation would price the link for its own flows alone, and the merged
//! allocation could over-subscribe it by up to a factor of the shard
//! count — per-shard F-NORM bounds each shard's own contribution but not
//! the sum.
//!
//! The fix is the paper's §5 aggregation step, one level up: a periodic
//! **link-state exchange**. Every
//! [`FlowtuneConfig::exchange_every`](crate::FlowtuneConfig) ticks, each
//! shard exports its per-link loads and Hessian diagonals (the `(G, H)`
//! pair its own price update uses) and its per-link duals, and the
//! backend runs three consensus parts:
//!
//! * **load aggregation** — each shard imports the *other* shards' load
//!   sum as exogenous background load
//!   ([`flowtune_alloc::RateAllocator::set_background_loads`]), so its
//!   NED price gradient and F-NORM ratios see the true total utilization
//!   of shared links;
//! * **Hessian aggregation** — likewise for `Σ ∂x/∂p`
//!   ([`flowtune_alloc::RateAllocator::set_background_hessians`]), so
//!   the Newton step divides the global gradient by the *global*
//!   sensitivity; a shard using only its own diagonal takes steps
//!   multiplied by the shard count, which leaves NED's stable γ range;
//! * **dual consensus** — each loaded link's price is set to the
//!   load-weighted mean of the shards' duals
//!   ([`flowtune_alloc::RateAllocator::set_link_prices`]). Background
//!   terms alone pin only a shared link's *total* (any per-shard price
//!   split whose demands sum to capacity is stationary); agreeing on the
//!   dual makes the unsharded optimum the unique fixed point — §5's
//!   single authoritative LinkBlock owner, one level up.
//!
//! ## Sparse, allocation-free wire protocol
//!
//! Exports go through the engines' buffer variants
//! ([`flowtune_alloc::RateAllocator::link_loads_into`] and friends) into
//! per-shard scratch reused every round, so a steady-state exchange
//! allocates nothing. On the wire the exchange is a **delta protocol**:
//! a shard re-ships a link's `(load, H, dual)` entry only when any of
//! the three moved by more than
//! [`FlowtuneConfig::exchange_delta_eps`](crate::FlowtuneConfig) since
//! the last time it shipped that link; every consumer prices the last
//! shipped value meanwhile. With the default `eps = 0` any change
//! ships, so the installed sums are *identical* to a dense exchange —
//! and links whose whole tuple has stopped moving (converged, or never
//! loaded and fully decayed) cost nothing. Note that an idle link still
//! re-ships while its initial dual decays toward zero under `eps = 0`
//! (and a freshly started system ships nearly everything, each entry
//! paying a 4-byte id the dense protocol didn't) — a small positive
//! `eps` cuts that tail immediately, which is the knob's point.
//! [`ServiceStats::exchange_bytes`] counts the sparse wire size: per
//! shipped entry, a 4-byte link id plus 8 bytes per vector shipped
//! (loads and duals always; Hessian diagonals only for second-order
//! engines), in both directions (deltas out; changed background sums and
//! consensus duals back in).
//!
//! Inbound, the exchange is **subscription-pruned**: a shard imports
//! (and is charged for) another shard's entry only on links it currently
//! prices itself — its own fresh export carries a positive load there
//! (the un-filtered export, so even a load too small to pass the
//! outbound delta filter still subscribes its shard). Link state on
//! a link a shard has no flows on cannot change its allocation (prices
//! enter rates only through flows' paths), so those imports are pure
//! waste; skipping them makes the inbound cost proportional to how many
//! links the partition actually *shares*. That is the lever
//! exchange-aware placement (see [`crate::placement`]) pulls: grouping
//! communicating racks into one shard unshares the hot links, and both
//! the double-shipping and the cross-subscriptions disappear. A shard
//! that gains a flow on a new link subscribes the same round it first
//! exports a load for it (exports are taken after the tick, installs
//! after the exports), so pruning adds no staleness beyond the exchange
//! cadence itself; an unsubscribed link's local dual simply keeps
//! decaying, exactly as if the link were idle.
//!
//! The cadence remains a staleness/bandwidth trade-off: between
//! exchanges a shard prices other shards' traffic at its last imported
//! value, so `exchange_every = 1` tracks cross-shard churn within a tick
//! while larger cadences cut rounds proportionally and lengthen the
//! window in which cross-shard churn is priced stale (F-NORM still
//! bounds the transient, now with a correct total on previously-seen
//! load). `exchange_every = 0` (the default) disables the exchange and
//! preserves the independent-shard behavior exactly; engines that do not
//! price fabric links (Fastpass) export nothing and the exchange
//! degrades to a no-op over them. With a single shard there is nothing
//! to exchange and the path is never taken, keeping one-shard
//! deployments bit-for-bit equal to the unsharded service.

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use flowtune_alloc::{RateAllocator, SerialAllocator, WorkerPool};
use flowtune_proto::Message;
use flowtune_topo::TwoTierClos;

use crate::exchange::ExchangeCore;
use crate::router::{ShardBackend, ShardRouter};
use crate::service::{AllocatorService, FlowMigration, ServiceError, ServiceStats};
use crate::FlowtuneConfig;

/// N [`AllocatorService`] shards in one process behind one
/// [`TickDriver`](crate::TickDriver) face: the [`ShardRouter`] over the
/// [`InProcessBackend`] (see the module docs).
pub type ShardedService<E = SerialAllocator> = ShardRouter<InProcessBackend<E>>;

/// Per-shard link-state export scratch, reused across exchange rounds so
/// the hot path stops allocating: phase 1 writes here, phase 2 reads.
#[derive(Debug, Default)]
struct ExportSlot {
    loads: Vec<f64>,
    hessians: Vec<f64>,
    prices: Vec<f64>,
}

/// One shard's phase-1 work item: its service, export scratch, and the
/// router's stream slot its updates land in.
type ShardItem<'a, E> = (
    &'a mut AllocatorService<E>,
    (&'a mut ExportSlot, &'a mut Vec<(u16, Message)>),
);

/// The in-process exchange backend behind [`ShardedService`]: plain
/// services, the worker-pool fan-out, and one [`ExchangeCore`] per shard
/// over a flat frame buffer.
#[derive(Debug)]
pub struct InProcessBackend<E: RateAllocator = SerialAllocator> {
    shards: Vec<AllocatorService<E>>,
    /// Exchange cadence in ticks, copied from the shards' shared
    /// configuration (0 = disabled).
    exchange_every: u64,
    /// The exchange's delta filter in Gbit/s (see the module docs).
    exchange_delta_eps: f64,
    /// Whether phase 1 runs on the worker pool (config `parallel_shards`
    /// and more than one shard).
    parallel: bool,
    /// Per-shard OS threads for the concurrent tick, created on the first
    /// parallel tick and parked between ticks.
    pool: Option<WorkerPool>,
    /// Ticks driven so far (the exchange fires when `ticks` is a
    /// multiple of the cadence).
    ticks: u64,
    slots: Vec<ExportSlot>,
    /// Per-shard exchange protocol cores: each owns its shard's delta
    /// filter, last-shipped replicas, and install math — the same
    /// [`ExchangeCore`] a distributed shard peer runs, so the in-process
    /// exchange exercises the real wire format every round.
    cores: Vec<ExchangeCore>,
    /// The round's serialized frames, all shards back to back in one
    /// flat reusable buffer (no `Vec<Vec<u8>>` on the hot path).
    wire_buf: Vec<u8>,
    /// Frame boundaries within `wire_buf` (`n + 1` offsets).
    frame_offs: Vec<usize>,
    /// Cumulative count of exchange entries shipped per link (summed
    /// over shards).
    shipped_totals: Vec<u64>,
    /// Exchange rounds, logical bytes and decode errors.
    exchange: ServiceStats,
    /// Cumulative wall time spent in the exchange barrier (phase 2).
    exchange_time: Duration,
}

impl ShardedService {
    /// Builds `shards` serial-engine shards over `fabric` — the
    /// compile-time shortcut mirroring [`AllocatorService::new`].
    ///
    /// # Panics
    /// Panics if `shards` is 0.
    pub fn new(fabric: &TwoTierClos, cfg: FlowtuneConfig, shards: usize) -> Self {
        Self::from_shards(
            (0..shards)
                .map(|_| AllocatorService::new(fabric, cfg))
                .collect(),
        )
    }
}

impl<E: RateAllocator> ShardedService<E> {
    /// The inter-shard link-state exchange cadence in ticks (0 =
    /// disabled).
    pub fn exchange_every(&self) -> u64 {
        self.backend().exchange_every
    }

    /// The exchange's delta filter in Gbit/s (see the module docs).
    pub fn exchange_delta_eps(&self) -> f64 {
        self.backend().exchange_delta_eps
    }

    /// Whether ticks run the shards concurrently on the worker pool.
    pub fn parallel_shards(&self) -> bool {
        self.backend().parallel
    }

    /// Cumulative count of exchange entries shipped per link (summed over
    /// shards; indexed by global link id, empty until the first exchange
    /// round). Links that keep re-shipping under steady churn are the
    /// shared hot links an exchange-aware placement would unshare — a
    /// rising tail here is the signal to compute a fresh placement from
    /// [`ShardRouter::observed_matrix`] and call [`ShardRouter::replace`].
    pub fn exchange_shipped_counts(&self) -> &[u64] {
        &self.backend().shipped_totals
    }
}

impl<E: RateAllocator> ShardBackend for InProcessBackend<E> {
    type Shard = AllocatorService<E>;
    type Engine = E;
    const NAME: &'static str = "sharded";

    fn from_shards(shards: Vec<AllocatorService<E>>) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded service needs at least one shard"
        );
        let cfg = shards[0].config();
        let shared = |c: FlowtuneConfig| {
            let exchange = (c.exchange_every, c.exchange_delta_eps, c.parallel_shards);
            let sweep = (c.incremental, c.full_sweep_every, c.dirty_eps);
            (exchange, c.placement, sweep)
        };
        assert!(
            shards.iter().all(|s| shared(s.config()) == shared(cfg)),
            "all shards must agree on the exchange, parallelism, placement and incremental configuration"
        );
        let n = shards.len();
        Self {
            exchange_every: cfg.exchange_every,
            exchange_delta_eps: cfg.exchange_delta_eps.max(0.0),
            parallel: cfg.parallel_shards && n > 1,
            pool: None,
            ticks: 0,
            slots: (0..n).map(|_| ExportSlot::default()).collect(),
            cores: (0..n)
                .map(|i| ExchangeCore::new(i as u16, n, cfg.exchange_delta_eps))
                .collect(),
            wire_buf: Vec::new(),
            frame_offs: Vec::new(),
            shipped_totals: Vec::new(),
            exchange: ServiceStats::default(),
            exchange_time: Duration::ZERO,
            shards,
        }
    }

    fn shards(&self) -> &[AllocatorService<E>] {
        &self.shards
    }

    fn service(&self, shard: usize) -> &AllocatorService<E> {
        &self.shards[shard]
    }

    fn service_mut(&mut self, shard: usize) -> &mut AllocatorService<E> {
        &mut self.shards[shard]
    }

    /// The two-phase tick (see the module docs). A shard whose engine
    /// panics is contained: the sibling shards still complete their
    /// tick, the worker pool survives, and the error names the
    /// lowest-indexed dead shard (the panic payload reaches the panic
    /// hook as usual).
    fn tick(&mut self, streams: &mut [Vec<(u16, Message)>]) -> Result<(), ServiceError> {
        self.ticks += 1;
        let n = self.shards.len();
        let exchange =
            self.exchange_every > 0 && n > 1 && self.ticks.is_multiple_of(self.exchange_every);

        // Phase 1: allocate ∥ — every shard ticks (and, on exchange
        // rounds, exports its link state) with no shared state.
        let mut items: Vec<ShardItem<'_, E>> = self
            .shards
            .iter_mut()
            .zip(self.slots.iter_mut().zip(streams.iter_mut()))
            // flowtune-lint: allow(hot-path-alloc, "O(shards) fan-out list per tick, not per flow")
            .collect();
        let task = |_: usize, item: &mut ShardItem<'_, E>| tick_shard(item, exchange);
        let panicked = if self.parallel {
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(n));
            pool.fan_out(&mut items, &task).err().map(|e| e.item())
        } else {
            // Same containment as the pool path: every shard runs, the
            // lowest-indexed panic is reported.
            (0..n)
                .filter(|&i| {
                    std::panic::catch_unwind(AssertUnwindSafe(|| task(i, &mut items[i]))).is_err()
                })
                .min()
        };
        if let Some(shard) = panicked {
            return Err(ServiceError::ShardPanicked { shard });
        }

        // Phase 2: the fan-out return is the barrier — cross-shard
        // consensus and installs run with every shard's tick complete.
        if exchange {
            let t0 = Instant::now();
            self.exchange_link_state();
            self.exchange_time += t0.elapsed();
        }
        Ok(())
    }

    fn migrate(&mut self, moves: &[(usize, usize, FlowMigration)]) -> Result<(), ServiceError> {
        for &(_, to, flow) in moves {
            self.shards[to].adopt_flow(flow)?;
        }
        // In-process the replicas are already consistent, so the
        // catch-up resync changes no state and no logical byte count —
        // but it keeps the frames identical to what a distributed
        // deployment (where an epoch may accompany a peer restart with
        // empty replicas) puts on the wire.
        for core in &mut self.cores {
            core.request_resync();
        }
        Ok(())
    }

    fn exchange_stats(&self) -> ServiceStats {
        self.exchange
    }

    fn exchange_time(&self) -> Duration {
        self.exchange_time
    }
}

impl<E: RateAllocator> InProcessBackend<E> {
    /// One round of the inter-shard link-state exchange, in three parts
    /// (the §5 aggregation's `(load, H)` pairs plus its
    /// owner-distributes-the-price step, one level up):
    ///
    /// 1. **Load aggregation** — every shard exports its own per-link
    ///    loads and imports the element-wise sum of the *other* shards'
    ///    shipped loads as exogenous background load, so each shard's
    ///    price gradient and F-NORM ratios see every link's true total.
    /// 2. **Hessian aggregation** — likewise for the per-link Hessian
    ///    diagonal, so each shard's Newton step divides the global
    ///    gradient by the *global* sensitivity. Without this a shard's
    ///    effective step is multiplied by the shard count (its own
    ///    diagonal under-counts `|H|` by the other shards' flows), which
    ///    pushes NED's effective γ out of its stable range from about
    ///    four shards — observed as severe under-allocation.
    /// 3. **Dual consensus** — every shard exports its per-link prices;
    ///    the load-weighted mean becomes each loaded link's consensus
    ///    price, installed into every shard. Background terms alone pin
    ///    only a shared link's *total* (any per-shard price split whose
    ///    demands sum to capacity would be stationary); agreeing on the
    ///    dual makes the unsharded optimum the unique fixed point. Links
    ///    no shard loads keep their per-shard prices (`NaN` in the
    ///    consensus vector) and decay as usual.
    ///
    /// All three parts run inside the per-shard [`ExchangeCore`]s, over
    /// the **serialized frames** the cores write and read — the exact
    /// bytes a distributed deployment puts on a socket. This backend
    /// only orchestrates: every core encodes its shard's frame into one
    /// flat reusable buffer, every core applies every other core's frame
    /// to its replicas, and every core installs the aggregation into its
    /// own shard. Shards whose engine exports nothing (Fastpass) ship
    /// inactive frames and their installs are documented no-ops; engines
    /// with no second-order term (gradient projection) skip the Hessian
    /// part only.
    fn exchange_link_state(&mut self) {
        let n = self.shards.len();

        // Encode: one state frame per shard, back to back.
        self.wire_buf.clear();
        self.frame_offs.clear();
        self.frame_offs.push(0);
        for (core, slot) in self.cores.iter_mut().zip(&self.slots) {
            core.begin_round(
                self.ticks,
                &slot.loads,
                &slot.hessians,
                &slot.prices,
                &mut self.wire_buf,
            );
            self.frame_offs.push(self.wire_buf.len());
        }

        // Apply: every core consumes every other shard's frame. These
        // frames were encoded in-process, so a decode failure is a bug —
        // but it is counted (never silently dropped), exactly as a peer
        // counts a corrupt frame off a socket.
        for (j, core) in self.cores.iter_mut().enumerate() {
            for i in (0..n).filter(|&i| i != j) {
                let frame = &self.wire_buf[self.frame_offs[i]..self.frame_offs[i + 1]];
                if let Err(e) = core.apply_frame(frame) {
                    self.exchange.exchange_decode_errors += 1;
                    debug_assert!(false, "in-process frame failed to apply: {e}");
                }
            }
        }

        // Install: each core recomputes the aggregation from its
        // replicas and installs into its own shard. `None` means no
        // shard exported any links — the round does not count.
        let mut bytes = 0u64;
        let mut counted = false;
        for (core, shard) in self.cores.iter_mut().zip(&mut self.shards) {
            if let Some(b) = core.install(shard) {
                bytes += b;
                counted = true;
            }
        }
        if counted {
            let ships = self.cores[0].round_ship_counts();
            self.shipped_totals.resize(ships.len(), 0);
            for (total, &c) in self.shipped_totals.iter_mut().zip(ships) {
                *total += u64::from(c);
            }
            self.exchange.exchange_rounds += 1;
            self.exchange.exchange_bytes += bytes;
        }
    }
}

/// One shard's phase-1 work: tick into the router's stream slot, and on
/// exchange rounds export its link state into the reusable buffers. Runs
/// with no shared state — concurrently on pool slots or sequentially on
/// the caller, with identical results.
fn tick_shard<E: RateAllocator>(item: &mut ShardItem<'_, E>, export: bool) {
    let (shard, (slot, stream)) = item;
    **stream = shard.tick();
    if export {
        shard.link_loads_into(&mut slot.loads);
        shard.link_hessians_into(&mut slot.hessians);
        shard.link_prices_into(&mut slot.prices);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::TrafficMatrix;
    use crate::router::merge_by_token_into;
    use flowtune_proto::{Rate16, Token};
    use flowtune_topo::ClosConfig;

    fn update_token(msg: &Message) -> Token {
        match msg {
            Message::RateUpdate { token, .. }
            | Message::FlowletStart { token, .. }
            | Message::FlowletEnd { token } => *token,
        }
    }

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::multicore(2, 2, 4)) // 16 servers, 2 blocks
    }

    fn start(token: u32, src: u16, dst: u16) -> Message {
        Message::FlowletStart {
            token: Token::new(token),
            src,
            dst,
            size_hint: 100_000,
            weight_q8: 256,
            spine: 1,
        }
    }

    fn sharded(n: usize) -> ShardedService {
        ShardedService::new(&fabric(), FlowtuneConfig::default(), n)
    }

    #[test]
    fn shard_ranges_partition_the_server_space() {
        let svc = sharded(2);
        for src in 0..8u16 {
            assert_eq!(svc.shard_of(src), 0, "src {src}");
        }
        for src in 8..16u16 {
            assert_eq!(svc.shard_of(src), 1, "src {src}");
        }
        // Out-of-range sources clamp (and are then rejected by the shard).
        assert_eq!(svc.shard_of(9999), 1);
        // Shard boundaries coincide with fabric blocks when counts match.
        let f = fabric();
        for src in 0..16u16 {
            assert_eq!(
                svc.shard_of(src),
                f.block_of_server(src as usize).index(),
                "src {src}"
            );
        }
    }

    #[test]
    fn starts_route_by_source_and_ends_follow_tokens() {
        let mut svc = sharded(2);
        svc.on_message(start(1, 0, 12)).unwrap(); // shard 0
        svc.on_message(start(2, 12, 0)).unwrap(); // shard 1
        assert_eq!(svc.shard_for_token(Token::new(1)), Some(0));
        assert_eq!(svc.shard_for_token(Token::new(2)), Some(1));
        assert_eq!(svc.shards()[0].active_flows(), 1);
        assert_eq!(svc.shards()[1].active_flows(), 1);
        assert_eq!(svc.active_flows(), 2);
        svc.on_message(Message::FlowletEnd {
            token: Token::new(2),
        })
        .unwrap();
        assert_eq!(svc.shards()[1].active_flows(), 0);
        assert_eq!(svc.shard_for_token(Token::new(2)), None);
        assert_eq!(svc.stats().ends, 1);
    }

    #[test]
    fn merged_updates_come_out_in_token_order() {
        let mut svc = sharded(2);
        // Interleave tokens across shards: odd tokens on shard 0, even on
        // shard 1.
        for (t, src) in [(1u32, 0u16), (2, 12), (3, 1), (4, 13), (5, 2)] {
            let dst = if src < 8 { src + 8 } else { src - 8 };
            svc.on_message(start(t, src, dst)).unwrap();
        }
        let updates = svc.tick();
        assert_eq!(updates.len(), 5);
        let tokens: Vec<u32> = updates.iter().map(|(_, m)| update_token(m).get()).collect();
        assert_eq!(tokens, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn cross_shard_duplicate_tokens_are_rejected() {
        let mut svc = sharded(2);
        svc.on_message(start(7, 0, 12)).unwrap();
        // Same token, different source — routes to the *other* shard, so
        // only the routing layer can catch it.
        let err = svc.on_message(start(7, 12, 0)).unwrap_err();
        assert_eq!(err, ServiceError::DuplicateToken(Token::new(7)));
        assert_eq!(svc.stats().rejected, 1);
        assert_eq!(svc.active_flows(), 1);
        assert_eq!(svc.shard_for_token(Token::new(7)), Some(0));
    }

    #[test]
    fn stray_rate_updates_and_unknown_ends_are_counted() {
        let mut svc = sharded(3);
        let upd = Message::RateUpdate {
            token: Token::new(5),
            rate: Rate16::encode(1.0),
        };
        assert_eq!(svc.on_message(upd), Err(ServiceError::UnexpectedRateUpdate));
        let end = Message::FlowletEnd {
            token: Token::new(9),
        };
        svc.on_message(end).unwrap();
        let st = svc.stats();
        assert_eq!(st.rejected, 1);
        assert_eq!(st.bytes_in, (upd.encoded_len() + end.encoded_len()) as u64);
        assert_eq!(st.ends, 0);
    }

    #[test]
    fn malformed_starts_are_rejected_by_the_owning_shard() {
        let mut svc = sharded(2);
        let err = svc.on_message(start(1, 9999, 0)).unwrap_err();
        assert!(matches!(err, ServiceError::MalformedStart(_)), "{err}");
        assert_eq!(svc.active_flows(), 0);
        assert_eq!(svc.stats().rejected, 1);
        assert_eq!(svc.shard_for_token(Token::new(1)), None);
    }

    #[test]
    fn merge_handles_empty_and_many_streams() {
        let upd = |t: u32| {
            (
                t as u16,
                Message::RateUpdate {
                    token: Token::new(t),
                    rate: Rate16::encode(1.0),
                },
            )
        };
        let mut streams = vec![
            vec![upd(3), upd(9), upd(10)],
            vec![],
            vec![upd(1), upd(4)],
            vec![upd(2), upd(5), upd(6), upd(11)],
            vec![upd(7)],
        ];
        let caps: Vec<usize> = streams.iter().map(Vec::capacity).collect();
        let mut merged = Vec::new();
        merge_by_token_into(&mut streams, &mut merged);
        let tokens: Vec<u32> = merged.iter().map(|(_, m)| update_token(m).get()).collect();
        assert_eq!(tokens, vec![1, 2, 3, 4, 5, 6, 7, 9, 10, 11]);
        // The merge drains the streams in place and keeps their capacity
        // for the next tick.
        assert!(streams.iter().all(Vec::is_empty));
        let kept: Vec<usize> = streams.iter().map(Vec::capacity).collect();
        assert_eq!(kept, caps);
        // All-empty streams leave `out` empty without reallocating it.
        let mut out = merged.clone();
        merge_by_token_into(&mut streams, &mut out);
        assert!(out.is_empty());
        // The src halves ride along with their messages.
        assert!(merged
            .iter()
            .all(|(s, m)| *s as u32 == update_token(m).get()));
        // Degenerate shapes.
        merge_by_token_into(&mut [], &mut out);
        assert!(out.is_empty());
        merge_by_token_into(&mut [vec![], vec![]], &mut out);
        assert!(out.is_empty());
        merge_by_token_into(&mut [vec![upd(5), upd(2)]], &mut out);
        let tokens: Vec<u32> = out.iter().map(|(_, m)| update_token(m).get()).collect();
        assert_eq!(tokens, vec![5, 2], "single stream passes through as-is");
    }

    #[test]
    fn exchange_fires_on_cadence_and_counts_bounded_traffic() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 4,
            ..FlowtuneConfig::default()
        };
        let mut svc = ShardedService::new(&f, cfg, 2);
        assert_eq!(svc.exchange_every(), 4);
        // One cross-block flow per shard, on disjoint paths.
        svc.on_message(start(1, 0, 12)).unwrap();
        svc.on_message(start(2, 8, 4)).unwrap();
        for _ in 0..10 {
            svc.tick();
        }
        let st = svc.stats();
        assert_eq!(st.exchange_rounds, 2, "rounds at ticks 4 and 8");
        // A round can never cost more than every link shipped by every
        // shard in both directions; the exact early-round counts are
        // pinned against the exports in the exact-accounting test, and
        // the steady-state win over the dense protocol in the delta-
        // filter test.
        let worst = st.exchange_rounds * 2 * 2 * f.topology().link_count() as u64 * (4 + 8 * 3);
        assert!(st.exchange_bytes > 0);
        assert!(
            st.exchange_bytes <= worst,
            "{} > {worst}",
            st.exchange_bytes
        );
    }

    #[test]
    fn exchange_bytes_count_exactly_the_shipped_entries() {
        // One tick, one exchange round, fresh tables: the delta filter
        // must ship exactly the entries whose (load, dual, Hessian)
        // tuple differs from the all-zero tables, and the byte counter
        // must equal id + three 8-byte values per entry, in both
        // directions. The expectation is recomputed independently from
        // the public exports of a *no-exchange twin* — same flows, same
        // single tick — because the exchanging service's own exports are
        // already mutated by the round's consensus install. In
        // particular, links with zero load but a decaying initial dual
        // ship (receivers track the dual), while links whose whole tuple
        // is zero never do.
        let f = fabric();
        let mk = |exchange_every| {
            let cfg = FlowtuneConfig {
                exchange_every,
                ..FlowtuneConfig::default()
            };
            let mut svc = ShardedService::new(&f, cfg, 2);
            svc.on_message(start(1, 0, 12)).unwrap(); // shard 0
            svc.on_message(start(2, 8, 4)).unwrap(); // shard 1
            svc.tick();
            svc
        };
        let svc = mk(1);
        let twin = mk(0);
        assert_eq!(twin.stats().exchange_bytes, 0, "twin must not exchange");
        let entry = 4 + 8 * 3; // id + load + dual + Hessian (serial NED)
        let exports: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = twin
            .shards()
            .iter()
            .map(|s| (s.link_loads(), s.link_prices(), s.link_hessians()))
            .collect();
        let dirty: Vec<Vec<bool>> = exports
            .iter()
            .map(|(loads, prices, hess)| {
                (0..loads.len())
                    .map(|l| loads[l] != 0.0 || prices[l] != 0.0 || hess[l] != 0.0)
                    .collect()
            })
            .collect();
        // Out: each shard's dirty entries. In: each shard *subscribes*
        // only to the links it prices (its own load is positive), so it
        // receives the other shard's dirty entries on exactly those.
        let out: usize = dirty.iter().map(|d| d.iter().filter(|&&x| x).count()).sum();
        let recv_into = |me: usize, other: usize| -> usize {
            dirty[other]
                .iter()
                .enumerate()
                .filter(|&(l, &d)| d && exports[me].0[l] > 0.0)
                .count()
        };
        let entries = out + recv_into(0, 1) + recv_into(1, 0);
        assert!(entries > 0, "a first round must ship something");
        // Only shipped entries are counted (the PR 4 satellite fix: the
        // old dense accounting charged six full vectors per shard
        // whatever moved), and inbound only on subscribed links (this
        // PR: a shard with no flows on a link imports nothing for it).
        // On this fresh system every link is dirty outbound (initial
        // duals are decaying everywhere), but each shard's two disjoint
        // flows subscribe it to just its own four path links; the
        // delta-filter test covers the converged end where almost
        // nothing ships at all.
        assert!(entries < 2 * dirty[0].len() * 2, "pruning must bite");
        assert_eq!(svc.stats().exchange_bytes, (entries * entry) as u64);
    }

    #[test]
    fn delta_filter_stops_shipping_once_converged() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            exchange_delta_eps: 1e-6,
            ..FlowtuneConfig::default()
        };
        let mut svc = ShardedService::new(&f, cfg, 2);
        assert_eq!(svc.exchange_delta_eps(), 1e-6);
        svc.on_message(start(1, 0, 12)).unwrap();
        svc.on_message(start(2, 8, 4)).unwrap();
        for _ in 0..300 {
            svc.tick();
        }
        let settled = svc.stats().exchange_bytes;
        for _ in 0..50 {
            svc.tick();
        }
        let st = svc.stats();
        assert_eq!(st.exchange_rounds, 350, "rounds keep firing");
        assert_eq!(
            st.exchange_bytes, settled,
            "converged state moves less than eps, so nothing ships"
        );
        // This is where the sparse protocol earns its keep: a dense
        // exchange would have shipped six full 8-byte-per-link vectors
        // per shard on every one of the 350 rounds.
        let dense = st.exchange_rounds * 6 * 8 * f.topology().link_count() as u64 * 2;
        assert!(
            st.exchange_bytes < dense / 5,
            "sparse {} vs dense {dense}",
            st.exchange_bytes
        );
    }

    #[test]
    fn a_new_subscriber_pays_catch_up_for_state_it_is_handed() {
        // Two runs, identical except for where the late flow lands: on a
        // receiver whose links shard 0 already prices (shared), or on a
        // fully disjoint path. In both, the late shard newly subscribes
        // to 4 links and ships 4 entries; in the shared case the round
        // additionally carries shard 0's fresh imports of the 2 shared
        // entries — the difference the wire must pay for sharing a
        // receiver. (Catch-up for state held from the decay era is
        // charged identically in both runs: `last` tables hold nonzero
        // final-shipped prices everywhere.)
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            exchange_delta_eps: 1e-3,
            ..FlowtuneConfig::default()
        };
        let run = |late_dst: u16| {
            let mut svc = ShardedService::new(&f, cfg, 2);
            svc.on_message(start(1, 0, 12)).unwrap(); // shard 0
            for _ in 0..300 {
                svc.tick();
            }
            let settled = svc.stats().exchange_bytes;
            svc.tick();
            assert_eq!(svc.stats().exchange_bytes, settled, "must be converged");
            svc.on_message(start(2, 8, late_dst)).unwrap(); // shard 1
            svc.tick();
            svc.stats().exchange_bytes - settled
        };
        // start() pins spine 1, so (8 → 12) shares exactly two links with
        // (0 → 12): the spine→ToR down link and the receiver's access
        // link. (8 → 4) shares none.
        let shared = run(12);
        let disjoint = run(4);
        assert!(disjoint > 0, "a new flow's links must ship");
        let entry = 4 + 8 * 3;
        assert_eq!(
            shared,
            disjoint + 2 * entry,
            "sharing a receiver must cost exactly the 2 shared links' fresh imports"
        );
    }

    #[test]
    fn single_shard_never_exchanges() {
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut svc = ShardedService::new(&fabric(), cfg, 1);
        svc.on_message(start(1, 0, 12)).unwrap();
        for _ in 0..5 {
            svc.tick();
        }
        let st = svc.stats();
        assert_eq!(st.exchange_rounds, 0);
        assert_eq!(st.exchange_bytes, 0);
    }

    #[test]
    fn sequential_fallback_matches_parallel_configuration() {
        let cfg = FlowtuneConfig {
            parallel_shards: false,
            ..FlowtuneConfig::default()
        };
        let svc = ShardedService::new(&fabric(), cfg, 2);
        assert!(!svc.parallel_shards());
        // And a single shard never takes the pool path regardless.
        let one = ShardedService::new(&fabric(), FlowtuneConfig::default(), 1);
        assert!(!one.parallel_shards());
        let par = ShardedService::new(&fabric(), FlowtuneConfig::default(), 2);
        assert!(par.parallel_shards());
    }

    #[test]
    fn link_loads_sum_over_shards() {
        let f = fabric();
        let mut svc = sharded(2);
        svc.on_message(start(1, 0, 12)).unwrap(); // shard 0
        svc.on_message(start(2, 8, 4)).unwrap(); // shard 1
        for _ in 0..200 {
            svc.tick();
        }
        let loads = svc.link_loads();
        assert_eq!(loads.len(), f.topology().link_count());
        // Each flow converged to ~line rate on its own links; the sum
        // over all links is 4 hops × ~39.6 G × 2 flows.
        let total: f64 = loads.iter().sum();
        assert!((total - 2.0 * 4.0 * 39.6).abs() < 1.0, "total {total}");
    }

    #[test]
    fn default_placement_is_contiguous_and_shapes_must_match() {
        let svc = sharded(2);
        assert_eq!(svc.placement().strategy(), "contiguous");
        assert_eq!(svc.placement().servers(), 16);
        assert_eq!(svc.placement().shard_count(), 2);
    }

    #[test]
    #[should_panic(expected = "same shard count")]
    fn replace_rejects_a_mismatched_shard_count() {
        let mut svc = sharded(2);
        let _ = svc.replace(crate::Placement::contiguous(16, 3));
    }

    #[test]
    #[should_panic(expected = "exactly the built shards")]
    fn with_placement_rejects_a_mismatched_placement() {
        let f = fabric();
        let shards: Vec<AllocatorService> = (0..2)
            .map(|_| AllocatorService::new(&f, FlowtuneConfig::default()))
            .collect();
        let _ = ShardedService::with_placement(shards, crate::Placement::contiguous(16, 3));
    }

    #[test]
    fn replace_migrates_moved_tokens_and_reroutes() {
        // Swap the two shards' endpoint ranges: every active flow moves.
        let mut svc = sharded(2);
        svc.on_message(start(1, 0, 12)).unwrap(); // shard 0
        svc.on_message(start(2, 8, 4)).unwrap(); // shard 1
        for _ in 0..50 {
            svc.tick();
        }
        let starts_before = svc.stats().starts;
        // A signal-free traffic placement falls back to contiguous — a
        // no-op replace that migrates nothing.
        let fallback = crate::Placement::traffic(16, 8, 2, &TrafficMatrix::new(2), false);
        assert_eq!(svc.replace(fallback), Ok(0));
        // Now actually move everything: over two 8-server units, a matrix
        // that makes unit 1 the heavy anchor lands it in shard 0 —
        // reversing the contiguous ranges.
        let mut m = TrafficMatrix::new(2);
        m.add(1, 1, 100.0);
        m.add(0, 0, 1.0);
        let reversed = crate::Placement::traffic(16, 8, 2, &m, false);
        assert_eq!(reversed.shard_of(8), 0, "heavy rack 1 anchors shard 0");
        assert_eq!(reversed.shard_of(0), 1);
        let moved = svc.replace(reversed).unwrap();
        assert_eq!(moved, 2, "both flows changed shards");
        assert_eq!(svc.shard_for_token(Token::new(1)), Some(1));
        assert_eq!(svc.shard_for_token(Token::new(2)), Some(0));
        assert_eq!(svc.active_flows(), 2);
        // Migration is not churn: intake counters are unmoved.
        assert_eq!(svc.stats().starts, starts_before);
        assert_eq!(svc.stats().ends, 0);
        // The service keeps operating: both flows re-converge.
        for _ in 0..200 {
            svc.tick();
        }
        for t in [1u32, 2] {
            let rate = svc.flow_rate_gbps(Token::new(t)).unwrap();
            assert!((rate - 39.6).abs() < 0.2, "token {t}: {rate}");
        }
        // New starts route by the new placement.
        svc.on_message(start(3, 0, 12)).unwrap();
        assert_eq!(svc.shard_for_token(Token::new(3)), Some(1));
    }

    #[test]
    fn observed_matrix_accumulates_accepted_starts_only() {
        let mut svc = sharded(2);
        svc.on_message(start(1, 0, 12)).unwrap(); // rack 0 → rack 3
        svc.on_message(start(2, 1, 13)).unwrap(); // rack 0 → rack 3
        svc.on_message(start(1, 5, 9)).unwrap_err(); // duplicate: no signal
        svc.on_message(Message::FlowletEnd {
            token: Token::new(99),
        })
        .unwrap(); // unknown end: no signal
        let m = svc.observed_matrix();
        assert_eq!(m.racks(), 4, "4 racks of 4 servers");
        assert_eq!(m.get(0, 3), 2.0 * 100_000.0, "both accepted starts counted");
        assert_eq!(m.total(), 2.0 * 100_000.0);
    }

    #[test]
    fn shipped_counts_track_exchange_activity() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut svc = ShardedService::new(&f, cfg, 2);
        assert!(svc.exchange_shipped_counts().is_empty(), "no round yet");
        svc.on_message(start(1, 0, 12)).unwrap();
        svc.on_message(start(2, 8, 4)).unwrap();
        for _ in 0..5 {
            svc.tick();
        }
        let counts = svc.exchange_shipped_counts();
        assert_eq!(counts.len(), f.topology().link_count());
        let total: u64 = counts.iter().sum();
        assert!(total > 0, "five exchange rounds shipped something");
    }

    #[test]
    fn single_flow_converges_like_an_unsharded_service() {
        let mut svc = sharded(2);
        svc.on_message(start(1, 0, 12)).unwrap();
        for _ in 0..200 {
            svc.tick();
        }
        let rate = svc.flow_rate_gbps(Token::new(1)).unwrap();
        assert!((rate - 39.6).abs() < 0.2, "rate {rate}"); // 40 G × 0.99
    }
}
