//! The wire backend of the sharded control plane: [`PeerCluster`] is
//! the core crate's [`ShardRouter`] over a set of [`ShardPeer`]s driven
//! in lockstep from one thread.
//!
//! The router — routing by source endpoint through a `Placement`,
//! token→shard routing, routing-layer accounting, the observed traffic
//! matrix, the stream merge, re-placement epochs and stats aggregation —
//! is the very code the in-process `ShardedService` runs. This backend
//! only supplies what is wire-specific: each shard is a peer with its
//! own [`Transport`], a tick is split-phase across the peers — every
//! peer runs its allocator tick and broadcast before any peer's barrier
//! and install — so peers never deadlock waiting for a frame a later
//! peer has not produced yet, and the lockstep schedule reproduces the
//! in-process barrier. Migrations of a re-placement epoch travel in
//! epoch frames. Over the in-memory transport the construction is
//! **bit-for-bit identical** to `ShardedService`, re-placement epochs
//! included: same update streams, same rates, same stats (pinned by the
//! repository's sharded equivalence tests). Over sockets it is the
//! single-process harness the benches use to price the wire.
//!
//! A failed peer never panics through [`TickDriver::try_tick`]: the
//! tick returns [`ServiceError::PeerFailed`] naming the shard.
//!
//! [`TickDriver::try_tick`]: flowtune::TickDriver::try_tick

use std::time::Duration;

use flowtune::{
    AllocatorService, FlowMigration, ServiceError, ServiceStats, ShardBackend, ShardRouter,
};
use flowtune_alloc::{RateAllocator, SerialAllocator};
use flowtune_proto::Message;

use crate::peer::{PeerError, PeerLag, ShardPeer, WireStats};
use crate::transport::Transport;

/// N [`ShardPeer`]s behind one `TickDriver` face: the [`ShardRouter`]
/// over the [`WireBackend`] (see the module docs).
pub type PeerCluster<T, E = SerialAllocator> = ShardRouter<WireBackend<T, E>>;

/// The wire exchange backend behind [`PeerCluster`]: one [`ShardPeer`]
/// per shard, in shard order.
#[derive(Debug)]
pub struct WireBackend<T: Transport, E: RateAllocator = SerialAllocator> {
    peers: Vec<ShardPeer<T, E>>,
    /// Monotonic placement-epoch counter for the epoch frames.
    epoch: u64,
}

/// The typed tick error for a failure at peer `shard`.
fn failed(shard: usize) -> impl Fn(PeerError) -> ServiceError {
    move |e| ServiceError::PeerFailed {
        shard,
        kind: e.kind(),
    }
}

impl<T: Transport, E: RateAllocator> WireBackend<T, E> {
    /// The peers' on-wire transport counters: totals summed, plus the
    /// cluster-level staleness view — one [`PeerLag`] per shard, with
    /// `rounds_behind`/`last_fresh_round` the worst any other peer
    /// observed of it and the receive counters summed across observers.
    pub fn wire_stats(&self) -> WireStats {
        let mut total = WireStats::default();
        let mut lags: Vec<PeerLag> = (0..self.peers.len() as u16)
            .map(|peer| PeerLag {
                peer,
                ..PeerLag::default()
            })
            .collect();
        for peer in &self.peers {
            let w = peer.wire_stats();
            total.tx_bytes += w.tx_bytes;
            total.rx_bytes += w.rx_bytes;
            total.tx_frames += w.tx_frames;
            total.rx_frames += w.rx_frames;
            total.late_rounds += w.late_rounds;
            for l in &w.peers {
                let Some(agg) = lags.get_mut(usize::from(l.peer)) else {
                    continue;
                };
                agg.rounds_behind = agg.rounds_behind.max(l.rounds_behind);
                agg.peak_rounds_behind = agg.peak_rounds_behind.max(l.peak_rounds_behind);
                agg.last_fresh_round = agg.last_fresh_round.max(l.last_fresh_round);
                agg.rx_bytes += l.rx_bytes;
                agg.rx_frames += l.rx_frames;
            }
        }
        total.peers = lags;
        total
    }
}

impl<T: Transport, E: RateAllocator> ShardBackend for WireBackend<T, E> {
    type Shard = ShardPeer<T, E>;
    type Engine = E;
    const NAME: &'static str = "peer-cluster";

    /// # Panics
    /// Panics if `peers` is empty or a peer's shard id or transport's
    /// peer count disagrees with its position in the cluster.
    fn from_shards(peers: Vec<ShardPeer<T, E>>) -> Self {
        assert!(!peers.is_empty(), "a cluster needs at least one peer");
        for (i, peer) in peers.iter().enumerate() {
            let shard = usize::from(peer.shard());
            assert_eq!(shard, i, "peer {i} claims shard {shard}");
            assert_eq!(
                peer.peers(),
                peers.len(),
                "peer {i}'s transport spans {} peers, cluster has {}",
                peer.peers(),
                peers.len()
            );
        }
        WireBackend { peers, epoch: 0 }
    }

    fn shards(&self) -> &[ShardPeer<T, E>] {
        &self.peers
    }

    fn service(&self, shard: usize) -> &AllocatorService<E> {
        self.peers[shard].service()
    }

    fn service_mut(&mut self, shard: usize) -> &mut AllocatorService<E> {
        self.peers[shard].service_mut()
    }

    /// Begin-all, then finish-all: every peer ticks and broadcasts, then
    /// every peer runs its exchange barrier and installs.
    fn tick(&mut self, streams: &mut [Vec<(u16, Message)>]) -> Result<(), ServiceError> {
        for (i, (peer, stream)) in self.peers.iter_mut().zip(streams).enumerate() {
            *stream = peer.tick_export().map_err(failed(i))?;
        }
        for (i, peer) in self.peers.iter_mut().enumerate() {
            peer.exchange_finish().map_err(failed(i))?;
        }
        Ok(())
    }

    /// Each peer broadcasts an epoch frame carrying its leaving flows;
    /// then every peer gathers the frames and adopts the flows addressed
    /// to it. An epoch is a barrier, so a missing peer frame is an
    /// error, not a late round.
    fn migrate(&mut self, moves: &[(usize, usize, FlowMigration)]) -> Result<(), ServiceError> {
        self.epoch += 1;
        let mut batch = Vec::new();
        for (i, peer) in self.peers.iter_mut().enumerate() {
            batch.clear();
            batch.extend(
                moves
                    .iter()
                    .filter(|m| m.0 == i)
                    .map(|&(_, to, flow)| (flow, to as u16)),
            );
            peer.broadcast_epoch(self.epoch, &batch)
                .map_err(failed(i))?;
        }
        let mut adopt = Vec::new();
        for (i, peer) in self.peers.iter_mut().enumerate() {
            adopt.clear();
            peer.gather_epoch(&mut adopt).map_err(failed(i))?;
            adopt.sort_unstable_by_key(|m| m.token);
            for &m in &adopt {
                peer.service_mut().adopt_flow(m)?;
            }
        }
        Ok(())
    }

    /// Exchange rounds are a cluster-wide event every peer counts once,
    /// so they aggregate as the max; logical bytes — each peer's own out
    /// + in share — and decode errors sum.
    fn exchange_stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for peer in &self.peers {
            let s = peer.exchange_stats();
            total.exchange_rounds = total.exchange_rounds.max(s.exchange_rounds);
            total.exchange_bytes += s.exchange_bytes;
            total.exchange_decode_errors += s.exchange_decode_errors;
        }
        total
    }

    fn exchange_time(&self) -> Duration {
        self.peers.iter().map(ShardPeer::exchange_time).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use flowtune::{ExchangeConfig, FlowtuneConfig, Placement, ShardedService};
    use flowtune_proto::Token;
    use flowtune_topo::{ClosConfig, TwoTierClos};

    use super::*;
    use crate::transport::{mem_mesh, MemReceiver, MemSender, MemTransport, Sender};

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
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

    fn cluster(
        fabric: &TwoTierClos,
        cfg: FlowtuneConfig,
        n: usize,
    ) -> PeerCluster<crate::transport::MemTransport> {
        let exchange = ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
        let peers = mem_mesh(n)
            .into_iter()
            .map(|t| {
                ShardPeer::new(AllocatorService::new(fabric, cfg), t, exchange)
                    .expect("mem transport splits infallibly")
            })
            .collect();
        PeerCluster::from_peers(peers)
    }

    #[test]
    fn mem_cluster_matches_in_process_sharded_service_bit_for_bit() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut reference = ShardedService::new(&f, cfg, 2);
        let mut distributed = cluster(&f, cfg, 2);
        // A cross-shard incast onto server 15 plus a disjoint flow.
        for (t, src, dst) in [(1u32, 0u16, 15u16), (2, 8, 15), (3, 1, 15), (4, 2, 6)] {
            reference.on_message(start(t, src, dst)).unwrap();
            distributed.on_message(start(t, src, dst)).unwrap();
        }
        for round in 0..60 {
            let a = reference.tick();
            let b = distributed.tick();
            assert_eq!(a, b, "update streams diverged at tick {round}");
        }
        for t in [1u32, 2, 3, 4] {
            assert_eq!(
                reference.flow_rate_gbps(Token::new(t)).map(f64::to_bits),
                distributed.flow_rate_gbps(Token::new(t)).map(f64::to_bits),
                "token {t}"
            );
        }
        assert_eq!(reference.stats(), distributed.stats());
        let wire = distributed.backend().wire_stats();
        assert!(wire.tx_bytes > 0, "frames crossed the transport");
        assert_eq!(wire.tx_frames, wire.rx_frames, "lockstep loses nothing");
        assert_eq!(wire.late_rounds, 0);
    }

    #[test]
    fn routing_layer_counts_duplicates_and_strays_like_in_process() {
        let f = fabric();
        let mut c = cluster(&f, FlowtuneConfig::default(), 2);
        c.on_message(start(7, 0, 12)).unwrap();
        let err = c.on_message(start(7, 12, 0)).unwrap_err();
        assert_eq!(err, ServiceError::DuplicateToken(Token::new(7)));
        assert_eq!(
            c.on_message(Message::RateUpdate {
                token: Token::new(5),
                rate: flowtune_proto::Rate16::encode(1.0),
            }),
            Err(ServiceError::UnexpectedRateUpdate)
        );
        c.on_message(Message::FlowletEnd {
            token: Token::new(99),
        })
        .unwrap();
        let st = c.stats();
        assert_eq!(st.rejected, 2);
        assert_eq!(st.starts, 1);
        assert_eq!(st.ends, 0);
        assert_eq!(c.active_flows(), 1);
    }

    #[test]
    fn replace_migrates_flows_over_epoch_frames() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut c = cluster(&f, cfg, 2);
        c.on_message(start(1, 0, 12)).unwrap(); // shard 0
        c.on_message(start(2, 8, 4)).unwrap(); // shard 1
        for _ in 0..50 {
            c.tick();
        }
        // Swap the shards' ranges: both flows migrate, over the wire.
        let mut m = flowtune::placement::TrafficMatrix::new(2);
        m.add(1, 1, 100.0);
        m.add(0, 0, 1.0);
        let reversed = Placement::traffic(16, 8, 2, &m, false);
        let moved = c.replace(reversed).unwrap();
        assert_eq!(moved, 2);
        assert_eq!(c.shard_for_token(Token::new(1)), Some(1));
        assert_eq!(c.shard_for_token(Token::new(2)), Some(0));
        assert_eq!(c.active_flows(), 2);
        // The cluster keeps operating and both flows re-converge.
        for _ in 0..200 {
            c.tick();
        }
        for t in [1u32, 2] {
            let rate = c.flow_rate_gbps(Token::new(t)).unwrap();
            assert!((rate - 39.6).abs() < 0.2, "token {t}: {rate}");
        }
        // New starts route by the new placement.
        c.on_message(start(3, 0, 12)).unwrap();
        assert_eq!(c.shard_for_token(Token::new(3)), Some(1));
    }

    #[test]
    fn single_peer_cluster_never_exchanges() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut c = cluster(&f, cfg, 1);
        c.on_message(start(1, 0, 12)).unwrap();
        for _ in 0..5 {
            c.tick();
        }
        let st = c.stats();
        assert_eq!(st.exchange_rounds, 0);
        assert_eq!(st.exchange_bytes, 0);
        assert_eq!(c.backend().wire_stats().tx_frames, 0);
    }

    /// A mem transport whose sender fails once it has shipped `budget`
    /// frames — a peer whose link dies mid-run.
    #[derive(Debug)]
    struct Flaky {
        inner: MemTransport,
        budget: u64,
    }

    #[derive(Debug)]
    struct FlakySender {
        inner: MemSender,
        budget: u64,
    }

    impl Transport for Flaky {
        type Tx = FlakySender;
        type Rx = MemReceiver;

        fn shard(&self) -> u16 {
            self.inner.shard()
        }

        fn peers(&self) -> usize {
            self.inner.peers()
        }

        fn split(self) -> std::io::Result<(FlakySender, Vec<MemReceiver>)> {
            let (inner, rxs) = self.inner.split()?;
            let budget = self.budget;
            Ok((FlakySender { inner, budget }, rxs))
        }
    }

    impl Sender for FlakySender {
        fn shard(&self) -> u16 {
            self.inner.shard()
        }

        fn peers(&self) -> usize {
            self.inner.peers()
        }

        fn send(&mut self, to: u16, frame: &[u8]) -> std::io::Result<u64> {
            if self.budget == 0 {
                let kind = std::io::ErrorKind::BrokenPipe;
                return Err(std::io::Error::new(kind, "injected link failure"));
            }
            self.budget -= 1;
            self.inner.send(to, frame)
        }
    }

    #[test]
    fn a_failed_peer_is_a_typed_tick_error_not_a_panic() {
        // Shard 1's sender dies after three frames — one per exchange
        // round at this cadence — so the fourth tick's broadcast fails.
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let exchange = ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
        let peers = mem_mesh(2)
            .into_iter()
            .zip([u64::MAX, 3])
            .map(|(inner, budget)| {
                let t = Flaky { inner, budget };
                ShardPeer::new(AllocatorService::new(&f, cfg), t, exchange)
                    .expect("mem transport splits infallibly")
            })
            .collect();
        let mut c: PeerCluster<Flaky> = PeerCluster::from_peers(peers);
        c.on_message(start(1, 0, 12)).unwrap();
        c.on_message(start(2, 8, 4)).unwrap();
        for _ in 0..3 {
            assert!(flowtune::TickDriver::try_tick(&mut c).is_ok());
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            flowtune::TickDriver::try_tick(&mut c)
        }));
        let err = outcome
            .expect("a failed peer must not panic through try_tick")
            .expect_err("the dead link must fail the tick");
        assert_eq!(
            err,
            ServiceError::PeerFailed {
                shard: 1,
                kind: std::io::ErrorKind::BrokenPipe,
            }
        );
        assert!(err.to_string().contains("shard 1"), "{err}");
    }
}
