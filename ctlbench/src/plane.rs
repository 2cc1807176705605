//! The three control planes the workloads drive, behind one face the
//! generator calls: the unsharded service and the in-process sharded
//! service through `TickDriver::on_message` and `TickLoop::poll`, and a
//! cluster of `ShardPeer`s over Unix-domain sockets through
//! `ShardPeer::begin_round`, `ExchangeRound::finish` and
//! `merge_by_token_into`, driven in lockstep from this one thread.

use std::collections::HashMap;
use std::time::Duration;

use flowtune::{
    merge_by_token_into, BoxTickDriver, ExchangeConfig, FlowtuneConfig, PhaseTimings, Placement,
    ServiceError, ServiceStats, ShardedService, TickDriver, TickLoop,
};
use flowtune_net::{uds_mesh, ShardPeer, UdsTransport};
use flowtune_proto::{Message, Token};
use flowtune_topo::TwoTierClos;

use crate::trace::{Name, Tracer};

/// How a workload's control plane is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    /// One `AllocatorService` (serial NED) behind a `TickLoop`.
    Single,
    /// A `ShardedService` of this many serial shards behind a `TickLoop`.
    Sharded(usize),
    /// This many `ShardPeer`s over a Unix-domain socket mesh.
    Uds(usize),
}

impl PlaneKind {
    /// Shard count (1 for the unsharded plane).
    pub fn shards(self) -> usize {
        match self {
            PlaneKind::Single => 1,
            PlaneKind::Sharded(n) | PlaneKind::Uds(n) => n,
        }
    }

    /// Where exchange bytes travel, for the result stamp.
    pub fn exchange_path(self) -> &'static str {
        match self {
            PlaneKind::Single => "none (unsharded, no exchange)",
            PlaneKind::Sharded(_) => "in-process buffers (no kernel crossing)",
            PlaneKind::Uds(_) => "a host-local kernel socket (Unix-domain), not a real link",
        }
    }
}

/// Per-shard cumulative phase times plus the routing layer's exchange
/// time (in-process sharded plane only).
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// One entry per shard (one entry for the unsharded plane).
    pub shards: Vec<PhaseTimings>,
    /// The in-process routing layer's exchange barrier time.
    pub exchange: Duration,
}

/// The peer cluster, with the routing the generator needs to address
/// flows to their peer.
#[derive(Debug)]
pub struct Wire {
    peers: Vec<ShardPeer<UdsTransport>>,
    placement: Placement,
    route: HashMap<Token, usize>,
    streams: Vec<Vec<(u16, Message)>>,
    /// Messages the routing in this module rejected.
    rejected: u64,
}

/// A built control plane.
#[derive(Debug)]
pub enum Plane {
    /// The unsharded service.
    Single(TickLoop<BoxTickDriver>),
    /// The in-process sharded service.
    Sharded(Box<TickLoop<ShardedService>>),
    /// The peer cluster over Unix-domain sockets.
    Wire(Wire),
}

/// A fresh directory for socket files, relative to the working
/// directory so socket paths stay short whatever the checkout's path.
fn socket_dir() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::path::PathBuf::from(".bench_out").join(format!(
        "uds-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

impl Plane {
    /// Builds the plane over `fabric` with `cfg`.
    pub fn build(
        kind: PlaneKind,
        fabric: &TwoTierClos,
        cfg: FlowtuneConfig,
    ) -> Result<Self, String> {
        Ok(match kind {
            PlaneKind::Single => {
                let driver = flowtune::AllocatorService::builder()
                    .fabric(fabric)
                    .config(cfg)
                    .build_driver()
                    .map_err(|e| format!("building the service: {e}"))?;
                Plane::Single(TickLoop::new(driver, cfg.tick_interval_ps))
            }
            PlaneKind::Sharded(n) => Plane::Sharded(Box::new(TickLoop::new(
                ShardedService::new(fabric, cfg, n),
                cfg.tick_interval_ps,
            ))),
            PlaneKind::Uds(n) => {
                let dir = socket_dir();
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("creating socket dir {}: {e}", dir.display()))?;
                let mesh = uds_mesh(&dir, n as u16);
                // The streams are connected (or failed); the socket files
                // have done their job either way.
                let _ = std::fs::remove_dir_all(&dir);
                let mesh = mesh.map_err(|e| format!("uds mesh bootstrap: {e}"))?;
                let exchange =
                    ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
                let peers = mesh
                    .into_iter()
                    .map(|t| {
                        ShardPeer::new(flowtune::AllocatorService::new(fabric, cfg), t, exchange)
                            .map_err(|e| format!("peer setup: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let servers = fabric.config().server_count();
                Plane::Wire(Wire {
                    placement: Placement::contiguous(servers, n),
                    streams: vec![Vec::new(); n],
                    peers,
                    route: HashMap::new(),
                    rejected: 0,
                })
            }
        })
    }

    /// Delivers one endpoint notification.
    pub fn deliver(&mut self, msg: Message) -> Result<(), ServiceError> {
        match self {
            Plane::Single(l) => l.driver_mut().on_message(msg),
            Plane::Sharded(l) => l.driver_mut().on_message(msg),
            Plane::Wire(w) => w.deliver(msg),
        }
    }

    /// Runs the tick due at `now_ps`, leaving its update batch in `out`.
    /// `parent` is the enclosing tick span.
    pub fn tick(
        &mut self,
        now_ps: u64,
        tick: u64,
        tr: &mut Tracer,
        parent: u32,
        out: &mut Vec<(u16, Message)>,
    ) -> Result<(), String> {
        let polled = match self {
            Plane::Single(l) => {
                let s = tr.open(Name::Poll, 0, parent, tick);
                let p = l.poll(now_ps);
                tr.close(s);
                p
            }
            Plane::Sharded(l) => {
                let s = tr.open(Name::Poll, 0, parent, tick);
                let p = l.poll(now_ps);
                tr.close(s);
                p
            }
            Plane::Wire(w) => return w.tick(tick, tr, parent, out),
        };
        *out = polled.ok_or_else(|| format!("no tick was due at {now_ps} ps"))?;
        Ok(())
    }

    /// The plane's operating counters, summed over shards.
    pub fn stats(&self) -> ServiceStats {
        match self {
            Plane::Single(l) => l.driver().stats(),
            Plane::Sharded(l) => l.driver().stats(),
            Plane::Wire(w) => {
                let mut t = ServiceStats {
                    rejected: w.rejected,
                    ..ServiceStats::default()
                };
                for p in &w.peers {
                    let s = p.stats();
                    t.starts += s.starts;
                    t.ends += s.ends;
                    t.updates_sent += s.updates_sent;
                    t.updates_suppressed += s.updates_suppressed;
                    t.bytes_in += s.bytes_in;
                    t.bytes_out += s.bytes_out;
                    t.iterations += s.iterations;
                    t.rejected += s.rejected;
                    t.exchange_rounds = t.exchange_rounds.max(s.exchange_rounds);
                    t.exchange_bytes += s.exchange_bytes;
                    t.exchange_decode_errors += s.exchange_decode_errors;
                    t.dirty_flows += s.dirty_flows;
                    t.dirty_links += s.dirty_links;
                }
                t
            }
        }
    }

    /// Cumulative phase times per shard (and the routing layer's exchange).
    pub fn timings(&self) -> Timings {
        match self {
            Plane::Single(l) => Timings {
                shards: vec![l.driver().phase_timings()],
                exchange: Duration::ZERO,
            },
            Plane::Sharded(l) => {
                let svc = l.driver();
                let shards: Vec<PhaseTimings> =
                    svc.shards().iter().map(|s| s.phase_timings()).collect();
                let shard_exchange: Duration = shards.iter().map(|t| t.exchange).sum();
                Timings {
                    exchange: svc.phase_timings().exchange - shard_exchange,
                    shards,
                }
            }
            Plane::Wire(w) => Timings {
                shards: w
                    .peers
                    .iter()
                    .map(|p| p.service().phase_timings())
                    .collect(),
                exchange: Duration::ZERO,
            },
        }
    }

    /// Wire counters summed over peers: (tx bytes, rx frames, peak rounds
    /// behind). Zeros off the wire plane.
    pub fn wire(&self) -> (u64, u64, u64) {
        let Plane::Wire(w) = self else {
            return (0, 0, 0);
        };
        let mut t = (0, 0, 0);
        for p in &w.peers {
            let ws = p.wire_stats();
            t.0 += ws.tx_bytes;
            t.1 += ws.rx_frames;
            t.2 = t.2.max(ws.max_peak_rounds_behind());
        }
        t
    }

    /// The allocator's current normalized rate of a flow, Gbit/s.
    pub fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        match self {
            Plane::Single(l) => l.driver().flow_rate_gbps(token),
            Plane::Sharded(l) => l.driver().flow_rate_gbps(token),
            Plane::Wire(w) => {
                let &shard = w.route.get(&token)?;
                w.peers[shard].service().flow_rate_gbps(token)
            }
        }
    }

    /// Per-link raw loads, Gbit/s, summed over shards in shard order.
    pub fn link_loads(&self) -> Vec<f64> {
        match self {
            Plane::Single(l) => l.driver().link_loads(),
            Plane::Sharded(l) => l.driver().link_loads(),
            Plane::Wire(w) => {
                let mut total: Vec<f64> = Vec::new();
                for p in &w.peers {
                    let loads = p.service().link_loads();
                    total.resize(loads.len().max(total.len()), 0.0);
                    for (acc, x) in total.iter_mut().zip(&loads) {
                        *acc += x;
                    }
                }
                total
            }
        }
    }

    /// Shard of a live flow on the in-process sharded plane, for
    /// splitting a merged stream back into per-shard streams.
    pub fn shard_of_token(&self, token: Token) -> Option<usize> {
        match self {
            Plane::Sharded(l) => l.driver().shard_for_token(token),
            _ => None,
        }
    }
}

impl Wire {
    /// The routing a `PeerCluster` does: starts go to the source's shard,
    /// ends follow the token, rate updates are refused.
    fn deliver(&mut self, msg: Message) -> Result<(), ServiceError> {
        match msg {
            Message::FlowletStart { token, src, .. } => {
                if self.route.contains_key(&token) {
                    self.rejected += 1;
                    return Err(ServiceError::DuplicateToken(token));
                }
                let shard = self.placement.shard_of(src);
                self.peers[shard].on_message(msg)?;
                self.route.insert(token, shard);
                Ok(())
            }
            Message::FlowletEnd { token } => match self.route.remove(&token) {
                Some(shard) => self.peers[shard].on_message(msg),
                None => Ok(()),
            },
            Message::RateUpdate { .. } => {
                self.rejected += 1;
                Err(ServiceError::UnexpectedRateUpdate)
            }
        }
    }

    /// One lockstep cluster tick: every peer begins its round (tick and
    /// broadcast) before any finishes (barrier and install), then the
    /// per-peer streams are merged in token order.
    fn tick(
        &mut self,
        tick: u64,
        tr: &mut Tracer,
        parent: u32,
        out: &mut Vec<(u16, Message)>,
    ) -> Result<(), String> {
        // Each `ExchangeRound` borrows its peer until finished, so the
        // open rounds live in a per-tick list: one small allocation on
        // the clock, the price of driving the public round API.
        let mut rounds = Vec::with_capacity(self.peers.len());
        for (i, (peer, stream)) in self.peers.iter_mut().zip(&mut self.streams).enumerate() {
            let s = tr.open(Name::Begin, i as u8, parent, tick);
            let mut round = peer
                .begin_round()
                .map_err(|e| format!("peer {i} begin_round: {e}"))?;
            round.take_updates_into(stream);
            tr.close(s);
            rounds.push(round);
        }
        for (i, round) in rounds.into_iter().enumerate() {
            let s = tr.open(Name::Finish, i as u8, parent, tick);
            round
                .finish()
                .map_err(|e| format!("peer {i} finish: {e}"))?;
            tr.close(s);
        }
        let s = tr.open(Name::Merge, 0, parent, tick);
        merge_by_token_into(&mut self.streams, out);
        tr.close(s);
        Ok(())
    }
}
