//! The per-shard core of the link-state exchange, factored so the
//! in-process [`crate::ShardedService`] and a distributed shard peer run
//! the *same* arithmetic over the *same* serialized frames.
//!
//! One exchange round is three calls on every shard's core:
//!
//! 1. [`ExchangeCore::begin_round`] — delta-filter the shard's fresh
//!    link-state export against its last-shipped table and append one
//!    [`FrameKind::State`](flowtune_proto::exchange::FrameKind) frame
//!    (subscription deltas, moved entries, catch-up entries after a
//!    resync) to a caller-owned flat buffer. No allocation once the
//!    buffer and tables are warm.
//! 2. [`ExchangeCore::apply_frame`] — decode every *other* shard's frame
//!    and update the local replica of that shard's last-shipped table.
//! 3. [`ExchangeCore::install`] — recompute the aggregation the paper's
//!    §5 step runs at the hub (background load/Hessian sums, the
//!    load-weighted dual consensus) from the replicas and install it
//!    into the shard's [`AllocatorService`].
//!
//! The protocol on the wire is a **mesh broadcast**: every shard ships
//! its moved entries to every peer and keeps full replicas of the
//! others' shipped tables, so each peer recomputes the hub aggregation
//! locally and needs nothing from the others beyond their frames —
//! which is what makes the distributed exchange bit-for-bit identical
//! to the in-process one. The *logical* byte accounting retained in
//! [`ServiceStats::exchange_bytes`](crate::ServiceStats) still models
//! the subscription-pruned hub protocol (aggregated entries down, 4+8·v
//! bytes per entry) exactly as the in-process service always counted
//! it; the broadcast's real cost is reported separately by the
//! transports as on-wire bytes.

use flowtune_alloc::RateAllocator;
use flowtune_proto::exchange::{
    encode_header, encode_record, FrameError, FrameHeader, FrameKind, Record, RecordIter,
};

use crate::service::AllocatorService;

/// Logical bytes of one shipped exchange entry: a 4-byte link id plus 8
/// bytes per 64-bit vector element riding along (loads and duals always;
/// Hessian diagonals only for second-order engines).
pub(crate) fn entry_bytes(vectors: u64) -> u64 {
    4 + 8 * vectors
}

/// Why a received frame could not be applied: either it failed to
/// decode, or it decoded to values that cannot be valid in this cluster
/// (a shard or link index out of range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// The frame failed to decode.
    Frame(FrameError),
    /// The sender's shard id is not in this cluster (or is the
    /// receiver's own).
    BadShard {
        /// The shard id found in the header.
        shard: u16,
    },
    /// A record names a link outside the frame's own `n_links`.
    BadLink {
        /// The link index found.
        link: u32,
    },
}

impl From<FrameError> for ApplyError {
    fn from(e: FrameError) -> Self {
        ApplyError::Frame(e)
    }
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ApplyError::Frame(e) => write!(f, "{e}"),
            ApplyError::BadShard { shard } => write!(f, "frame from out-of-range shard {shard}"),
            ApplyError::BadLink { link } => write!(f, "record names out-of-range link {link}"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// One shard's replica of another shard's last-shipped link state (its
/// own at its own index). Empty vectors mean that shard has never
/// exported (engines that do not price fabric links).
#[derive(Debug, Default)]
struct Replica {
    loads: Vec<f64>,
    hessians: Vec<f64>,
    prices: Vec<f64>,
    /// That shard's announced subscriptions (informational; the install
    /// math uses fresh exports, not announcements).
    subs: Vec<bool>,
}

fn nonzero_at(replica: &Replica, l: usize) -> bool {
    replica.loads.get(l).is_some_and(|&v| v != 0.0)
        || replica.prices.get(l).is_some_and(|&v| v != 0.0)
        || replica.hessians.get(l).is_some_and(|&v| v != 0.0)
}

// Write one decoded state word into a replica column, or report the
// record's link as bad when the column was never grown that far (an
// inactive frame smuggling records must not become an OOB write).
fn write_state(column: &mut [f64], l: usize, value: f64, link: u32) -> Result<(), ApplyError> {
    match column.get_mut(l) {
        Some(slot) => {
            *slot = value;
            Ok(())
        }
        None => Err(ApplyError::BadLink { link }),
    }
}

/// Per-shard state machine of the exchange protocol (see the module
/// docs). Owned by the in-process [`crate::InProcessBackend`] (one per
/// shard) and by each distributed `ShardPeer` (exactly one).
#[derive(Debug)]
pub struct ExchangeCore {
    shard: u16,
    eps: f64,
    /// Replicas of every shard's last-shipped table, own included.
    replicas: Vec<Replica>,
    /// Own subscription mask from the previous exchange round (the
    /// catch-up accounting's "was I subscribed then" bit). Only updated
    /// on rounds this shard is active, mirroring the in-process service.
    sub_prev: Vec<bool>,
    /// Own announced subscriptions — what the *wire* last carried, as
    /// opposed to `sub_prev` which follows the accounting's cadence.
    announced: Vec<bool>,
    /// Re-ship unmoved non-zero entries on the next round (set after a
    /// placement epoch, or to bootstrap a restarted peer's replicas).
    resync_pending: bool,
    // ---- per-round state, valid from begin_round to install ----
    /// Link-vector length this round: own export's length, maxed with
    /// every applied frame's header. Round-scoped so a round in which
    /// every shard exports nothing is recognized (and not counted).
    round_links: usize,
    own_active: bool,
    own_has_h: bool,
    /// Whether any shard's frame carried Hessians this round.
    any_h: bool,
    /// Own entries shipped this round (outbound accounting).
    own_shipped: u64,
    /// Own dirty marks this round.
    own_dirty: Vec<bool>,
    /// Per-link count of shards that shipped the link this round (own
    /// dirty marks plus received link-state records).
    dirty_count: Vec<u32>,
    /// Own fresh subscription mask this round (positive fresh load).
    fresh_sub: Vec<bool>,
    // ---- install scratch, reused every round ----
    bg: Vec<f64>,
    weight: Vec<f64>,
    num: Vec<f64>,
    state_count: Vec<u32>,
}

impl ExchangeCore {
    /// A core for shard `shard` of `shard_count`, with the delta
    /// filter's threshold `eps` (clamped at 0).
    ///
    /// # Panics
    /// Panics if `shard` is not less than `shard_count`.
    pub fn new(shard: u16, shard_count: usize, eps: f64) -> Self {
        assert!(
            (shard as usize) < shard_count,
            "shard {shard} out of range for {shard_count} shards"
        );
        ExchangeCore {
            shard,
            eps: eps.max(0.0),
            replicas: (0..shard_count).map(|_| Replica::default()).collect(),
            sub_prev: Vec::new(),
            announced: Vec::new(),
            resync_pending: false,
            round_links: 0,
            own_active: false,
            own_has_h: false,
            any_h: false,
            own_shipped: 0,
            own_dirty: Vec::new(),
            dirty_count: Vec::new(),
            fresh_sub: Vec::new(),
            bg: Vec::new(),
            weight: Vec::new(),
            num: Vec::new(),
            state_count: Vec::new(),
        }
    }

    /// This core's shard id.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Number of shards in the cluster.
    pub fn shard_count(&self) -> usize {
        self.replicas.len()
    }

    /// Request that the next round's frame carry catch-up records for
    /// every non-zero entry that the delta filter would otherwise skip —
    /// re-seeding peers whose replicas may predate this shard's state
    /// (after a placement epoch, or when a restarted peer rejoins).
    pub fn request_resync(&mut self) {
        self.resync_pending = true;
    }

    /// Start an exchange round: delta-filter the fresh export
    /// (`loads`/`hessians`/`prices`, all the same length or `hessians`
    /// empty; all empty when the engine prices no links) against the
    /// last-shipped table and append this shard's state frame to `out`.
    /// Returns the frame's length in bytes.
    pub fn begin_round(
        &mut self,
        round: u64,
        loads: &[f64],
        hessians: &[f64],
        prices: &[f64],
        out: &mut Vec<u8>,
    ) -> usize {
        let start = out.len();
        let n = loads.len();
        let active = n > 0;
        let has_h = !hessians.is_empty();
        self.round_links = n;
        self.own_active = active;
        self.own_has_h = has_h;
        self.any_h = has_h;
        self.own_shipped = 0;
        self.own_dirty.clear();
        self.own_dirty.resize(n, false);
        self.dirty_count.clear();
        self.dirty_count.resize(n, 0);
        self.fresh_sub.clear();
        self.fresh_sub.extend(loads.iter().map(|&v| v > 0.0));
        encode_header(
            &FrameHeader {
                kind: FrameKind::State,
                shard: self.shard,
                round,
                n_links: n as u32,
                active,
                has_hessians: has_h,
            },
            out,
        );
        if !active {
            return out.len() - start;
        }
        debug_assert!(!has_h || hessians.len() == n, "short hessian export");
        debug_assert_eq!(prices.len(), n, "short price export");
        // Subscription deltas: announce the links this shard started or
        // stopped carrying load on since its last announcement.
        self.announced.resize(n, false);
        for l in 0..n {
            if self.fresh_sub[l] != self.announced[l] {
                let rec = if self.fresh_sub[l] {
                    Record::SubAdd { link: l as u32 }
                } else {
                    Record::SubRemove { link: l as u32 }
                };
                encode_record(&rec, has_h, out);
                self.announced[l] = self.fresh_sub[l];
            }
        }
        let own = &mut self.replicas[self.shard as usize];
        own.subs.clear();
        own.subs.extend_from_slice(&self.fresh_sub);
        own.loads.resize(n, 0.0);
        own.prices.resize(n, 0.0);
        if has_h {
            own.hessians.resize(n, 0.0);
        }
        // Delta filter: the whole entry is keyed — load, dual, and
        // Hessian — so a link whose dual keeps decaying while its load
        // sits still is still re-shipped (see the sharded module docs).
        for l in 0..n {
            let moved = (loads[l] - own.loads[l]).abs() > self.eps
                || (prices[l] - own.prices[l]).abs() > self.eps
                || (has_h && (hessians[l] - own.hessians[l]).abs() > self.eps);
            if moved {
                own.loads[l] = loads[l];
                own.prices[l] = prices[l];
                if has_h {
                    own.hessians[l] = hessians[l];
                }
                self.own_dirty[l] = true;
                self.dirty_count[l] += 1;
                self.own_shipped += 1;
                encode_record(
                    &Record::LinkState {
                        link: l as u32,
                        load: loads[l],
                        dual: prices[l],
                        hessian: if has_h { hessians[l] } else { 0.0 },
                    },
                    has_h,
                    out,
                );
            }
        }
        if self.resync_pending {
            // Catch-up: re-ship what the filter skipped but a peer with
            // stale replicas would be missing. Receivers apply these
            // idempotently (they set, not accumulate).
            for l in 0..n {
                if self.own_dirty[l] || !nonzero_at(own, l) {
                    continue;
                }
                encode_record(
                    &Record::CatchUp {
                        link: l as u32,
                        load: own.loads[l],
                        dual: own.prices[l],
                        hessian: if has_h { own.hessians[l] } else { 0.0 },
                    },
                    has_h,
                    out,
                );
            }
            self.resync_pending = false;
        }
        out.len() - start
    }

    /// Apply another shard's state frame to its local replica. Epoch
    /// frames are ignored (they are routed to the flow-migration path
    /// by the peer runtime before reaching the core).
    ///
    /// # Errors
    /// [`ApplyError`] if the frame fails to decode or names a shard or
    /// link this cluster does not have; the replica keeps whatever the
    /// frame carried up to the error (a re-ship heals it).
    pub fn apply_frame(&mut self, frame: &[u8]) -> Result<(), ApplyError> {
        let (header, records) = RecordIter::new(frame)?;
        if header.kind != FrameKind::State {
            return Ok(());
        }
        if header.shard == self.shard || header.shard as usize >= self.replicas.len() {
            return Err(ApplyError::BadShard {
                shard: header.shard,
            });
        }
        let n = header.n_links as usize;
        self.round_links = self.round_links.max(n);
        if self.dirty_count.len() < self.round_links {
            self.dirty_count.resize(self.round_links, 0);
        }
        self.any_h |= header.has_hessians;
        // flowtune-lint: allow(panic, "bounded: header.shard < replicas.len() checked above")
        let replica = &mut self.replicas[header.shard as usize];
        if header.active {
            replica.loads.resize(n.max(replica.loads.len()), 0.0);
            replica.prices.resize(n.max(replica.prices.len()), 0.0);
            if header.has_hessians {
                replica.hessians.resize(n.max(replica.hessians.len()), 0.0);
            }
        }
        for record in records {
            match record.map_err(ApplyError::from)? {
                Record::LinkState {
                    link,
                    load,
                    dual,
                    hessian,
                } => {
                    let l = link as usize;
                    if l >= n {
                        return Err(ApplyError::BadLink { link });
                    }
                    // An inactive frame never resized the replica, so a
                    // record slipping past `n` on such a frame must be
                    // an error, not an out-of-bounds write.
                    write_state(&mut replica.loads, l, load, link)?;
                    write_state(&mut replica.prices, l, dual, link)?;
                    if header.has_hessians {
                        write_state(&mut replica.hessians, l, hessian, link)?;
                    }
                    // flowtune-lint: allow(panic, "bounded: dirty_count resized to round_links >= n above")
                    self.dirty_count[l] += 1;
                }
                Record::CatchUp {
                    link,
                    load,
                    dual,
                    hessian,
                } => {
                    // Same as link-state but not fresh movement: it does
                    // not count toward this round's dirty marks.
                    let l = link as usize;
                    if l >= n {
                        return Err(ApplyError::BadLink { link });
                    }
                    write_state(&mut replica.loads, l, load, link)?;
                    write_state(&mut replica.prices, l, dual, link)?;
                    if header.has_hessians {
                        write_state(&mut replica.hessians, l, hessian, link)?;
                    }
                }
                Record::SubAdd { link } => {
                    let l = link as usize;
                    if l >= n {
                        return Err(ApplyError::BadLink { link });
                    }
                    if replica.subs.len() < n {
                        replica.subs.resize(n, false);
                    }
                    // flowtune-lint: allow(panic, "bounded: subs resized to n, l < n checked above")
                    replica.subs[l] = true;
                }
                Record::SubRemove { link } => {
                    let l = link as usize;
                    if l >= n {
                        return Err(ApplyError::BadLink { link });
                    }
                    if replica.subs.len() < n {
                        replica.subs.resize(n, false);
                    }
                    // flowtune-lint: allow(panic, "bounded: subs resized to n, l < n checked above")
                    replica.subs[l] = false;
                }
                // State frames do not carry epoch records; tolerate and
                // skip them if a mixed frame ever arrives.
                Record::EpochBegin { .. } | Record::Migration { .. } => {}
            }
        }
        Ok(())
    }

    /// Finish the round: recompute the background load/Hessian sums and
    /// the load-weighted dual consensus from the replicas and install
    /// them into `svc` (this shard's service). Returns the round's
    /// logical exchange bytes for this shard (own entries out plus
    /// subscribed entries in — the hub-model accounting), or `None` when
    /// no shard exported any links this round (the round does not
    /// count).
    pub fn install<E: RateAllocator>(&mut self, svc: &mut AllocatorService<E>) -> Option<u64> {
        let n_links = self.round_links;
        if n_links == 0 {
            return None;
        }
        let me = self.shard as usize;

        // Load aggregation: Σ of the *other* shards' shipped loads on
        // this shard's subscribed links (zero elsewhere — no knowledge,
        // and the local dual just decays as if idle).
        self.bg.clear();
        self.bg.resize(n_links, 0.0);
        for (j, replica) in self.replicas.iter().enumerate() {
            if j == me || replica.loads.is_empty() {
                continue;
            }
            debug_assert_eq!(replica.loads.len(), n_links, "short replica of shard {j}");
            for (acc, x) in self.bg.iter_mut().zip(&replica.loads) {
                *acc += x;
            }
        }
        for l in 0..n_links {
            if !self.fresh_sub.get(l).copied().unwrap_or(false) {
                self.bg[l] = 0.0;
            }
        }
        svc.set_background_loads(&self.bg);

        // Hessian aggregation (engines without a second-order term
        // export nothing and receive nothing).
        if self.any_h && self.own_has_h {
            self.bg.clear();
            self.bg.resize(n_links, 0.0);
            for (j, replica) in self.replicas.iter().enumerate() {
                if j == me || replica.hessians.is_empty() {
                    continue;
                }
                debug_assert_eq!(
                    replica.hessians.len(),
                    n_links,
                    "short Hessian replica of shard {j}"
                );
                for (acc, x) in self.bg.iter_mut().zip(&replica.hessians) {
                    *acc += x;
                }
            }
            for l in 0..n_links {
                if !self.fresh_sub.get(l).copied().unwrap_or(false) {
                    self.bg[l] = 0.0;
                }
            }
            svc.set_background_hessians(&self.bg);
        }

        // Dual consensus: load-weighted mean price per loaded link, from
        // the replicas (own included). The same scan counts, per link,
        // how many shards hold any non-zero shipped state there — what a
        // new subscriber would have to be caught up on.
        self.bg.clear();
        self.bg.resize(n_links, f64::NAN);
        self.weight.clear();
        self.weight.resize(n_links, 0.0);
        self.num.clear();
        self.num.resize(n_links, 0.0);
        self.state_count.clear();
        self.state_count.resize(n_links, 0);
        for replica in &self.replicas {
            if replica.loads.is_empty() {
                continue;
            }
            for l in 0..n_links {
                if replica.loads[l] > 0.0 {
                    self.num[l] += replica.loads[l] * replica.prices[l];
                    self.weight[l] += replica.loads[l];
                }
                if replica.loads[l] != 0.0
                    || replica.prices[l] != 0.0
                    || replica.hessians.get(l).is_some_and(|&h| h != 0.0)
                {
                    self.state_count[l] += 1;
                }
            }
        }
        self.sub_prev.resize(n_links, false);
        for l in 0..n_links {
            if self.weight[l] > 0.0 {
                self.bg[l] = self.num[l] / self.weight[l];
            }
        }

        // Outbound logical bytes: id + load + dual (+ Hessian) per
        // entry this shard shipped.
        let mut bytes = self.own_shipped * entry_bytes(2 + u64::from(self.own_has_h));

        if self.own_active {
            // Consensus duals install (and count) only on links this
            // shard prices; elsewhere NaN keeps its own decaying dual.
            self.num.clear();
            let bg = &self.bg;
            let fresh_sub = &self.fresh_sub;
            self.num
                .extend((0..n_links).map(|l| if fresh_sub[l] { bg[l] } else { f64::NAN }));
            svc.set_link_prices(&self.num);
            // Inbound logical bytes (the hub model): one aggregated
            // entry per subscribed link that some *other* shard
            // re-shipped this round — or, on a newly subscribed link, a
            // catch-up entry for the state other shards already hold.
            let own = &self.replicas[me];
            let recv = (0..n_links)
                .filter(|&l| {
                    if !self.fresh_sub[l] {
                        return false;
                    }
                    let fresh = self.dirty_count[l] > u32::from(self.own_dirty[l]);
                    let others_hold_state = self.state_count[l] > u32::from(nonzero_at(own, l));
                    fresh || (!self.sub_prev[l] && others_hold_state)
                })
                .count() as u64;
            self.sub_prev.copy_from_slice(&self.fresh_sub);
            bytes += recv * entry_bytes(2 + u64::from(self.own_has_h && self.any_h));
        }
        Some(bytes)
    }

    /// Per-link count of shards that shipped the link this round (own
    /// dirty marks plus received link-state records) — identical at
    /// every core after a full round, and what the routing layer folds
    /// into its cumulative shipped-counts signal.
    pub fn round_ship_counts(&self) -> &[u32] {
        &self.dirty_count
    }

    /// Total links across all shards' announced subscriptions — a
    /// visibility counter for peer telemetry.
    pub fn announced_subscriptions(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| r.subs.iter().filter(|&&s| s).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one full round across a set of cores given each shard's fresh
    /// exports, returning each core's logical bytes.
    fn round(
        cores: &mut [ExchangeCore],
        round_no: u64,
        exports: &[(Vec<f64>, Vec<f64>, Vec<f64>)],
        svcs: &mut [AllocatorService],
    ) -> Vec<Option<u64>> {
        let n = cores.len();
        let mut buf = Vec::new();
        let mut offs = vec![0usize];
        for (i, core) in cores.iter_mut().enumerate() {
            let (loads, hessians, prices) = &exports[i];
            core.begin_round(round_no, loads, hessians, prices, &mut buf);
            offs.push(buf.len());
        }
        for (j, core) in cores.iter_mut().enumerate() {
            for i in 0..n {
                if i != j {
                    core.apply_frame(&buf[offs[i]..offs[i + 1]]).unwrap();
                }
            }
        }
        cores
            .iter_mut()
            .zip(svcs.iter_mut())
            .map(|(c, s)| c.install(s))
            .collect()
    }

    fn two_svcs() -> (Vec<AllocatorService>, usize) {
        let fabric =
            flowtune_topo::TwoTierClos::build(flowtune_topo::ClosConfig::multicore(2, 2, 4));
        let links = fabric.topology().link_count();
        let svcs = (0..2)
            .map(|_| AllocatorService::new(&fabric, crate::FlowtuneConfig::default()))
            .collect();
        (svcs, links)
    }

    /// A full-fabric-length export with `(link, load, price)` spikes.
    fn export(links: usize, spikes: &[(usize, f64, f64)]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut loads = vec![0.0; links];
        let mut prices = vec![0.0; links];
        for &(l, load, price) in spikes {
            loads[l] = load;
            prices[l] = price;
        }
        (loads, Vec::new(), prices)
    }

    #[test]
    fn empty_exports_do_not_count_a_round() {
        let mut cores = vec![ExchangeCore::new(0, 2, 0.0), ExchangeCore::new(1, 2, 0.0)];
        let (mut svcs, _) = two_svcs();
        let exports = vec![
            (Vec::new(), Vec::new(), Vec::new()),
            (Vec::new(), Vec::new(), Vec::new()),
        ];
        let bytes = round(&mut cores, 1, &exports, &mut svcs);
        assert_eq!(bytes, vec![None, None]);
    }

    #[test]
    fn replicas_converge_and_deltas_stop() {
        let mut cores = vec![ExchangeCore::new(0, 2, 0.0), ExchangeCore::new(1, 2, 0.0)];
        let (mut svcs, links) = two_svcs();
        let exports = vec![
            export(links, &[(0, 1.0, 0.5)]),
            export(links, &[(1, 2.0, 0.25)]),
        ];
        let bytes1 = round(&mut cores, 1, &exports, &mut svcs);
        // Round 1: each ships its one moved entry (out 20) and receives
        // nothing it subscribes to (disjoint links).
        assert_eq!(bytes1, vec![Some(20), Some(20)]);
        // Round 2 with identical exports: nothing moves, nothing ships.
        let bytes2 = round(&mut cores, 2, &exports, &mut svcs);
        assert_eq!(bytes2, vec![Some(0), Some(0)]);
        // Each core's replica of the other now matches what was shipped.
        assert_eq!(cores[0].replicas[1].loads[1], 2.0);
        assert_eq!(cores[1].replicas[0].loads[0], 1.0);
    }

    #[test]
    fn shared_link_pays_inbound_entries() {
        let mut cores = vec![ExchangeCore::new(0, 2, 0.0), ExchangeCore::new(1, 2, 0.0)];
        let (mut svcs, links) = two_svcs();
        let exports = vec![
            export(links, &[(0, 1.0, 0.5)]),
            export(links, &[(0, 2.0, 0.7)]),
        ];
        let bytes = round(&mut cores, 1, &exports, &mut svcs);
        // Each ships its entry (20) and receives the aggregated entry
        // for the shared link it subscribes to (20).
        assert_eq!(bytes, vec![Some(40), Some(40)]);
    }

    #[test]
    fn resync_emits_catch_up_without_recounting() {
        let mut cores = vec![ExchangeCore::new(0, 2, 0.0), ExchangeCore::new(1, 2, 0.0)];
        let (mut svcs, links) = two_svcs();
        let exports = vec![
            export(links, &[(0, 1.0, 0.5)]),
            export(links, &[(0, 2.0, 0.7)]),
        ];
        round(&mut cores, 1, &exports, &mut svcs);
        // Steady state: no movement, nothing shipped, nothing received.
        assert_eq!(
            round(&mut cores, 2, &exports, &mut svcs),
            vec![Some(0), Some(0)],
        );
        // A resync re-ships shard 0's entry as catch-up: replicas stay
        // identical and the logical accounting does not move.
        cores[0].request_resync();
        let mut buf = Vec::new();
        let len = cores[0].begin_round(4, &exports[0].0, &exports[0].1, &exports[0].2, &mut buf);
        assert!(len > flowtune_proto::exchange::FRAME_HEADER_BYTES);
        let before = cores[1].replicas[0].loads.clone();
        cores[1].begin_round(
            4,
            &exports[1].0,
            &exports[1].1,
            &exports[1].2,
            &mut Vec::new(),
        );
        cores[1].apply_frame(&buf).unwrap();
        assert_eq!(cores[1].replicas[0].loads, before);
        assert_eq!(cores[1].install(&mut svcs[1]), Some(0));
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        let mut core = ExchangeCore::new(0, 2, 0.0);
        assert!(matches!(
            core.apply_frame(&[0xFF; 4]),
            Err(ApplyError::Frame(_))
        ));
        // A frame claiming to be from an out-of-range shard.
        let mut buf = Vec::new();
        encode_header(
            &FrameHeader {
                kind: FrameKind::State,
                shard: 7,
                round: 1,
                n_links: 1,
                active: true,
                has_hessians: false,
            },
            &mut buf,
        );
        assert_eq!(
            core.apply_frame(&buf),
            Err(ApplyError::BadShard { shard: 7 })
        );
        // A record naming a link beyond the frame's own n_links.
        let mut buf = Vec::new();
        encode_header(
            &FrameHeader {
                kind: FrameKind::State,
                shard: 1,
                round: 1,
                n_links: 1,
                active: true,
                has_hessians: false,
            },
            &mut buf,
        );
        encode_record(
            &Record::LinkState {
                link: 5,
                load: 1.0,
                dual: 0.0,
                hessian: 0.0,
            },
            false,
            &mut buf,
        );
        assert_eq!(core.apply_frame(&buf), Err(ApplyError::BadLink { link: 5 }));
    }
}
