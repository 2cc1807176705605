//! The tick-driver abstraction over allocator control planes.
//!
//! [`TickDriver`] is the contract embedders program against: something
//! that consumes flowlet notifications and, on every 10 µs tick, produces
//! `(source server, rate update)` pairs. Two implementations exist:
//!
//! * [`AllocatorService`] — one service, one engine (the Figure-1 box);
//! * [`ShardRouter`](crate::ShardRouter) — N inner services, the
//!   endpoint space partitioned across them, exchanging link state
//!   in-process ([`ShardedService`](crate::ShardedService)) or over a
//!   wire (`flowtune_net::PeerCluster`).
//!
//! The network simulator, the fluid-model driver and the experiment
//! binaries all hold a [`BoxTickDriver`] obtained from
//! [`ServiceBuilder::build_driver`](crate::ServiceBuilder::build_driver),
//! so "how many shards" is a run-time configuration like the engine
//! choice, not a compile-time fork.
//!
//! [`TickLoop`] wraps a driver together with its tick cadence, so
//! embedders poll one clock-driven object instead of hand-rolling
//! accumulator loops around the tick.

use flowtune_alloc::RateAllocator;
use flowtune_proto::{Message, Token};
use flowtune_topo::TwoTierClos;

use crate::service::{AllocatorService, ServiceError, ServiceStats};

/// Cumulative wall time spent in each phase of the control plane's work,
/// for localizing a bench regression to a phase instead of a whole tick.
/// All fields are running totals since construction; a sharded driver
/// reports its shards' sums plus its own exchange time.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Message intake (`on_message`): registry and engine add/remove.
    pub intake: std::time::Duration,
    /// Engine iterations (`run_iterations` inside `tick`).
    pub allocate: std::time::Duration,
    /// Update export: the engine's rate drain, the §6.4 threshold filter,
    /// `Rate16` encoding of the updates that pass and their sort into
    /// token order.
    pub export: std::time::Duration,
    /// Inter-shard link-state exchange rounds (sharded drivers only).
    pub exchange: std::time::Duration,
}

/// A control plane with an allocator tick: notifications in, rate updates
/// out, behind either one [`AllocatorService`] or a
/// [`ShardedService`](crate::ShardedService).
pub trait TickDriver: std::fmt::Debug + Send {
    /// Handles an endpoint notification (see
    /// [`AllocatorService::on_message`]).
    ///
    /// # Errors
    /// [`ServiceError`] when the message is corrupt or inconsistent; the
    /// message is dropped and counted, the driver stays consistent.
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError>;

    /// One allocator tick (§6.2: every 10 µs): runs the engine(s) and
    /// writes `(source server, update)` pairs in ascending token order
    /// into `out`, which is cleared first. A tick into a warm buffer does
    /// not allocate.
    ///
    /// # Errors
    /// A sharded control plane reports a failed shard — an engine panic
    /// in-process ([`ServiceError::ShardPanicked`]: siblings and the
    /// worker pool survive) or a dead peer on the wire
    /// ([`ServiceError::PeerFailed`]) — instead of aborting the
    /// embedder's loop; `out` is then left empty. A single service never
    /// fails.
    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), ServiceError>;

    /// [`TickDriver::tick_into`] into a fresh buffer, for callers that
    /// treat a failed shard as fatal.
    ///
    /// # Panics
    /// Panics with the [`ServiceError`] if a shard failed.
    fn tick(&mut self) -> Vec<(u16, Message)> {
        let mut out = Vec::new();
        if let Err(e) = self.tick_into(&mut out) {
            panic!("{e}");
        }
        out
    }

    /// Current normalized rate of an active flowlet, Gbit/s.
    fn flow_rate_gbps(&self, token: Token) -> Option<f64>;

    /// Number of active flowlets.
    fn active_flows(&self) -> usize;

    /// Operating counters (aggregated over shards, where applicable).
    fn stats(&self) -> ServiceStats;

    /// Cumulative per-phase wall time (aggregated over shards, where
    /// applicable). The default reports zeros for drivers that do not
    /// instrument their phases.
    fn phase_timings(&self) -> PhaseTimings {
        PhaseTimings::default()
    }

    /// Per-link loads of the control plane's current raw allocation,
    /// indexed by global [`LinkId`](flowtune_topo::LinkId) (summed over
    /// shards, where applicable). Empty when the engine does not price
    /// fabric links (Fastpass). Powers the over-allocation telemetry of
    /// the Figure-12 experiment and capacity assertions in tests.
    fn link_loads(&self) -> Vec<f64>;

    /// The fabric this control plane serves.
    fn fabric(&self) -> &TwoTierClos;

    /// Short engine name (`serial` / `multicore` / `fastpass` /
    /// `gradient` / `sharded`).
    fn engine_name(&self) -> &'static str;
}

/// A run-time-chosen control plane (plain or sharded, any engine).
pub type BoxTickDriver = Box<dyn TickDriver>;

impl TickDriver for BoxTickDriver {
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        (**self).on_message(msg)
    }

    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), ServiceError> {
        (**self).tick_into(out)
    }

    fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        (**self).flow_rate_gbps(token)
    }

    fn active_flows(&self) -> usize {
        (**self).active_flows()
    }

    fn stats(&self) -> ServiceStats {
        (**self).stats()
    }

    fn phase_timings(&self) -> PhaseTimings {
        (**self).phase_timings()
    }

    fn link_loads(&self) -> Vec<f64> {
        (**self).link_loads()
    }

    fn fabric(&self) -> &TwoTierClos {
        (**self).fabric()
    }

    fn engine_name(&self) -> &'static str {
        (**self).engine_name()
    }
}

impl<E: RateAllocator> TickDriver for AllocatorService<E> {
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        AllocatorService::on_message(self, msg)
    }

    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), ServiceError> {
        AllocatorService::tick_into(self, out);
        Ok(())
    }

    fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        AllocatorService::flow_rate_gbps(self, token)
    }

    fn active_flows(&self) -> usize {
        AllocatorService::active_flows(self)
    }

    fn stats(&self) -> ServiceStats {
        AllocatorService::stats(self)
    }

    fn phase_timings(&self) -> PhaseTimings {
        AllocatorService::phase_timings(self)
    }

    fn link_loads(&self) -> Vec<f64> {
        AllocatorService::link_loads(self)
    }

    fn fabric(&self) -> &TwoTierClos {
        AllocatorService::fabric(self)
    }

    fn engine_name(&self) -> &'static str {
        AllocatorService::engine_name(self)
    }
}

/// A [`TickDriver`] plus its tick cadence: the adapter that owns *when*
/// the allocator ticks, so embedders stop hand-rolling sleep loops.
///
/// The loop is clocked in **picoseconds on the caller's time base** —
/// simulated time (the fluid driver polls it with its simulation clock)
/// or wall time (map `Instant::elapsed()` to ps). This is what makes it
/// async-friendly: an event-loop embedder sleeps (or `await`s a timer)
/// until [`TickLoop::next_tick_ps`], then calls [`TickLoop::poll`] — no
/// thread is parked inside this type, and `poll` never blocks. A poll that
/// arrives late catches up one tick per call, so
/// `while let Some(updates) = tick_loop.poll(now_ps) { … }` runs exactly
/// the ticks the cadence owed at `now_ps`.
#[derive(Debug)]
pub struct TickLoop<D: TickDriver = BoxTickDriver> {
    driver: D,
    interval_ps: u64,
    next_ps: u64,
    ticks: u64,
}

impl<D: TickDriver> TickLoop<D> {
    /// Wraps `driver` with a tick every `interval_ps` picoseconds (§6.2:
    /// 10 µs = 10 000 000 ps; see
    /// [`FlowtuneConfig::tick_interval_ps`](crate::FlowtuneConfig)). The
    /// first tick is due at time 0.
    ///
    /// # Panics
    /// Panics if `interval_ps` is 0.
    pub fn new(driver: D, interval_ps: u64) -> Self {
        assert!(interval_ps > 0, "a tick cadence needs a nonzero interval");
        Self {
            driver,
            interval_ps,
            next_ps: 0,
            ticks: 0,
        }
    }

    /// The tick interval, ps.
    pub fn interval_ps(&self) -> u64 {
        self.interval_ps
    }

    /// When the next tick is due, ps on the caller's time base.
    pub fn next_tick_ps(&self) -> u64 {
        self.next_ps
    }

    /// Ticks driven so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The wrapped driver (message intake goes through here:
    /// `tick_loop.driver_mut().on_message(…)`).
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Mutable access to the wrapped driver.
    pub fn driver_mut(&mut self) -> &mut D {
        &mut self.driver
    }

    /// Unwraps the driver.
    pub fn into_driver(self) -> D {
        self.driver
    }

    /// Runs one tick if one is due at `now_ps`, returning its update
    /// stream; `None` means the cadence owes nothing yet (call again at
    /// [`TickLoop::next_tick_ps`]). When `now_ps` has overshot several
    /// intervals, each call pays off one owed tick, so a catch-up loop
    /// (`while let Some(…) = poll(now_ps)`) restores the cadence.
    ///
    /// # Panics
    /// Panics with the [`ServiceError`] if a shard failed (see
    /// [`TickLoop::poll_into`] for the fallible form).
    pub fn poll(&mut self, now_ps: u64) -> Option<Vec<(u16, Message)>> {
        let mut out = Vec::new();
        match self.poll_into(now_ps, &mut out) {
            Ok(true) => Some(out),
            Ok(false) => None,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`TickLoop::poll`] into a caller-provided buffer: `Ok(true)` when
    /// a tick ran and wrote its update stream into `out` (cleared
    /// first), `Ok(false)` when none was due and `out` was left alone. A
    /// tick into a warm buffer does not allocate.
    ///
    /// # Errors
    /// The tick's [`ServiceError`] (see [`TickDriver::tick_into`]); the
    /// tick still counts as run, so the cadence moves on.
    pub fn poll_into(
        &mut self,
        now_ps: u64,
        out: &mut Vec<(u16, Message)>,
    ) -> Result<bool, ServiceError> {
        if now_ps < self.next_ps {
            return Ok(false);
        }
        self.next_ps += self.interval_ps;
        self.ticks += 1;
        self.driver.tick_into(out)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowtuneConfig;
    use flowtune_topo::ClosConfig;

    fn service() -> AllocatorService {
        let fabric = TwoTierClos::build(ClosConfig::paper_eval());
        AllocatorService::new(&fabric, FlowtuneConfig::default())
    }

    fn start(token: u32) -> Message {
        Message::FlowletStart {
            token: Token::new(token),
            src: 0,
            dst: 140,
            size_hint: 1,
            weight_q8: 256,
            spine: 1,
        }
    }

    #[test]
    fn allocator_service_is_a_tick_driver() {
        let fabric = TwoTierClos::build(ClosConfig::paper_eval());
        let svc = AllocatorService::new(&fabric, FlowtuneConfig::default());
        let mut drv: BoxTickDriver = Box::new(svc);
        drv.on_message(Message::FlowletStart {
            token: Token::new(1),
            src: 0,
            dst: 140,
            size_hint: 1,
            weight_q8: 256,
            spine: 1,
        })
        .unwrap();
        assert_eq!(drv.active_flows(), 1);
        assert_eq!(drv.tick().len(), 1);
        assert!(drv.flow_rate_gbps(Token::new(1)).unwrap() > 0.0);
        assert_eq!(drv.engine_name(), "serial");
        assert_eq!(drv.fabric().config().server_count(), 144);
        assert_eq!(drv.stats().starts, 1);
        // A single service's tick never fails; the buffer is cleared.
        let mut out = vec![(7, start(9))];
        assert!(drv.tick_into(&mut out).is_ok());
        assert!(out.iter().all(|&(src, _)| src == 0), "{out:?}");
    }

    #[test]
    fn tick_loop_owes_one_tick_per_interval() {
        let mut tl = TickLoop::new(service(), 10);
        tl.driver_mut().on_message(start(1)).unwrap();
        // Nothing owed before time 0 is polled; the first poll at 0 ticks.
        assert_eq!(tl.next_tick_ps(), 0);
        let updates = tl.poll(0).expect("tick due at 0");
        assert_eq!(updates.len(), 1);
        assert_eq!(tl.ticks(), 1);
        assert_eq!(tl.next_tick_ps(), 10);
        // Not due yet.
        assert!(tl.poll(5).is_none());
        assert_eq!(tl.ticks(), 1);
        // Exactly due.
        assert!(tl.poll(10).is_some());
        assert_eq!(tl.ticks(), 2);
        // A late poll catches up one owed tick per call.
        let mut caught_up = 0;
        while tl.poll(55).is_some() {
            caught_up += 1;
        }
        assert_eq!(caught_up, 4, "ticks at 20, 30, 40, 50");
        assert_eq!(tl.next_tick_ps(), 60);
        assert_eq!(tl.driver().stats().iterations, tl.ticks());
    }

    #[test]
    fn poll_into_ticks_on_the_same_cadence_as_poll() {
        let mut by_poll = TickLoop::new(service(), 10);
        let mut by_poll_into = TickLoop::new(service(), 10);
        by_poll.driver_mut().on_message(start(1)).unwrap();
        by_poll_into.driver_mut().on_message(start(1)).unwrap();
        let mut out = vec![(7, start(9))];
        for now_ps in [0, 5, 10, 35, 35, 35, 35] {
            let ran = by_poll_into.poll_into(now_ps, &mut out).unwrap();
            match by_poll.poll(now_ps) {
                Some(updates) => {
                    assert!(ran, "at {now_ps}");
                    assert_eq!(out, updates, "at {now_ps}");
                }
                None => assert!(!ran, "at {now_ps}"),
            }
            assert_eq!(by_poll_into.ticks(), by_poll.ticks());
            assert_eq!(by_poll_into.next_tick_ps(), by_poll.next_tick_ps());
        }
        assert_eq!(by_poll_into.ticks(), 4, "ticks at 0, 10, 20, 30");
    }

    #[test]
    #[should_panic(expected = "nonzero interval")]
    fn tick_loop_rejects_zero_interval() {
        let _ = TickLoop::new(service(), 0);
    }
}
