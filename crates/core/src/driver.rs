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
//! sleep/accumulator loops around `tick()`.

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
    /// Update export: rate reads, threshold filtering, message encoding.
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
    /// returns `(source server, update)` pairs in ascending token order.
    fn tick(&mut self) -> Vec<(u16, Message)>;

    /// [`TickDriver::tick`] with engine panics contained where the
    /// implementation supports it: a sharded control plane reports a
    /// panicking shard as [`ServiceError::ShardPanicked`] (siblings and
    /// the worker pool survive) instead of aborting the embedder's loop.
    /// The default simply runs `tick` — single-engine services have no
    /// isolation boundary to contain a panic behind.
    ///
    /// # Errors
    /// [`ServiceError::ShardPanicked`] from drivers with per-shard panic
    /// isolation.
    fn try_tick(&mut self) -> Result<Vec<(u16, Message)>, ServiceError> {
        Ok(self.tick())
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

    fn tick(&mut self) -> Vec<(u16, Message)> {
        (**self).tick()
    }

    fn try_tick(&mut self) -> Result<Vec<(u16, Message)>, ServiceError> {
        (**self).try_tick()
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

    fn tick(&mut self) -> Vec<(u16, Message)> {
        AllocatorService::tick(self)
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

/// The per-tick callback [`TickLoop::run_wall`] hands each tick's update
/// stream to, together with the driver for rate queries.
pub type UpdateSink<'a, D> = dyn FnMut(&mut D, Vec<(u16, Message)>) + 'a;

/// A [`TickDriver`] plus its tick cadence: the adapter that owns *when*
/// the allocator ticks, so embedders stop hand-rolling sleep loops.
///
/// The loop is clocked in **picoseconds on the caller's time base** —
/// simulated time (the fluid driver polls it with its simulation clock)
/// or wall time (map `Instant::elapsed()` to ps, or use
/// [`TickLoop::run_wall`]). This is what makes it async-friendly: an
/// event-loop embedder sleeps (or `await`s a timer) until
/// [`TickLoop::next_tick_ps`], then calls [`TickLoop::poll`] — no thread
/// is parked inside this type, and `poll` never blocks. A poll that
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
    pub fn poll(&mut self, now_ps: u64) -> Option<Vec<(u16, Message)>> {
        if now_ps < self.next_ps {
            return None;
        }
        self.next_ps += self.interval_ps;
        self.ticks += 1;
        Some(self.driver.tick())
    }

    /// Drives the cadence against the wall clock for `duration`,
    /// sleeping between ticks and handing every tick's updates (with the
    /// driver, for rate queries) to `sink` — the blocking convenience
    /// for embedders without an event loop of their own.
    pub fn run_wall(&mut self, duration: std::time::Duration, sink: &mut UpdateSink<'_, D>) {
        let t0 = std::time::Instant::now();
        let origin = self.next_ps;
        let horizon = duration.as_nanos().saturating_mul(1000) as u64;
        loop {
            let elapsed = (t0.elapsed().as_nanos().saturating_mul(1000) as u64).min(horizon);
            let now_ps = origin + elapsed;
            while let Some(updates) = self.poll(now_ps) {
                sink(&mut self.driver, updates);
            }
            if elapsed >= horizon {
                return;
            }
            let wait_ps = self.next_ps.saturating_sub(now_ps);
            std::thread::sleep(std::time::Duration::from_nanos(wait_ps.div_ceil(1000)));
        }
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
        // The default fallible tick simply runs the tick.
        assert!(drv.try_tick().is_ok());
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
    fn tick_loop_run_wall_drives_the_cadence() {
        // A coarse 2 ms interval keeps the assertion robust on loaded
        // machines: over 11 ms the catch-up loop owes 5–6 ticks and can
        // never run more than duration/interval + 1.
        let mut tl = TickLoop::new(service(), 2_000_000_000);
        tl.driver_mut().on_message(start(1)).unwrap();
        let mut polled = 0u64;
        tl.run_wall(std::time::Duration::from_millis(11), &mut |drv, _| {
            polled += 1;
            assert!(drv.flow_rate_gbps(Token::new(1)).is_some());
        });
        assert_eq!(polled, tl.ticks());
        assert!((5..=6).contains(&tl.ticks()), "{} ticks", tl.ticks());
    }

    #[test]
    #[should_panic(expected = "nonzero interval")]
    fn tick_loop_rejects_zero_interval() {
        let _ = TickLoop::new(service(), 0);
    }
}
