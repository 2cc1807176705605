//! The centralized allocator as a library.
//!
//! # Layering: engines, services, drivers
//!
//! The control plane is built from three layers, each swappable
//! independently of the others:
//!
//! 1. **[`RateAllocator`] engines** compute per-flow rates over a fixed
//!    fabric. [`Engine`] names them: [`Engine::Serial`] (the reference
//!    NED optimizer), [`Engine::Multicore`] (the §5 FlowBlock-parallel
//!    engine, bit-for-bit equal rates, persistent worker pool),
//!    [`Engine::Fastpass`] (per-packet timeslot arbitration, the §6.1
//!    baseline) and [`Engine::Gradient`] (first-order gradient
//!    projection, the §6.6/Figure-12 baseline).
//! 2. **[`AllocatorService`]** is the Figure-1 box around one engine: it
//!    consumes flowlet start/end notifications, keeps one flow table (a
//!    dense slot per flowlet, indexed by engine flow id, holding its
//!    registration and §6.4 filter memory), and on every
//!    [`AllocatorService::tick_into`] (§6.2: every 10 µs) emits
//!    threshold-filtered rate updates. It is sans-IO — the network
//!    simulator delivers the messages over simulated TCP, the examples
//!    call it directly.
//! 3. **[`TickDriver`](crate::TickDriver)** abstracts "a thing with an
//!    allocator tick" — the message-in/updates-out contract shared by
//!    [`AllocatorService`] and [`ShardedService`](crate::ShardedService).
//!    [`ShardedService`](crate::ShardedService) partitions the endpoint
//!    space across N inner
//!    services (one fabric block each, [`Engine::Sharded`]), routes
//!    notifications by source endpoint, and merges the shards' update
//!    streams back into one token-ordered stream. Embedders that should
//!    run sharded or unsharded by configuration hold a
//!    [`BoxTickDriver`](crate::BoxTickDriver) built with
//!    [`ServiceBuilder::build_driver`].
//!
//! Malformed or inconsistent control messages (duplicate live tokens,
//! rate updates sent *to* the allocator) are reportable conditions, not
//! crashes: [`AllocatorService::on_message`] returns a [`ServiceError`]
//! and bumps [`ServiceStats::rejected`].

use std::collections::HashMap;
use std::time::Instant;

use flowtune_alloc::{AllocConfig, BoxEngine, FlowRate, RateAllocator, SerialAllocator};
use flowtune_fastpass::FastpassAdapter;
use flowtune_proto::{Message, Rate16, ThresholdFilter, Token};
use flowtune_topo::{FlowId, TwoTierClos};

use crate::driver::PhaseTimings;
use crate::FlowtuneConfig;

/// A flowlet registration, carrying everything needed to register the
/// flow: what a service keeps per flow, and, detached from its service,
/// the unit of flow-state migration between shards during a re-placement
/// epoch ([`ShardRouter::replace`](crate::ShardRouter::replace)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowMigration {
    /// The endpoint-visible flowlet token.
    pub token: Token,
    /// Source server index.
    pub src: u16,
    /// Destination server index.
    pub dst: u16,
    /// Proportional-fairness weight in Q8 fixed point (0 = the config
    /// default), exactly as the original `FlowletStart` carried it.
    pub weight_q8: u16,
    /// The ECMP spine of the flow's path.
    pub spine: u8,
}

/// One row of the service's flow table. A slot's index in the table *is*
/// the flow's engine [`FlowId`], so an engine rate leads straight back to
/// its token, source and filter memory.
#[derive(Debug, Clone, Copy)]
struct Slot {
    flow: FlowMigration,
    /// Last rate sent for this flowlet (§6.4 filter memory); `None` until
    /// its first update, and again whenever the slot is reused.
    last_sent: Option<f64>,
}

/// Operating counters, mostly for the overhead experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Flowlet starts accepted.
    pub starts: u64,
    /// Flowlet ends accepted.
    pub ends: u64,
    /// Rate updates emitted (post-filter).
    pub updates_sent: u64,
    /// Rate updates suppressed by the threshold filter.
    pub updates_suppressed: u64,
    /// Payload bytes received from endpoints.
    pub bytes_in: u64,
    /// Payload bytes sent to endpoints.
    pub bytes_out: u64,
    /// Allocator iterations run.
    pub iterations: u64,
    /// Messages rejected as corrupt or inconsistent (duplicate live
    /// tokens, rate updates addressed to the allocator).
    pub rejected: u64,
    /// Inter-shard link-state exchange rounds executed. Always 0 for an
    /// unsharded service and for sharded services with the exchange
    /// disabled ([`crate::FlowtuneConfig::exchange_every`] = 0).
    pub exchange_rounds: u64,
    /// Bytes of link state shipped between shards by those rounds. Each
    /// round, every exporting shard sends its load, Hessian-diagonal
    /// (second-order engines only) and dual (price) vectors and receives
    /// the background and consensus counterparts — up to six vectors of
    /// 8 bytes per link.
    pub exchange_bytes: u64,
    /// Exchange frames that failed to decode or apply (truncated or
    /// corrupt bytes off a transport, version mismatches, out-of-range
    /// indices). Always 0 in-process; a distributed peer counts here
    /// what a real socket handed it that it had to drop.
    pub exchange_decode_errors: u64,
    /// Incremental engines only: cumulative count of flows whose rate
    /// pass was actually re-run (summed over shards). On a quiet tick
    /// this grows by the changed set, not the flow count; always 0 for
    /// full-sweep engines ([`crate::FlowtuneConfig::incremental`] off).
    pub dirty_flows: u64,
    /// Incremental engines only: cumulative count of per-iteration link
    /// price moves beyond [`crate::FlowtuneConfig::dirty_eps`] (root
    /// diffs and exchange installs; summed over shards). Always 0 for
    /// full-sweep engines.
    pub dirty_links: u64,
}

/// Why the allocator refused a control message or a build request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// A `FlowletStart` reused a token that is still active. Endpoints
    /// mint unique tokens, so this indicates corruption or a duplicated
    /// segment; the start is dropped and the original flowlet keeps its
    /// registration.
    DuplicateToken(Token),
    /// A `FlowletStart` named endpoints the fabric does not have —
    /// src/dst out of range, src == dst, or an unknown spine. A
    /// corrupted field, not a crash: the start is dropped.
    MalformedStart(Token),
    /// A `RateUpdate` arrived at the allocator; updates are allocator
    /// *output*, so receiving one indicates mis-wiring.
    UnexpectedRateUpdate,
    /// [`ServiceBuilder::build`] was called without a fabric.
    MissingFabric,
    /// [`ServiceBuilder::build`] was called with [`Engine::Sharded`]; a
    /// sharded control plane is a [`ShardedService`](crate::ShardedService),
    /// built through [`ServiceBuilder::build_driver`].
    ShardedNeedsDriver,
    /// [`Engine::Sharded`] named an impossible partition (zero shards, or
    /// shards nested inside shards).
    BadShards(&'static str),
    /// A shard's engine panicked during an in-process sharded
    /// [`TickDriver::tick_into`](crate::TickDriver::tick_into). The
    /// sibling shards completed the tick and the worker pool survives
    /// (the panic payload is printed by the panic hook as usual); the
    /// merged update stream for the tick is dropped because it would be
    /// missing the dead shard's updates.
    ShardPanicked {
        /// Index of the shard whose tick panicked.
        shard: usize,
    },
    /// A wire shard peer failed during a tick or a re-placement epoch —
    /// a send, its exchange barrier, or an epoch frame that never
    /// arrived. The tick's merged update stream is dropped.
    PeerFailed {
        /// Index of the shard whose peer failed.
        shard: usize,
        /// The failure's I/O class (`TimedOut`, `BrokenPipe`, …).
        kind: std::io::ErrorKind,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::DuplicateToken(t) => {
                write!(f, "flowlet start reuses active token {t:?}")
            }
            ServiceError::MalformedStart(t) => {
                write!(f, "flowlet start {t:?} names endpoints outside the fabric")
            }
            ServiceError::UnexpectedRateUpdate => {
                write!(f, "allocator received a RateUpdate")
            }
            ServiceError::MissingFabric => {
                write!(f, "allocator builder needs a fabric")
            }
            ServiceError::ShardedNeedsDriver => {
                write!(
                    f,
                    "Engine::Sharded builds a ShardedService; use build_driver()"
                )
            }
            ServiceError::BadShards(why) => {
                write!(f, "bad shard spec: {why}")
            }
            ServiceError::ShardPanicked { shard } => {
                write!(f, "shard {shard} panicked during its tick")
            }
            ServiceError::PeerFailed { shard, kind } => {
                write!(f, "shard {shard}'s peer failed: {kind}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Which allocation engine a built service runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Engine {
    /// Single-threaded reference NED engine.
    #[default]
    Serial,
    /// §5 FlowBlock-parallel NED engine. `workers` caps the OS threads
    /// per iteration; `0` sizes to the host.
    Multicore {
        /// OS-thread cap (0 = auto).
        workers: usize,
    },
    /// Fastpass-style per-packet timeslot arbitration (§6.1 baseline).
    Fastpass,
    /// First-order gradient projection (§6.6 / Figure-12 baseline).
    Gradient,
    /// A [`ShardedService`](crate::ShardedService): `shards` independent
    /// inner services, each running its own `inner` engine over one slice
    /// of the endpoint space (one fabric block each when `shards` equals
    /// the fabric's block count). Built with
    /// [`ServiceBuilder::build_driver`]; `inner` must not itself be
    /// `Sharded`.
    Sharded {
        /// Number of independent shards (≥ 1).
        shards: usize,
        /// The engine each shard runs.
        inner: Box<Engine>,
    },
}

/// `--engine` names [`Engine::parse`] accepts. (`sharded` is not in the
/// list: sharding composes over a base engine via `--shards N`.)
pub const ENGINE_NAMES: [&str; 4] = ["serial", "multicore", "fastpass", "gradient"];

/// An `--engine` value [`Engine::parse`] did not recognize. The `Display`
/// form lists the valid names, so surfacing it verbatim gives the operator
/// the fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineError {
    got: String,
}

impl ParseEngineError {
    /// The rejected engine name.
    pub fn got(&self) -> &str {
        &self.got
    }
}

impl std::fmt::Display for ParseEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown engine `{}`; valid engines: {}",
            self.got,
            ENGINE_NAMES.join(", ")
        )
    }
}

impl std::error::Error for ParseEngineError {}

impl Engine {
    /// Parses an engine name as accepted by the experiment binaries'
    /// `--engine` flag.
    ///
    /// # Errors
    /// [`ParseEngineError`] (listing the valid names) on anything not in
    /// [`ENGINE_NAMES`].
    pub fn parse(s: &str) -> Result<Engine, ParseEngineError> {
        match s {
            "serial" => Ok(Engine::Serial),
            "multicore" => Ok(Engine::Multicore { workers: 0 }),
            "fastpass" => Ok(Engine::Fastpass),
            "gradient" => Ok(Engine::Gradient),
            _ => Err(ParseEngineError { got: s.to_string() }),
        }
    }

    /// The flag-style name (`serial` / `multicore` / `fastpass` /
    /// `gradient` / `sharded`).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Serial => "serial",
            Engine::Multicore { .. } => "multicore",
            Engine::Fastpass => "fastpass",
            Engine::Gradient => "gradient",
            Engine::Sharded { .. } => "sharded",
        }
    }

    /// Wraps this engine in [`Engine::Sharded`] over `shards` shards (the
    /// `--shards N` flag). `shards == 1` still builds a (single-shard)
    /// `ShardedService`, which is useful for equivalence testing.
    pub fn sharded(self, shards: usize) -> Engine {
        Engine::Sharded {
            shards,
            inner: Box::new(self),
        }
    }
}

/// Configures and constructs an [`AllocatorService`] with a run-time
/// engine choice. Obtained from [`AllocatorService::builder`].
#[derive(Debug, Clone, Default)]
pub struct ServiceBuilder {
    fabric: Option<TwoTierClos>,
    cfg: FlowtuneConfig,
    engine: Engine,
    matrix: Option<crate::placement::TrafficMatrix>,
}

impl ServiceBuilder {
    /// The fabric the allocator serves (required).
    pub fn fabric(mut self, fabric: &TwoTierClos) -> Self {
        self.fabric = Some(fabric.clone());
        self
    }

    /// Replaces the whole configuration (defaults to
    /// [`FlowtuneConfig::default`]).
    pub fn config(mut self, cfg: FlowtuneConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Selects the allocation engine (defaults to [`Engine::Serial`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the NED step size γ.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.cfg.gamma = gamma;
        self
    }

    /// Overrides the §6.4 update-suppression threshold.
    pub fn update_threshold(mut self, threshold: f64) -> Self {
        self.cfg.update_threshold = threshold;
        self
    }

    /// Overrides the engine iterations run per tick.
    pub fn iterations_per_tick(mut self, n: usize) -> Self {
        self.cfg.iterations_per_tick = n;
        self
    }

    /// Enables or disables F-NORM.
    pub fn f_norm(mut self, on: bool) -> Self {
        self.cfg.f_norm = on;
        self
    }

    /// Enables or disables incremental (dirty-set) ticks
    /// ([`crate::FlowtuneConfig::incremental`]; off by default).
    pub fn incremental(mut self, on: bool) -> Self {
        self.cfg.incremental = on;
        self
    }

    /// Sets the incremental mode's periodic full-sweep cadence in
    /// iterations ([`crate::FlowtuneConfig::full_sweep_every`]; 0 = never).
    pub fn full_sweep_every(mut self, iterations: u64) -> Self {
        self.cfg.full_sweep_every = iterations;
        self
    }

    /// Sets the incremental mode's price-movement threshold
    /// ([`crate::FlowtuneConfig::dirty_eps`]; 0.0 = exact, bit-for-bit
    /// equal to the full sweep).
    pub fn dirty_eps(mut self, eps: f64) -> Self {
        self.cfg.dirty_eps = eps;
        self
    }

    /// Sets the inter-shard exchange knobs as a group
    /// ([`crate::ExchangeConfig`]): cadence and delta filter land in the
    /// service config; the peer-runtime knobs (`round_timeout`,
    /// `max_rounds_behind`) only matter when the same `ExchangeConfig`
    /// is handed to a distributed `ShardPeer`. Only meaningful with
    /// [`Engine::Sharded`] via [`ServiceBuilder::build_driver`].
    pub fn exchange(mut self, exchange: crate::ExchangeConfig) -> Self {
        self.cfg.exchange_every = exchange.every;
        self.cfg.exchange_delta_eps = exchange.delta_eps;
        self
    }

    /// Enables or disables the concurrent sharded tick
    /// ([`crate::FlowtuneConfig::parallel_shards`]; on by default). Only
    /// meaningful with [`Engine::Sharded`] and more than one shard.
    pub fn parallel_shards(mut self, on: bool) -> Self {
        self.cfg.parallel_shards = on;
        self
    }

    /// Selects how endpoints map to shards
    /// ([`crate::FlowtuneConfig::placement`]; defaults to
    /// [`crate::PlacementSpec::Contiguous`]). A
    /// [`crate::PlacementSpec::Traffic`] spec consumes the matrix set
    /// with [`ServiceBuilder::traffic_matrix`] and falls back to
    /// contiguous without one. Only meaningful with [`Engine::Sharded`]
    /// via [`ServiceBuilder::build_driver`].
    pub fn placement(mut self, spec: crate::PlacementSpec) -> Self {
        self.cfg.placement = spec;
        self
    }

    /// Supplies the rack-by-rack traffic matrix a
    /// [`crate::PlacementSpec::Traffic`] placement partitions by —
    /// sampled from the workload up front
    /// (`flowtune_workload::rack_traffic_matrix`) or exported by a
    /// running service
    /// ([`ShardedService::observed_matrix`](crate::ShardedService::observed_matrix)).
    pub fn traffic_matrix(mut self, matrix: crate::placement::TrafficMatrix) -> Self {
        self.matrix = Some(matrix);
        self
    }

    /// Builds the service over the chosen engine.
    ///
    /// # Errors
    /// [`ServiceError::MissingFabric`] if no fabric was supplied;
    /// [`ServiceError::ShardedNeedsDriver`] if the engine is
    /// [`Engine::Sharded`] (a sharded control plane is not a single
    /// `AllocatorService` — build it with
    /// [`ServiceBuilder::build_driver`]).
    pub fn build(self) -> Result<AllocatorService<BoxEngine>, ServiceError> {
        if matches!(self.engine, Engine::Sharded { .. }) {
            return Err(ServiceError::ShardedNeedsDriver);
        }
        let fabric = self.fabric.ok_or(ServiceError::MissingFabric)?;
        let alloc_cfg = alloc_config(&self.cfg);
        let engine: BoxEngine = match self.engine {
            Engine::Serial => Box::new(SerialAllocator::new(&fabric, alloc_cfg)),
            Engine::Multicore { workers } => Box::new(
                flowtune_alloc::MulticoreAllocator::with_workers(&fabric, alloc_cfg, workers),
            ),
            Engine::Fastpass => {
                // NED engines interpret iterations-per-tick as extra
                // optimization work inside the same 10 µs; the arbiter's
                // iterations *are* fabric time, so split the tick across
                // them to keep its clock honest.
                let iteration_ps =
                    self.cfg.tick_interval_ps / self.cfg.iterations_per_tick.max(1) as u64;
                Box::new(
                    FastpassAdapter::new(&fabric, alloc_cfg)
                        .with_iteration_time_ps(iteration_ps, fabric.config().host_link_bps),
                )
            }
            Engine::Gradient => {
                Box::new(flowtune_alloc::GradientAllocator::new(&fabric, alloc_cfg))
            }
            Engine::Sharded { .. } => unreachable!("rejected above"),
        };
        Ok(AllocatorService::from_parts(fabric, self.cfg, engine))
    }

    /// Builds a boxed [`TickDriver`](crate::TickDriver) over the chosen
    /// engine: a [`ShardedService`](crate::ShardedService) for
    /// [`Engine::Sharded`], a plain [`AllocatorService`] otherwise. This
    /// is the constructor for embedders (simulator, fluid driver,
    /// experiment binaries) whose shard count is configuration.
    ///
    /// # Errors
    /// [`ServiceError::MissingFabric`] without a fabric;
    /// [`ServiceError::BadShards`] for zero shards or nested sharding.
    pub fn build_driver(self) -> Result<crate::BoxTickDriver, ServiceError> {
        match self.engine {
            Engine::Sharded { shards, inner } => {
                if shards == 0 {
                    return Err(ServiceError::BadShards("shard count must be at least 1"));
                }
                if matches!(*inner, Engine::Sharded { .. }) {
                    return Err(ServiceError::BadShards("shards cannot nest"));
                }
                let fabric = self.fabric.ok_or(ServiceError::MissingFabric)?;
                let clos = fabric.config();
                let placement = match self.cfg.placement {
                    crate::PlacementSpec::Contiguous => {
                        crate::Placement::contiguous(clos.server_count(), shards)
                    }
                    crate::PlacementSpec::Traffic { refine } => {
                        // Without a matrix the placer has no signal, and
                        // Placement::traffic falls back to contiguous.
                        let racks = clos.server_count() / clos.servers_per_rack;
                        let empty = crate::placement::TrafficMatrix::new(racks);
                        crate::Placement::traffic(
                            clos.server_count(),
                            clos.servers_per_rack,
                            shards,
                            self.matrix.as_ref().unwrap_or(&empty),
                            refine,
                        )
                    }
                };
                let services = (0..shards)
                    .map(|_| {
                        ServiceBuilder {
                            fabric: Some(fabric.clone()),
                            cfg: self.cfg,
                            engine: (*inner).clone(),
                            matrix: None,
                        }
                        .build()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Box::new(crate::ShardedService::with_placement(
                    services, placement,
                )))
            }
            _ => Ok(Box::new(self.build()?)),
        }
    }
}

/// The §6.4 capacity/threshold coupling, shared by every engine path.
fn alloc_config(cfg: &FlowtuneConfig) -> AllocConfig {
    AllocConfig {
        gamma: cfg.gamma,
        f_norm: cfg.f_norm,
        capacity_fraction: cfg.capacity_fraction(),
        incremental: cfg.incremental,
        full_sweep_every: cfg.full_sweep_every,
        dirty_eps: cfg.dirty_eps,
    }
}

/// The centralized rate allocator (engine + F-NORM + update filtering),
/// generic over its [`RateAllocator`] engine. `AllocatorService` without
/// a type argument is the serial reference configuration;
/// [`AllocatorService::builder`] yields the boxed, run-time-chosen form
/// ([`DynAllocatorService`]).
///
/// Per-flow state is one dense flow table: a slot per registered
/// flowlet, indexed by the engine [`FlowId`] the service minted for it,
/// plus a single token → slot map. The tick never touches the map — it
/// reads the engine's drained rates straight into their slots.
#[derive(Debug)]
pub struct AllocatorService<E: RateAllocator = SerialAllocator> {
    fabric: TwoTierClos,
    engine: E,
    cfg: FlowtuneConfig,
    /// The flow table, indexed by engine [`FlowId`]. Freed slots are
    /// listed in `free` and reused by the next registration.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Token → slot, for intake, migration and token queries.
    index: HashMap<Token, u32>,
    /// Scratch buffer the engine's changed-rate drain fills each tick.
    export_buf: Vec<FlowRate>,
    /// Scratch buffer of the tick's sent updates, each packed as
    /// `token << 32 | src << 16 | rate16` so that sorting the words
    /// sorts them by token.
    sent_keys: Vec<u64>,
    filter: ThresholdFilter,
    stats: ServiceStats,
    timings: PhaseTimings,
}

/// An [`AllocatorService`] whose engine was chosen at run time.
pub type DynAllocatorService = AllocatorService<BoxEngine>;

impl AllocatorService {
    /// Builds the serial-engine service over `fabric` — the compile-time
    /// shortcut the simulator's defaults and the unit tests use. The
    /// §6.4 capacity headroom (`1 − update_threshold`) is applied to
    /// every link.
    pub fn new(fabric: &TwoTierClos, cfg: FlowtuneConfig) -> Self {
        let engine = SerialAllocator::new(fabric, alloc_config(&cfg));
        Self::with_engine(fabric, cfg, engine)
    }
}

impl AllocatorService<BoxEngine> {
    /// Starts configuring a service with a run-time engine choice.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }
}

impl<E: RateAllocator> AllocatorService<E> {
    /// Builds the service around an already-constructed engine. The
    /// engine must have been built over the same `fabric`.
    pub fn with_engine(fabric: &TwoTierClos, cfg: FlowtuneConfig, engine: E) -> Self {
        Self::from_parts(fabric.clone(), cfg, engine)
    }

    fn from_parts(fabric: TwoTierClos, cfg: FlowtuneConfig, engine: E) -> Self {
        Self {
            fabric,
            engine,
            cfg,
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            export_buf: Vec::new(),
            sent_keys: Vec::new(),
            filter: ThresholdFilter::new(cfg.update_threshold),
            stats: ServiceStats::default(),
            timings: PhaseTimings::default(),
        }
    }

    /// Handles an endpoint notification. Unknown `FlowletEnd`s are
    /// ignored (the flowlet may have been re-keyed by an endpoint
    /// restart, or belong to a predecessor allocator).
    ///
    /// # Errors
    /// [`ServiceError::DuplicateToken`] if a `FlowletStart` reuses a
    /// token that is still active, [`ServiceError::UnexpectedRateUpdate`]
    /// if a `RateUpdate` is delivered to the allocator. Either way the
    /// message is dropped, [`ServiceStats::rejected`] is bumped, and the
    /// service remains consistent — rejecting is not fatal.
    pub fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        let t0 = Instant::now();
        let result = self.on_message_inner(msg);
        self.timings.intake += t0.elapsed();
        result
    }

    fn on_message_inner(&mut self, msg: Message) -> Result<(), ServiceError> {
        self.stats.bytes_in += msg.encoded_len() as u64;
        match msg {
            Message::FlowletStart {
                token,
                src,
                dst,
                weight_q8,
                spine,
                ..
            } => {
                if self.index.contains_key(&token) {
                    self.stats.rejected += 1;
                    return Err(ServiceError::DuplicateToken(token));
                }
                // Endpoint fields come off the wire too: a corrupted
                // src/dst/spine must be a rejection, not an engine panic.
                let clos = self.fabric.config();
                let servers = clos.server_count();
                if src as usize >= servers
                    || dst as usize >= servers
                    || src == dst
                    || spine as usize >= clos.spines
                {
                    self.stats.rejected += 1;
                    return Err(ServiceError::MalformedStart(token));
                }
                self.register(FlowMigration {
                    token,
                    src,
                    dst,
                    weight_q8,
                    spine,
                });
                self.stats.starts += 1;
                Ok(())
            }
            Message::FlowletEnd { token } => {
                if self.extract_flow(token).is_some() {
                    self.stats.ends += 1;
                }
                Ok(())
            }
            Message::RateUpdate { .. } => {
                self.stats.rejected += 1;
                Err(ServiceError::UnexpectedRateUpdate)
            }
        }
    }

    /// One allocator tick (§6.2: every 10 µs): runs the configured number
    /// of engine iterations and writes `(source server, update)` pairs
    /// into `out` (cleared first) for every flow whose normalized rate
    /// moved beyond the threshold, in token order. A tick into a warm
    /// buffer does not allocate.
    pub fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) {
        let t0 = Instant::now();
        self.engine.run_iterations(self.cfg.iterations_per_tick);
        self.stats.iterations += self.cfg.iterations_per_tick as u64;
        let t1 = Instant::now();
        self.timings.allocate += t1 - t0;
        if let Some((dirty_flows, dirty_links)) = self.engine.dirty_counters() {
            // The counters are running totals the engine owns; mirror
            // them so shard sums aggregate naturally.
            self.stats.dirty_flows = dirty_flows;
            self.stats.dirty_links = dirty_links;
        }
        self.export(out);
        self.timings.export += t1.elapsed();
    }

    /// The export: drain the engine's changed rates (an incremental
    /// engine's changed set; every flow for a full-sweep engine) and run
    /// the §6.4 filter on each flow's slot memory in drain order — each
    /// decision reads only its own slot, so order cannot change it. Only
    /// the updates that pass are packed into a sort key, sorted into
    /// token order and written to `out`. A flow the engine did not drain
    /// has not moved since it was last filtered, so the filter would
    /// suppress it — it is counted suppressed directly, keeping every
    /// [`ServiceStats`] counter independent of the engine kind.
    fn export(&mut self, out: &mut Vec<(u16, Message)>) {
        out.clear();
        self.engine.take_changed_rates(&mut self.export_buf);
        self.sent_keys.clear();
        for r in &self.export_buf {
            let entry = &mut self.slots[r.id.index()];
            if self.filter.should_send(&mut entry.last_sent, r.normalized) {
                self.sent_keys.push(
                    u64::from(entry.flow.token.get()) << 32
                        | u64::from(entry.flow.src) << 16
                        | u64::from(Rate16::encode(r.normalized).bits()),
                );
            }
        }
        // Tokens are unique among active flows, so the token bits alone
        // decide the order.
        self.sent_keys.sort_unstable();
        let bytes_out = &mut self.stats.bytes_out;
        out.extend(self.sent_keys.iter().map(|&key| {
            let msg = Message::RateUpdate {
                token: Token::new((key >> 32) as u32),
                rate: Rate16::from_bits(key as u16),
            };
            *bytes_out += msg.encoded_len() as u64;
            ((key >> 16) as u16, msg)
        }));
        self.stats.updates_sent += out.len() as u64;
        self.stats.updates_suppressed += (self.index.len() - out.len()) as u64;
    }

    /// Current normalized rate of an active flowlet, Gbit/s.
    pub fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        let &slot = self.index.get(&token)?;
        Some(self.engine.flow_rate(FlowId(slot.into()))?.normalized)
    }

    /// Source server of an active flowlet — the key re-placement routing
    /// decisions are made on.
    pub fn flow_source(&self, token: Token) -> Option<u16> {
        let &slot = self.index.get(&token)?;
        Some(self.slots[slot as usize].flow.src)
    }

    /// Removes an active flowlet and returns its detached registration,
    /// for re-registration in another shard via
    /// [`AllocatorService::adopt_flow`]. Unlike a `FlowletEnd` this is a
    /// *migration*, not churn: no counter moves (`starts`/`ends`/bytes
    /// stay put, so aggregate stats are placement-invariant). The flow's
    /// threshold-filter memory is dropped — the adopting shard reports a
    /// fresh rate once the flow re-converges there.
    pub fn extract_flow(&mut self, token: Token) -> Option<FlowMigration> {
        let slot = self.index.remove(&token)?;
        self.engine.remove_flow(FlowId(slot.into()));
        self.free.push(slot);
        Some(self.slots[slot as usize].flow)
    }

    /// Registers a flowlet previously detached with
    /// [`AllocatorService::extract_flow`] — the receiving half of a
    /// migration. The flow re-enters the engine at its initial rate and
    /// re-converges under this shard's prices; the fields were validated
    /// at original intake, so only token freshness is re-checked. No
    /// counter moves.
    ///
    /// # Errors
    /// [`ServiceError::DuplicateToken`] if the token is already active
    /// here.
    pub fn adopt_flow(&mut self, m: FlowMigration) -> Result<(), ServiceError> {
        if self.index.contains_key(&m.token) {
            return Err(ServiceError::DuplicateToken(m.token));
        }
        self.register(m);
        Ok(())
    }

    /// The single registration path intake and migration share: take a
    /// slot (a freed one first) with fresh filter memory, decode the Q8
    /// weight, build the path and seat the flow in the engine under the
    /// slot's id. One implementation, so migrated flows can never diverge
    /// from freshly started ones in weight or path rules. The token must
    /// be fresh and the endpoint fields validated by the caller.
    fn register(&mut self, flow: FlowMigration) {
        let entry = Slot {
            flow,
            last_sent: None,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                // The table never outgrows the peak live-flow count,
                // which the 24-bit token space bounds far below u32.
                self.slots.push(entry);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(flow.token, slot);
        let weight = if flow.weight_q8 == 0 {
            self.cfg.default_weight
        } else {
            flow.weight_q8 as f64 / 256.0
        };
        let (src, dst) = (flow.src as usize, flow.dst as usize);
        let path = self.fabric.path_via_spine(src, dst, flow.spine as usize);
        self.engine
            .add_flow(FlowId(slot.into()), src, dst, weight, &path);
    }

    /// Number of active flowlets.
    pub fn active_flows(&self) -> usize {
        self.index.len()
    }

    /// Operating counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Cumulative per-phase wall time (intake / allocate / export; this
    /// unsharded service has no exchange phase).
    pub fn phase_timings(&self) -> PhaseTimings {
        self.timings
    }

    /// The fabric this allocator serves.
    pub fn fabric(&self) -> &TwoTierClos {
        &self.fabric
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> FlowtuneConfig {
        self.cfg
    }

    /// The engine's own per-link loads (raw rates summed per global link;
    /// see [`RateAllocator::link_loads_into`]). Empty for engines that do
    /// not price fabric links. Telemetry path — allocates.
    pub fn link_loads(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.link_loads_into(&mut out);
        out
    }

    /// [`AllocatorService::link_loads`] into a caller-provided buffer
    /// (see [`RateAllocator::link_loads_into`]) — the allocation-free
    /// export the sharded exchange calls every round.
    pub fn link_loads_into(&self, out: &mut Vec<f64>) {
        self.engine.link_loads_into(out);
    }

    /// Installs an exogenous per-link load the engine prices alongside
    /// its own flows (see [`RateAllocator::set_background_loads`]) — the
    /// import half of the sharded control plane's link-state exchange.
    pub fn set_background_loads(&mut self, loads: &[f64]) {
        self.engine.set_background_loads(loads);
    }

    /// The engine's own per-link Hessian diagonal into a caller-provided
    /// buffer (see [`RateAllocator::link_hessians_into`]). Left empty by
    /// engines without a second-order price term.
    pub fn link_hessians_into(&self, out: &mut Vec<f64>) {
        self.engine.link_hessians_into(out);
    }

    /// Installs the exogenous per-link Hessian diagonal accompanying the
    /// background loads (see [`RateAllocator::set_background_hessians`]).
    pub fn set_background_hessians(&mut self, hdiag: &[f64]) {
        self.engine.set_background_hessians(hdiag);
    }

    /// Every flow's current allocation into a caller-provided buffer
    /// (cleared first) — the allocation-free steady-state export (see
    /// [`RateAllocator::rates_into`]).
    pub fn rates_into(&self, out: &mut Vec<FlowRate>) {
        self.engine.rates_into(out);
    }

    /// The engine's current per-link duals into a caller-provided buffer
    /// (see [`RateAllocator::link_prices_into`]). Left empty by engines
    /// that do not price fabric links.
    pub fn link_prices_into(&self, out: &mut Vec<f64>) {
        self.engine.link_prices_into(out);
    }

    /// Overwrites the engine's per-link duals with consensus values;
    /// `NaN` entries keep the current price (see
    /// [`RateAllocator::set_link_prices`]).
    pub fn set_link_prices(&mut self, prices: &[f64]) {
        self.engine.set_link_prices(prices);
    }

    /// The engine's short name (`serial` / `multicore` / `fastpass` /
    /// `gradient`).
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Read access to the engine, for engine-specific telemetry.
    pub fn engine(&self) -> &E {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TickDriver;
    use flowtune_topo::ClosConfig;

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::paper_eval())
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

    #[test]
    fn single_flow_gets_headroom_scaled_line_rate() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        // A handful of 10 µs ticks converge the only flow to line rate
        // × 0.99 headroom.
        let mut last = Vec::new();
        for _ in 0..200 {
            last = svc.tick();
        }
        let rate = svc.flow_rate_gbps(Token::new(1)).unwrap();
        assert!((rate - 9.9).abs() < 0.05, "rate {rate}");
        // Converged ⇒ the filter suppresses further updates.
        assert!(last.is_empty(), "{last:?}");
    }

    #[test]
    fn updates_route_to_the_source_server() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 17, 99)).unwrap();
        let updates = svc.tick();
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].0, 17);
    }

    #[test]
    fn two_flows_share_fairly_and_end_frees() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        svc.on_message(start(2, 1, 141)).unwrap(); // same rack 0 → shares nothing
        for _ in 0..100 {
            svc.tick();
        }
        // Different sources/destinations: both get full line rate.
        assert!((svc.flow_rate_gbps(Token::new(1)).unwrap() - 9.9).abs() < 0.05);
        assert!((svc.flow_rate_gbps(Token::new(2)).unwrap() - 9.9).abs() < 0.05);

        // Now two flows from the same source share its access link.
        svc.on_message(start(3, 0, 100)).unwrap();
        for _ in 0..200 {
            svc.tick();
        }
        let r1 = svc.flow_rate_gbps(Token::new(1)).unwrap();
        let r3 = svc.flow_rate_gbps(Token::new(3)).unwrap();
        assert!((r1 - 4.95).abs() < 0.1, "shared uplink: {r1}");
        assert!((r3 - 4.95).abs() < 0.1, "shared uplink: {r3}");

        svc.on_message(Message::FlowletEnd {
            token: Token::new(3),
        })
        .unwrap();
        for _ in 0..200 {
            svc.tick();
        }
        let r1 = svc.flow_rate_gbps(Token::new(1)).unwrap();
        assert!((r1 - 9.9).abs() < 0.05, "back to line rate: {r1}");
        assert_eq!(svc.active_flows(), 2);
    }

    #[test]
    fn threshold_suppresses_steady_state_updates() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        for _ in 0..100 {
            svc.tick();
        }
        let before = svc.stats().updates_sent;
        for _ in 0..100 {
            let updates = svc.tick();
            assert!(updates.is_empty());
        }
        assert_eq!(svc.stats().updates_sent, before);
        assert!(svc.stats().updates_suppressed > 0);
    }

    #[test]
    fn unknown_end_is_ignored() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(Message::FlowletEnd {
            token: Token::new(9),
        })
        .unwrap();
        assert_eq!(svc.active_flows(), 0);
        assert_eq!(svc.stats().ends, 0);
    }

    #[test]
    fn byte_accounting_matches_wire_sizes() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        svc.on_message(Message::FlowletEnd {
            token: Token::new(1),
        })
        .unwrap();
        assert_eq!(svc.stats().bytes_in, 16 + 4);
    }

    #[test]
    fn duplicate_active_token_is_rejected_not_fatal() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        let err = svc.on_message(start(1, 2, 141)).unwrap_err();
        assert_eq!(err, ServiceError::DuplicateToken(Token::new(1)));
        assert_eq!(svc.stats().rejected, 1);
        assert_eq!(svc.stats().starts, 1, "original registration kept");
        // The service still operates: the original flow converges.
        for _ in 0..100 {
            svc.tick();
        }
        assert!(svc.flow_rate_gbps(Token::new(1)).unwrap() > 9.0);
    }

    #[test]
    fn corrupt_endpoint_fields_are_rejected_not_fatal() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        let mk = |token: u32, src: u16, dst: u16, spine: u8| Message::FlowletStart {
            token: Token::new(token),
            src,
            dst,
            size_hint: 1,
            weight_q8: 256,
            spine,
        };
        // src == dst, endpoint out of range, spine out of range: each a
        // rejection, none a panic.
        for (i, msg) in [
            mk(1, 5, 5, 1),
            mk(2, 9999, 0, 1),
            mk(3, 0, 9999, 1),
            mk(4, 0, 140, 200),
        ]
        .into_iter()
        .enumerate()
        {
            let err = svc.on_message(msg).unwrap_err();
            assert!(matches!(err, ServiceError::MalformedStart(_)), "{err}");
            assert_eq!(svc.stats().rejected, i as u64 + 1);
        }
        assert_eq!(svc.active_flows(), 0);
        // The service is unharmed: a valid start still converges.
        svc.on_message(start(5, 0, 140)).unwrap();
        for _ in 0..100 {
            svc.tick();
        }
        assert!(svc.flow_rate_gbps(Token::new(5)).unwrap() > 9.0);
    }

    #[test]
    fn rate_update_to_allocator_is_rejected() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        let msg = Message::RateUpdate {
            token: Token::new(5),
            rate: Rate16::encode(1.0),
        };
        assert_eq!(svc.on_message(msg), Err(ServiceError::UnexpectedRateUpdate));
        assert_eq!(svc.stats().rejected, 1);
    }

    #[test]
    fn builder_requires_a_fabric() {
        let err = AllocatorService::builder().build().unwrap_err();
        assert_eq!(err, ServiceError::MissingFabric);
    }

    #[test]
    fn builder_overrides_reach_the_config() {
        let svc = AllocatorService::builder()
            .fabric(&fabric())
            .gamma(0.7)
            .update_threshold(0.02)
            .iterations_per_tick(3)
            .f_norm(true)
            .build()
            .unwrap();
        assert_eq!(svc.cfg.gamma, 0.7);
        assert_eq!(svc.cfg.update_threshold, 0.02);
        assert_eq!(svc.cfg.iterations_per_tick, 3);
        assert_eq!(svc.engine_name(), "serial");
    }

    #[test]
    fn grouped_exchange_config_reaches_the_flat_config() {
        let svc = AllocatorService::builder()
            .fabric(&fabric())
            .exchange(crate::ExchangeConfig::default().every(4).delta_eps(1e-6))
            .build()
            .unwrap();
        assert_eq!(svc.cfg.exchange_every, 4);
        assert_eq!(svc.cfg.exchange_delta_eps, 1e-6);
    }

    #[test]
    fn engine_parse_roundtrips_names() {
        for engine in [
            Engine::Serial,
            Engine::Multicore { workers: 0 },
            Engine::Fastpass,
            Engine::Gradient,
        ] {
            assert_eq!(Engine::parse(engine.name()), Ok(engine));
        }
    }

    #[test]
    fn engine_parse_error_lists_valid_names() {
        let err = Engine::parse("warp-drive").unwrap_err();
        assert_eq!(err.got(), "warp-drive");
        let msg = err.to_string();
        assert!(msg.contains("unknown engine `warp-drive`"), "{msg}");
        for name in ENGINE_NAMES {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
    }

    #[test]
    fn sharded_engine_needs_the_driver_constructor() {
        let err = AllocatorService::builder()
            .fabric(&fabric())
            .engine(Engine::Serial.sharded(2))
            .build()
            .unwrap_err();
        assert_eq!(err, ServiceError::ShardedNeedsDriver);
    }

    #[test]
    fn build_driver_rejects_degenerate_shard_specs() {
        let err = AllocatorService::builder()
            .fabric(&fabric())
            .engine(Engine::Serial.sharded(0))
            .build_driver()
            .unwrap_err();
        assert!(matches!(err, ServiceError::BadShards(_)), "{err}");
        let err = AllocatorService::builder()
            .fabric(&fabric())
            .engine(Engine::Serial.sharded(2).sharded(2))
            .build_driver()
            .unwrap_err();
        assert!(matches!(err, ServiceError::BadShards(_)), "{err}");
    }

    #[test]
    fn build_driver_builds_plain_and_sharded_services() {
        let f = fabric();
        for (engine, name) in [
            (Engine::Serial, "serial"),
            (Engine::Gradient, "gradient"),
            (Engine::Serial.sharded(3), "sharded"),
        ] {
            let mut drv = AllocatorService::builder()
                .fabric(&f)
                .engine(engine)
                .build_driver()
                .unwrap();
            assert_eq!(drv.engine_name(), name);
            drv.on_message(start(1, 0, 140)).unwrap();
            let updates = drv.tick();
            assert_eq!(updates.len(), 1);
            assert_eq!(updates[0].0, 0);
        }
    }

    fn end(token: u32) -> Message {
        Message::FlowletEnd {
            token: Token::new(token),
        }
    }

    fn updates_for(updates: &[(u16, Message)], token: u32) -> usize {
        updates
            .iter()
            .filter(|(_, m)| matches!(m, Message::RateUpdate { token: t, .. } if *t == Token::new(token)))
            .count()
    }

    #[test]
    fn reused_token_gets_a_fresh_update() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        let mut last_sent = None;
        for _ in 0..200 {
            if updates_for(&svc.tick(), 1) == 1 {
                last_sent = svc.flow_rate_gbps(Token::new(1));
            }
        }
        let last_sent = last_sent.unwrap();
        svc.on_message(end(1)).unwrap();
        // Same token, same path: the converged prices hand the new
        // flowlet the old flowlet's rate on its first tick, so filter
        // memory left over from the old flowlet would suppress it.
        svc.on_message(start(1, 0, 140)).unwrap();
        let updates = svc.tick();
        let rate = svc.flow_rate_gbps(Token::new(1)).unwrap();
        let threshold = svc.config().update_threshold;
        assert!(
            (rate - last_sent).abs() <= threshold * last_sent,
            "{rate} vs {last_sent}"
        );
        assert_eq!(updates_for(&updates, 1), 1, "{updates:?}");
    }

    /// One tick, checked: updates leave in strictly ascending token
    /// order, each routed to its flow's source and carrying its current
    /// rate, and every active flow is counted sent or suppressed.
    fn checked_tick(svc: &mut DynAllocatorService, name: &str) -> Vec<u32> {
        let before = svc.stats();
        let updates = svc.tick();
        let after = svc.stats();
        let mut tokens = Vec::new();
        for &(src, msg) in &updates {
            let Message::RateUpdate { token, rate } = msg else {
                panic!("{name}: export emitted {msg:?}");
            };
            assert_eq!(svc.flow_source(token), Some(src), "{name}: {token:?}");
            let gbps = svc.flow_rate_gbps(token).unwrap();
            assert_eq!(rate, Rate16::encode(gbps), "{name}: {token:?}");
            tokens.push(token.get());
        }
        assert!(
            tokens.windows(2).all(|w| w[0] < w[1]),
            "{name}: not in ascending token order: {tokens:?}"
        );
        let considered = |s: ServiceStats| s.updates_sent + s.updates_suppressed;
        assert_eq!(
            considered(after) - considered(before),
            svc.active_flows() as u64,
            "{name}"
        );
        tokens
    }

    #[test]
    fn updates_leave_in_token_order_whatever_the_drain_order() {
        // Four FlowBlocks of two racks of four servers.
        let f = TwoTierClos::build(ClosConfig::multicore(4, 2, 4));
        for name in ENGINE_NAMES {
            let mut svc = AllocatorService::builder()
                .fabric(&f)
                .engine(Engine::parse(name).unwrap())
                .update_threshold(0.0)
                .build()
                .unwrap();
            // Descending tokens in ascending slots, one flow from every
            // server, most of them crossing blocks.
            let token_of = |i: u32| 1000 - 10 * i;
            for i in 0..32u32 {
                let (src, dst) = (i as u16, ((7 * i + 5) % 32) as u16);
                let mut msg = start(token_of(i), src, dst);
                if let Message::FlowletStart { spine, .. } = &mut msg {
                    *spine = (i % 4) as u8;
                }
                svc.on_message(msg).unwrap();
            }
            let first = checked_tick(&mut svc, name);
            assert_eq!(first.len(), 32, "{name}: every first rate is sent");
            for _ in 0..4 {
                checked_tick(&mut svc, name);
            }
            // End every third flow and reuse its slot under a token that
            // lands elsewhere in the order: some below every live token,
            // some between live ones.
            let mut fresh = Vec::new();
            for i in (0..32u32).step_by(3) {
                svc.on_message(end(token_of(i))).unwrap();
                let token = if i % 2 == 0 { 1 + i } else { token_of(i) + 5 };
                let (src, dst) = (((i + 16) % 32) as u16, i as u16);
                svc.on_message(start(token, src, dst)).unwrap();
                fresh.push(token);
            }
            assert_eq!(svc.slots.len(), 32, "{name}: the new flows reuse slots");
            let sent = checked_tick(&mut svc, name);
            for token in fresh {
                assert!(sent.contains(&token), "{name}: {token} gets its first rate");
            }
            for _ in 0..4 {
                checked_tick(&mut svc, name);
            }
        }
    }

    #[test]
    fn a_reused_slot_serves_its_new_flow_on_every_engine() {
        for engine in [
            Engine::Serial,
            Engine::Multicore { workers: 0 },
            Engine::Fastpass,
            Engine::Gradient,
        ] {
            let name = engine.name();
            let mut svc = AllocatorService::builder()
                .fabric(&fabric())
                .engine(engine)
                .build()
                .unwrap();
            svc.on_message(start(1, 0, 140)).unwrap();
            svc.tick();
            svc.on_message(end(1)).unwrap();
            svc.on_message(start(2, 3, 77)).unwrap();
            assert_eq!(svc.index[&Token::new(2)], 0, "{name}: B reuses FlowId(0)");
            let updates = svc.tick();
            assert_eq!(updates_for(&updates, 2), 1, "{name}: {updates:?}");
            assert_eq!(updates[0].0, 3, "{name}: routed to B's source");
            assert!(svc.flow_rate_gbps(Token::new(2)).is_some(), "{name}");
            assert!(svc.flow_rate_gbps(Token::new(1)).is_none(), "{name}");
            assert_eq!(svc.active_flows(), 1, "{name}");
        }
    }
}
