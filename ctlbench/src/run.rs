//! One benchmark run: set-up (repeated, timed), the measured tick loop,
//! the deterministic window's counts, the off-clock checks, and — for
//! the `xshard_*` workloads — a replay on the other sharded backend.

use std::time::{Duration, Instant};

use flowtune::{merge_by_token_into, ServiceStats};
use flowtune_proto::Message;
use flowtune_topo::TwoTierClos;

use crate::checks::{self, Det};
use crate::hist::LogHist;
use crate::plane::{Plane, PlaneKind};
use crate::trace::{Name, Tracer, NONE};
use crate::workload::{Completion, Gen, Spec, PERIOD};

/// Per-layer accumulators over the traced ticks (counter deltas read
/// off the clock, before and after each traced tick).
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced ticks.
    pub ticks: u64,
    /// Notifications delivered in traced ticks.
    pub msgs: u64,
    /// Engine iterations, summed over shards, ns.
    pub alloc_ns: f64,
    /// Update export, summed over shards, ns.
    pub export_ns: f64,
    /// Engine time on full-sweep ticks, summed over shards, ns.
    pub full_sweep_ns: f64,
    /// Full-sweep ticks seen.
    pub full_sweeps: u64,
    /// Σ over ticks of the slowest shard's allocate + export, ns.
    pub shard_max_ns: f64,
    /// Σ over ticks of every shard's allocate + export, ns.
    pub shard_sum_ns: f64,
    /// The in-process routing layer's exchange barrier, ns.
    pub exchange_ns: f64,
    /// Flows the export considered (sent plus suppressed).
    pub considered: u64,
    /// The in-process merge, replayed off the clock on the tick's
    /// stream split back into per-shard streams, ns.
    pub merge_replay_ns: f64,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunOut {
    /// Per-tick wall time of the untraced ticks.
    pub hist: LogHist,
    /// Per-tick wall time of the traced ticks (`--trace 1` only).
    pub hist_traced: LogHist,
    /// Notifications delivered plus ticks run in the measured loop.
    pub attempted: u64,
    /// Rejected notifications plus errored ticks.
    pub failed: u64,
    /// Rejected notifications.
    pub rejected: u64,
    /// The deterministic window's counts.
    pub det: Det,
    /// Each set-up's wall time, s.
    pub setup_s: Vec<f64>,
    /// Peak resident memory of the process, MB.
    pub rss_mb: f64,
    /// Violated checks, named.
    pub failures: Vec<String>,
    /// The span recorder (empty unless `--trace 1`).
    pub tracer: Tracer,
    /// Per-layer accumulators.
    pub layers: Layers,
    /// Measured ticks.
    pub ticks: u64,
    /// Exchange frames that failed to decode, measured loop.
    pub decode_errors: u64,
    /// Wire transmit bytes and receive frames over the measured loop,
    /// and the peak rounds-behind at its end.
    pub wire: (u64, u64, u64),
}

/// The window's in-progress accounting.
#[derive(Debug)]
struct Window {
    start: u64,
    end: u64,
    det: Det,
    s0: ServiceStats,
}

/// A control plane with its generator and scratch.
struct Ctx {
    spec: Spec,
    fabric: TwoTierClos,
    /// Link capacities, Gbit/s.
    caps: Vec<f64>,
    plane: Plane,
    gen: Gen,
    updates: Vec<(u16, Message)>,
    done: Vec<Completion>,
    rejected: u64,
    msgs: u64,
    failures: Vec<String>,
}

impl Ctx {
    fn build(spec: &Spec, seed: u64) -> Result<Ctx, String> {
        let fabric = TwoTierClos::build(spec.clos.clone());
        let plane = Plane::build(spec.plane, &fabric, spec.cfg)?;
        Ok(Ctx {
            spec: spec.clone(),
            caps: checks::capacities_gbps(&fabric),
            gen: Gen::new(spec, seed),
            fabric,
            plane,
            updates: Vec::new(),
            done: Vec::new(),
            rejected: 0,
            msgs: 0,
            failures: Vec::new(),
        })
    }

    /// Delivers tick `k`'s batch and runs the tick; returns the wall time
    /// from delivery of the batch to return of the update batch, ns.
    fn tick(&mut self, k: u64, tr: &mut Tracer) -> Result<u64, String> {
        let Ctx {
            fabric,
            plane,
            gen,
            updates,
            rejected,
            msgs,
            spec,
            ..
        } = self;
        let batch = gen.batch_for(fabric, k);
        let now_ps = k * spec.cfg.tick_interval_ps;
        let t0 = Instant::now();
        let root = tr.open(Name::Tick, 0, NONE, k);
        let intake = tr.open(Name::Intake, 0, root, k);
        for &msg in batch {
            if plane.deliver(msg).is_err() {
                *rejected += 1;
            }
        }
        tr.close(intake);
        let ticked = plane.tick(now_ps, k, tr, root, updates);
        tr.close(root);
        let ns = t0.elapsed().as_nanos() as u64;
        *msgs += batch.len() as u64;
        ticked.map(|()| ns)
    }

    fn fail(&mut self, e: String) {
        // One report per check is enough to name it.
        let name = e.split(':').next().unwrap_or_default().to_string();
        if !self.failures.iter().any(|f| f.starts_with(&name)) {
            self.failures.push(e);
        }
    }

    /// The endpoint side of tick `k`, off the clock: apply the updates,
    /// check first updates, account the window, drain.
    fn settle(&mut self, k: u64, window: &mut Window) {
        let missing = self.gen.apply_updates(&self.updates);
        if let Err(e) = checks::first_update_same_tick(missing, k) {
            self.fail(e);
        }
        if (window.start..window.end).contains(&k) {
            let det = &mut window.det;
            det.digest = checks::digest(det.digest, k, &self.updates);
            det.updates += self.updates.len() as u64;
            det.update_bytes += self
                .updates
                .iter()
                .map(|(_, m)| m.encoded_len() as u64)
                .sum::<u64>();
            let offset = k - window.start;
            if offset.is_multiple_of(self.spec.sample_every) {
                let loads = self.plane.link_loads();
                det.overalloc_samples
                    .push(checks::overalloc_gbps(&loads, &self.caps));
            }
            if offset.is_multiple_of(self.spec.check_every) {
                let loads = checks::normalized_loads(&self.plane, &self.gen, &self.fabric);
                if let Err(e) = checks::no_oversubscription(&loads, &self.caps, k) {
                    self.fail(e);
                }
            }
        }
        self.gen.drain(k, &mut self.done);
        for (s, c) in self.done.drain(..) {
            if s >= window.start && c <= window.end {
                *window.det.fct_ticks.entry(c - s).or_default() += 1;
            }
        }
        if k + 1 == window.end {
            let s1 = self.plane.stats();
            let s0 = window.s0;
            let det = &mut window.det;
            det.dirty_flows = s1.dirty_flows - s0.dirty_flows;
            det.dirty_links = s1.dirty_links - s0.dirty_links;
            det.considered = (s1.updates_sent + s1.updates_suppressed)
                - (s0.updates_sent + s0.updates_suppressed);
            det.exchange_bytes = s1.exchange_bytes - s0.exchange_bytes;
            det.exchange_rounds = s1.exchange_rounds - s0.exchange_rounds;
        }
        // Dropped here, off the clock; the wire plane reuses its buffer.
        match self.plane {
            Plane::Wire(_) => self.updates.clear(),
            _ => self.updates = Vec::new(),
        }
    }
}

impl Window {
    fn new(spec: &Spec) -> Window {
        Window {
            start: spec.warmup_ticks,
            end: spec.warmup_ticks + spec.window_ticks,
            det: Det {
                digest: checks::DIGEST_SEED,
                ..Det::default()
            },
            s0: ServiceStats::default(),
        }
    }
}

/// Builds the plane and runs the warm-up ticks (the whole of set-up).
fn setup(spec: &Spec, seed: u64, window: &mut Window) -> Result<Ctx, String> {
    let mut ctx = Ctx::build(spec, seed)?;
    let mut idle = Tracer::new();
    for k in 0..spec.warmup_ticks {
        ctx.tick(k, &mut idle)?;
        ctx.settle(k, window);
    }
    Ok(ctx)
}

/// Runs `spec` untimed from tick 0 through the deterministic window
/// and returns its counts (the twin check).
fn replay(spec: &Spec, seed: u64) -> Result<(Det, Vec<String>), String> {
    let mut window = Window::new(spec);
    let mut ctx = setup(spec, seed, &mut window)?;
    let mut idle = Tracer::new();
    window.s0 = ctx.plane.stats();
    for k in window.start..window.end {
        ctx.tick(k, &mut idle)?;
        ctx.settle(k, &mut window);
    }
    Ok((window.det, ctx.failures))
}

/// Spans one tick records on `kind`.
fn spans_per_tick(kind: PlaneKind) -> usize {
    match kind {
        PlaneKind::Single | PlaneKind::Sharded(_) => 3,
        PlaneKind::Uds(n) => 3 + 2 * n,
    }
}

/// Peak resident set of this process, MB (from `/proc/self/status`).
fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Reads the per-shard counters around one traced tick.
fn observe(
    layers: &mut Layers,
    ctx: &Ctx,
    before: &(crate::plane::Timings, ServiceStats),
    msgs: u64,
) {
    let (t0, s0) = before;
    let t1 = ctx.plane.timings();
    let s1 = ctx.plane.stats();
    layers.ticks += 1;
    layers.msgs += msgs;
    let (mut max, mut sum, mut alloc) = (0.0f64, 0.0, 0.0);
    for (a, b) in t0.shards.iter().zip(&t1.shards) {
        let al = (b.allocate - a.allocate).as_nanos() as f64;
        let ex = (b.export - a.export).as_nanos() as f64;
        layers.alloc_ns += al;
        layers.export_ns += ex;
        alloc += al;
        max = max.max(al + ex);
        sum += al + ex;
    }
    layers.shard_max_ns += max;
    layers.shard_sum_ns += sum;
    layers.exchange_ns += (t1.exchange - t0.exchange).as_nanos() as f64;
    layers.considered +=
        (s1.updates_sent + s1.updates_suppressed) - (s0.updates_sent + s0.updates_suppressed);
    let full =
        !ctx.spec.cfg.incremental || s1.dirty_flows - s0.dirty_flows >= ctx.gen.active() as u64;
    if full {
        layers.full_sweeps += 1;
        layers.full_sweep_ns += alloc;
    }
    if let Plane::Sharded(_) = ctx.plane {
        // Split the merged stream back into per-shard streams and time
        // the merge the routing layer ran inside its tick.
        let shards = ctx.spec.plane.shards();
        let mut streams = vec![Vec::new(); shards];
        for &(dst, msg) in &ctx.updates {
            let token = match msg {
                Message::RateUpdate { token, .. } => token,
                _ => continue,
            };
            let s = ctx.plane.shard_of_token(token).unwrap_or(0);
            streams[s].push((dst, msg));
        }
        let mut out = Vec::with_capacity(ctx.updates.len());
        let t = Instant::now();
        merge_by_token_into(&mut streams, &mut out);
        layers.merge_replay_ns += t.elapsed().as_nanos() as f64;
    }
}

/// Runs `spec` with `seed`: `spec.setups` timed set-ups, then ticks for
/// at least `seconds` of wall time, in whole sweep periods, and at least
/// through the deterministic window.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<RunOut, String> {
    let mut setup_s = Vec::new();
    let mut built: Option<(Ctx, Window)> = None;
    for _ in 0..spec.setups.max(1) {
        drop(built.take());
        let t0 = Instant::now();
        let mut window = Window::new(spec);
        let ctx = setup(spec, seed, &mut window)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((ctx, window));
    }
    let (mut ctx, mut window) = built.expect("at least one set-up ran");

    let budget = Duration::from_secs_f64(seconds);
    let mut tr = Tracer::new();
    let mut hist = LogHist::new();
    let mut hist_traced = LogHist::new();
    let mut layers = Layers::default();
    let stats0 = ctx.plane.stats();
    let wire0 = ctx.plane.wire();
    let mut tick_errors = 0;
    let started = Instant::now();
    let mut k = window.start;
    window.s0 = stats0;
    loop {
        let offset = k - window.start;
        if offset.is_multiple_of(PERIOD) {
            if k >= window.end && started.elapsed() >= budget {
                break;
            }
            if trace {
                tr.on = (offset / PERIOD) % 2 == 1;
                if tr.on {
                    tr.reserve(PERIOD as usize * spans_per_tick(spec.plane));
                }
            }
        }
        let traced = tr.on;
        let before = traced.then(|| (ctx.plane.timings(), ctx.plane.stats()));
        let msgs0 = ctx.msgs;
        match ctx.tick(k, &mut tr) {
            Ok(ns) if traced => hist_traced.record(ns),
            Ok(ns) => hist.record(ns),
            Err(e) => {
                tick_errors += 1;
                ctx.failures.push(format!("tick_error: tick {k}: {e}"));
                break;
            }
        }
        if let Some(before) = &before {
            observe(&mut layers, &ctx, before, ctx.msgs - msgs0);
        }
        ctx.settle(k, &mut window);
        k += 1;
    }
    tr.on = false;
    let ticks = k - window.start;
    let stats1 = ctx.plane.stats();
    let wire1 = ctx.plane.wire();
    let rss_mb = rss_peak_mb()?;

    let mut failures = std::mem::take(&mut ctx.failures);
    let attempted = ctx.msgs + ticks + tick_errors;
    let failed = ctx.rejected + tick_errors;
    if let Err(e) = checks::failed_frac_zero(failed, attempted) {
        failures.push(e);
    }
    let rejected = ctx.rejected;
    drop(ctx);
    if let (Some(twin), true) = (spec.twin(), tick_errors == 0) {
        let (mut det, twin_failures) = replay(&twin, seed)?;
        if twin.cfg.incremental != spec.cfg.incremental {
            // Only an incremental engine counts recomputed flows and links.
            det.dirty_flows = window.det.dirty_flows;
            det.dirty_links = window.det.dirty_links;
        }
        for f in twin_failures {
            let name = f.split(':').next().unwrap_or_default();
            if !failures.iter().any(|g| g.starts_with(name)) {
                failures.push(f);
            }
        }
        if let Err(e) = checks::twins_identical(&window.det, &det) {
            failures.push(e);
        }
    }
    Ok(RunOut {
        hist,
        hist_traced,
        attempted,
        failed,
        rejected,
        det: window.det,
        setup_s,
        rss_mb,
        failures,
        tracer: tr,
        layers,
        ticks,
        decode_errors: stats1.exchange_decode_errors - stats0.exchange_decode_errors,
        wire: (wire1.0 - wire0.0, wire1.1 - wire0.1, wire1.2),
    })
}
