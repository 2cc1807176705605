//! The seeded workloads and the endpoint side of the benchmark: a
//! notification schedule indexed by tick, and a fluid data plane in
//! which every flowlet drains at the rate its last `RateUpdate` carried.
//!
//! The load is closed-loop in wall time and open-loop in simulated
//! time. Tick `k`'s batch (the ends the drain produced after tick
//! `k − 1`, then the starts due by `k · 10 µs`) is delivered once tick
//! `k − 1` has returned; the schedule of starts is fixed by the seed
//! and the ends follow from the allocator's deterministic arithmetic,
//! so every count a run reports repeats exactly for a seed.

use std::collections::{BTreeSet, HashMap};

use flowtune::FlowtuneConfig;
use flowtune_proto::{Message, Token};
use flowtune_topo::clos::splitmix64;
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};
use flowtune_workload::{
    FlowletEvent, RackAffinity, TraceConfig, TraceGenerator, Workload as SizeCdf,
};

use crate::plane::PlaneKind;

/// The sweep period every measurement is rounded to, in ticks.
pub const PERIOD: u64 = 64;

/// The benchmark's workloads.
pub const NAMES: [&str; 5] = [
    "web_churn",
    "web_churn_inc",
    "steady_100k",
    "xshard_inproc",
    "xshard_uds",
];

/// One workload's parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The fabric.
    pub clos: ClosConfig,
    /// The control plane's configuration.
    pub cfg: FlowtuneConfig,
    /// How the control plane is assembled.
    pub plane: PlaneKind,
    /// Poisson flowlet trace: (offered load, rack-affine destinations).
    pub trace: Option<(f64, bool)>,
    /// Long-lived flows loaded during set-up.
    pub long_lived: usize,
    /// Every this many ticks one long-lived flow ends and one flowlet of
    /// `churn_bytes` starts (0 = no scheduled churn).
    pub churn_every: u64,
    /// Size of each churn flowlet, bytes.
    pub churn_bytes: u64,
    /// Set-up ticks after the initial load (part of `setup_s`).
    pub warmup_ticks: u64,
    /// Length of the deterministic window that starts right after
    /// warm-up: every count the run reports is taken over it.
    pub window_ticks: u64,
    /// Over-allocation is sampled every this many window ticks.
    pub sample_every: u64,
    /// The normalized-rate capacity check runs every this many window
    /// ticks.
    pub check_every: u64,
    /// Set-up repetitions per run (`setup_s` is their median).
    pub setups: usize,
}

impl Spec {
    /// The named workload at full size.
    pub fn named(name: &str) -> Option<Spec> {
        // 8 racks × 16 servers, 4 spines, 10G hosts / 40G fabric: the
        // paper's evaluation fabric with a rack count two shards split.
        let web_fabric = ClosConfig {
            racks: 8,
            racks_per_block: 8,
            ..ClosConfig::paper_eval()
        };
        let web = Spec {
            name: "web_churn",
            clos: web_fabric,
            cfg: FlowtuneConfig::default(),
            plane: PlaneKind::Single,
            trace: Some((0.6, false)),
            long_lived: 0,
            churn_every: 0,
            churn_bytes: 0,
            warmup_ticks: 4096,
            window_ticks: 131_072,
            sample_every: 16,
            check_every: 16,
            setups: 9,
        };
        let sharded = |name, plane| Spec {
            name,
            cfg: FlowtuneConfig {
                exchange_every: 1,
                parallel_shards: true,
                ..FlowtuneConfig::default()
            },
            plane,
            trace: Some((0.6, true)),
            window_ticks: 16384,
            setups: 3,
            ..web.clone()
        };
        Some(match name {
            "web_churn" => web,
            "web_churn_inc" => Spec {
                name: "web_churn_inc",
                cfg: FlowtuneConfig {
                    incremental: true,
                    ..FlowtuneConfig::default()
                },
                ..web
            },
            "steady_100k" => Spec {
                name: "steady_100k",
                clos: ClosConfig::multicore(4, 2, 16),
                cfg: FlowtuneConfig {
                    incremental: true,
                    dirty_eps: 1e-9,
                    full_sweep_every: PERIOD,
                    ..FlowtuneConfig::default()
                },
                trace: None,
                long_lived: 100_000,
                churn_every: PERIOD,
                churn_bytes: 16_000,
                warmup_ticks: 2 * PERIOD,
                window_ticks: 12 * PERIOD,
                sample_every: 8,
                check_every: PERIOD,
                setups: 3,
                ..web
            },
            "xshard_inproc" => sharded("xshard_inproc", PlaneKind::Sharded(2)),
            "xshard_uds" => sharded("xshard_uds", PlaneKind::Uds(2)),
            _ => return None,
        })
    }

    /// A tiny version of the workload for self-tests: same planes and
    /// code paths, a fraction of the flows and ticks.
    #[cfg(test)]
    pub fn smoke(mut self) -> Spec {
        self.long_lived = self.long_lived.min(2_000);
        self.warmup_ticks = PERIOD;
        self.window_ticks = 2 * PERIOD;
        self.check_every = self.check_every.min(PERIOD);
        self.setups = 1;
        self
    }

    /// The configuration this workload must match bit for bit, if any:
    /// the other sharded backend on identical inputs, or the full sweep
    /// for an incremental engine at `dirty_eps = 0`.
    pub fn twin(&self) -> Option<Spec> {
        let plane = match self.plane {
            PlaneKind::Sharded(n) => PlaneKind::Uds(n),
            PlaneKind::Uds(n) => PlaneKind::Sharded(n),
            PlaneKind::Single if self.cfg.incremental && self.cfg.dirty_eps == 0.0 => {
                return Some(Spec {
                    cfg: FlowtuneConfig {
                        incremental: false,
                        ..self.cfg
                    },
                    ..self.clone()
                });
            }
            PlaneKind::Single => return None,
        };
        Some(Spec {
            plane,
            ..self.clone()
        })
    }

    /// One line of the workload's parameters for the result stamp.
    pub fn describe(&self) -> String {
        let c = &self.clos;
        let trace = match self.trace {
            Some((load, affine)) => format!(
                "facebook-web poisson load={load} destinations={}",
                if affine {
                    "rack-affine(heavy)"
                } else {
                    "uniform"
                }
            ),
            None => "none".into(),
        };
        format!(
            "servers={} racks={}x{} spines={} host_gbps={} fabric_gbps={} trace=[{trace}] \
             long_lived={} churn_every={} churn_bytes={} shards={} plane={:?} \
             exchange_every={} parallel_shards={} incremental={} dirty_eps={} \
             full_sweep_every={} warmup_ticks={} window_ticks={} setups={}",
            c.server_count(),
            c.racks,
            c.servers_per_rack,
            c.spines,
            c.host_link_bps / 1_000_000_000,
            c.fabric_link_bps / 1_000_000_000,
            self.long_lived,
            self.churn_every,
            self.churn_bytes,
            self.plane.shards(),
            self.plane,
            self.cfg.exchange_every,
            self.cfg.parallel_shards,
            self.cfg.incremental,
            self.cfg.dirty_eps,
            self.cfg.full_sweep_every,
            self.warmup_ticks,
            self.window_ticks,
            self.setups,
        )
    }
}

/// The endpoint view of one active flow.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Source server.
    pub src: u16,
    /// Destination server.
    pub dst: u16,
    /// ECMP spine the start announced.
    pub spine: u8,
    /// Pacing rate from the flow's last `RateUpdate`, Gbit/s.
    pub rate_gbps: f64,
    /// Bytes left to send (infinite for long-lived flows).
    pub remaining: f64,
    /// Tick whose batch delivered the start.
    pub start_tick: u64,
    /// Whether a `RateUpdate` has reached the endpoint yet.
    pub got_update: bool,
}

/// The notification generator and fluid data plane.
#[derive(Debug)]
pub struct Gen {
    trace: Option<TraceGenerator>,
    pending: Option<FlowletEvent>,
    rng: u64,
    servers: usize,
    interval_ps: u64,
    churn_every: u64,
    churn_bytes: u64,
    /// Long-lived flows tick 0's batch loads.
    initial: usize,
    /// Every active flow, by token.
    pub flows: HashMap<u32, Flow>,
    /// Active flows that drain (ascending token order).
    finite: BTreeSet<u32>,
    /// Active long-lived flows, for the churn pick.
    long: Vec<u32>,
    next_token: u32,
    /// Ends the last drain produced, delivered with the next batch.
    ends: Vec<u32>,
    /// Tokens started by the current batch.
    pub started: Vec<u32>,
    /// The current batch.
    pub batch: Vec<Message>,
}

/// One completed flowlet: (start tick, completion tick).
pub type Completion = (u64, u64);

impl Gen {
    /// A generator for `spec` with `seed`.
    pub fn new(spec: &Spec, seed: u64) -> Gen {
        let servers = spec.clos.server_count();
        let trace = spec.trace.map(|(load, affine)| {
            TraceGenerator::new(TraceConfig {
                workload: SizeCdf::Web,
                load,
                servers,
                server_link_bps: spec.clos.host_link_bps,
                seed,
                affinity: affine.then(RackAffinity::heavy),
            })
        });
        Gen {
            trace,
            pending: None,
            rng: splitmix64(seed ^ 0x005e_ed0f_c71b_e4c4),
            servers,
            interval_ps: spec.cfg.tick_interval_ps,
            churn_every: spec.churn_every,
            churn_bytes: spec.churn_bytes,
            initial: spec.long_lived,
            flows: HashMap::new(),
            finite: BTreeSet::new(),
            long: Vec::new(),
            next_token: 0,
            ends: Vec::new(),
            started: Vec::new(),
            batch: Vec::new(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.rng)
    }

    fn random_pair(&mut self) -> (usize, usize) {
        let src = (self.next_u64() % self.servers as u64) as usize;
        let mut dst = (self.next_u64() % (self.servers as u64 - 1)) as usize;
        if dst >= src {
            dst += 1;
        }
        (src, dst)
    }

    fn start(&mut self, fabric: &TwoTierClos, src: usize, dst: usize, bytes: Option<u64>, k: u64) {
        let token = self.next_token & Token::MAX;
        self.next_token = self.next_token.wrapping_add(1) & Token::MAX;
        let spine = fabric.ecmp_spine(src, dst, FlowId(u64::from(token)));
        self.batch.push(Message::FlowletStart {
            token: Token::new(token),
            src: src as u16,
            dst: dst as u16,
            size_hint: bytes.unwrap_or(0).min(u64::from(u32::MAX)) as u32,
            weight_q8: 256,
            spine: spine as u8,
        });
        self.flows.insert(
            token,
            Flow {
                src: src as u16,
                dst: dst as u16,
                spine: spine as u8,
                rate_gbps: 0.0,
                remaining: bytes.map_or(f64::INFINITY, |b| b as f64),
                start_tick: k,
                got_update: false,
            },
        );
        match bytes {
            Some(_) => {
                self.finite.insert(token);
            }
            None => self.long.push(token),
        }
        self.started.push(token);
    }

    fn end(&mut self, token: u32) {
        self.batch.push(Message::FlowletEnd {
            token: Token::new(token),
        });
        self.flows.remove(&token);
        self.finite.remove(&token);
    }

    /// Builds tick `k`'s batch: the set-up load of long-lived flows (tick
    /// 0 only), the previous drain's ends, the scheduled churn, then the
    /// trace's starts due by `k` ticks.
    pub fn batch_for(&mut self, fabric: &TwoTierClos, k: u64) -> &[Message] {
        self.batch.clear();
        self.started.clear();
        if k == 0 {
            for _ in 0..self.initial {
                let (src, dst) = self.random_pair();
                self.start(fabric, src, dst, None, 0);
            }
        }
        let ends = std::mem::take(&mut self.ends);
        for &t in &ends {
            self.end(t);
        }
        self.ends = ends;
        self.ends.clear();
        if self.churn_every > 0
            && k > 0
            && k.is_multiple_of(self.churn_every)
            && !self.long.is_empty()
        {
            let pick = (self.next_u64() % self.long.len() as u64) as usize;
            let t = self.long.swap_remove(pick);
            self.end(t);
            let (src, dst) = self.random_pair();
            self.start(fabric, src, dst, Some(self.churn_bytes), k);
        }
        let now_ps = k * self.interval_ps;
        loop {
            let ev = match self.pending.take() {
                Some(ev) => ev,
                None => match self.trace.as_mut() {
                    Some(tr) => tr.next_event(),
                    None => break,
                },
            };
            if ev.at_ps > now_ps {
                self.pending = Some(ev);
                break;
            }
            self.start(fabric, ev.src as usize, ev.dst as usize, Some(ev.bytes), k);
        }
        &self.batch
    }

    /// Applies tick `k`'s update batch at the endpoints. Returns the
    /// first token started in this tick's batch that received no
    /// `RateUpdate` in it, if any.
    pub fn apply_updates(&mut self, updates: &[(u16, Message)]) -> Option<u32> {
        for (_, msg) in updates {
            if let Message::RateUpdate { token, rate } = msg {
                if let Some(f) = self.flows.get_mut(&token.get()) {
                    f.rate_gbps = rate.decode();
                    f.got_update = true;
                }
            }
        }
        first_update_missing(&self.started, &self.flows)
    }

    /// Drains every finite flow for one tick at its pacing rate; flows
    /// that finish end with the next batch. Completions are appended to
    /// `done` as (start tick, completion tick).
    pub fn drain(&mut self, k: u64, done: &mut Vec<Completion>) {
        let secs = self.interval_ps as f64 / 1e12;
        for &t in &self.finite {
            let f = self.flows.get_mut(&t).expect("finite flows are active");
            f.remaining -= f.rate_gbps * 1e9 / 8.0 * secs;
            if f.remaining <= 0.0 {
                self.ends.push(t);
                done.push((f.start_tick, k + 1));
            }
        }
    }

    /// Active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }
}

/// The first flow in `started` whose endpoint has not received a
/// `RateUpdate` yet.
pub fn first_update_missing(started: &[u32], flows: &HashMap<u32, Flow>) -> Option<u32> {
    started
        .iter()
        .copied()
        .find(|t| flows.get(t).is_some_and(|f| !f.got_update))
}
