//! Criterion: Fastpass-style arbiter slot throughput — the per-packet
//! work the §6.1 comparison charges Fastpass for — plus the allocator
//! service's steady-state tick (the other side of the comparison).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flowtune::{AllocatorService, BoxTickDriver, Engine, FlowtuneConfig};
use flowtune_fastpass::Arbiter;
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, TwoTierClos};

fn bench_arbiter(c: &mut Criterion) {
    let mut group = c.benchmark_group("arbiter");
    for endpoints in [64usize, 256, 1024] {
        group.throughput(Throughput::Elements(endpoints as u64));
        group.bench_with_input(
            BenchmarkId::new("allocate_slot", endpoints),
            &endpoints,
            |b, &n| {
                let mut arb = Arbiter::new(n);
                b.iter(|| {
                    // Keep demand topped up so every slot does full work.
                    if arb.backlog() < n as u64 {
                        for s in 0..n as u16 {
                            arb.add_demand(s, ((s as usize + n / 2) % n) as u16, 64);
                        }
                    }
                    arb.allocate_slot()
                });
            },
        );
    }
    group.finish();
}

/// Guard for the per-tick registry walk: the service's steady-state tick
/// is `O(n)` over a sorted `BTreeMap` (it used to collect-and-sort every
/// token, `O(n log n)` per 10 µs tick). A regression here shows up as a
/// superlinear jump between the flow counts.
fn bench_service_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_tick");
    group.sample_size(10);
    let fabric = TwoTierClos::build(ClosConfig::paper_eval());
    let servers = fabric.config().server_count();
    for flows in [512usize, 4096] {
        let mut svc = AllocatorService::builder()
            .fabric(&fabric)
            .config(FlowtuneConfig::default())
            .engine(Engine::Serial)
            .build()
            .expect("fabric is set");
        for f in 0..flows {
            let src = (f * 7919) % servers;
            let mut dst = (f * 104_729 + 13) % servers;
            if dst == src {
                dst = (dst + 1) % servers;
            }
            let spine = fabric.ecmp_spine(src, dst, flowtune_topo::FlowId(f as u64));
            svc.on_message(Message::FlowletStart {
                token: Token::new(f as u32),
                src: src as u16,
                dst: dst as u16,
                size_hint: 1_000_000,
                weight_q8: 256,
                spine: spine as u8,
            })
            .expect("unique tokens");
        }
        // Converge first so the bench measures the suppressed-steady-state
        // walk, not transient update encoding.
        let mut updates = Vec::new();
        for _ in 0..200 {
            svc.tick_into(&mut updates);
        }
        group.throughput(Throughput::Elements(flows as u64));
        group.bench_with_input(BenchmarkId::new("steady_state", flows), &flows, |b, _| {
            b.iter(|| svc.tick_into(&mut updates))
        });
    }
    group.finish();
}

/// Loads `flows` pseudo-random flowlets into a driver and converges it.
fn loaded_driver(
    fabric: &TwoTierClos,
    engine: Engine,
    cfg: FlowtuneConfig,
    flows: usize,
) -> BoxTickDriver {
    let servers = fabric.config().server_count();
    let mut svc = AllocatorService::builder()
        .fabric(fabric)
        .config(cfg)
        .engine(engine)
        .build_driver()
        .expect("fabric is set");
    for f in 0..flows {
        let src = (f * 7919) % servers;
        let mut dst = (f * 104_729 + 13) % servers;
        if dst == src {
            dst = (dst + 1) % servers;
        }
        let spine = fabric.ecmp_spine(src, dst, flowtune_topo::FlowId(f as u64));
        svc.on_message(Message::FlowletStart {
            token: Token::new(f as u32),
            src: src as u16,
            dst: dst as u16,
            size_hint: 1_000_000,
            weight_q8: 256,
            spine: spine as u8,
        })
        .expect("unique tokens");
    }
    for _ in 0..200 {
        svc.tick();
    }
    svc
}

/// Per-engine steady-state tick latency through the service API, one row
/// per engine so every engine's tick cost is tracked in one table. The
/// multicore row is the §5 pool-backed engine — it must stay no worse
/// than the old scoped-spawn-per-call numbers (the pool exists to remove
/// spawn/join from this very path). The sharded rows run the real
/// `ShardedService` (2 shards over the fabric's 2 blocks) including its
/// k-way update merge; the `sharded2x1` row additionally pays a full
/// link-state exchange (sparse export + dual consensus) every tick — the
/// worst-case exchange overhead on the tick path. `sharded4seq` vs
/// `sharded4par` pins the concurrent-tick win: identical 4-shard work
/// ticked sequentially vs on per-shard OS threads (the parallel row only
/// beats the sequential one on multi-core hosts; the `service_tick`
/// *binary* gates that ratio in CI).
fn bench_service_tick_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_tick");
    group.sample_size(10);
    // Four blocks of two racks of 16: a fabric the multicore grid
    // (B² = 16 workers) and the 2- and 4-shard partitions all map onto
    // naturally.
    let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 16));
    let flows = 512usize;
    for (label, engine, exchange_every, parallel) in [
        ("serial", Engine::Serial, 0, None),
        ("multicore", Engine::Multicore { workers: 0 }, 0, None),
        ("fastpass", Engine::Fastpass, 0, None),
        ("gradient", Engine::Gradient, 0, None),
        ("sharded2", Engine::Serial.sharded(2), 0, None),
        ("sharded2x1", Engine::Serial.sharded(2), 1, None),
        ("sharded4seq", Engine::Serial.sharded(4), 1, Some(false)),
        ("sharded4par", Engine::Serial.sharded(4), 1, Some(true)),
    ] {
        let cfg = FlowtuneConfig {
            exchange_every,
            parallel_shards: parallel.unwrap_or(FlowtuneConfig::default().parallel_shards),
            ..FlowtuneConfig::default()
        };
        let mut svc = loaded_driver(&fabric, engine, cfg, flows);
        group.throughput(Throughput::Elements(flows as u64));
        group.bench_with_input(BenchmarkId::new(label, flows), &flows, |b, _| {
            b.iter(|| svc.tick())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_arbiter,
    bench_service_tick,
    bench_service_tick_engines
);
criterion_main!(benches);
