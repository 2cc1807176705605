//! Pins the steady-state allocation discipline of the hot paths:
//!
//! * an exchange round's encode + decode path (delta-filter, frame
//!   append, record walk, replica update) touches the heap zero times
//!   after warm-up — the frame goes into one flat reusable buffer and
//!   the receiver's replicas are grown once, steady-state rounds only
//!   overwrite;
//! * a quiet allocator service tick — engine iteration, changed-rate
//!   export, update filtering — touches the heap zero times after
//!   warm-up, with the incremental engine on or off, including the
//!   periodic full-sweep ticks and `rates_into` reads of every rate;
//! * a converged peer cluster over the mem transport — send path,
//!   receiver threads, mailboxes, barrier, install, k-way merge —
//!   recycles every frame buffer through the pools and ticks without
//!   touching the heap (`PeerCluster::try_tick_into`).
//!
//! A counting `#[global_allocator]` makes the claims checkable without
//! tooling: it counts every `alloc`/`realloc`/`alloc_zeroed` while the
//! measured window is open. This lives in its own integration-test
//! binary so the counter sees nothing but these tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use flowtune::{AllocatorService, ExchangeCore, FlowtuneConfig};
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, TwoTierClos};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const LINKS: usize = 48;
const WARM_ROUNDS: u64 = 5;
const MEASURED_ROUNDS: u64 = 50;

/// The counter window is process-global, so tests that open it must not
/// overlap (cargo runs `#[test]`s concurrently by default).
static WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn steady_state_exchange_round_allocates_nothing() {
    let _window = WINDOW.lock().unwrap();
    let mut a = ExchangeCore::new(0, 2, 0.0);
    let mut b = ExchangeCore::new(1, 2, 0.0);

    let mut loads_a = vec![1.0f64; LINKS];
    let mut loads_b = vec![2.0f64; LINKS];
    let hessians: Vec<f64> = vec![0.5; LINKS];
    let prices: Vec<f64> = vec![0.25; LINKS];

    // One generously pre-reserved flat buffer per side — the same
    // discipline ShardPeer and ShardedService use.
    let mut frame_a: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut frame_b: Vec<u8> = Vec::with_capacity(64 * 1024);

    let mut round = 0u64;
    let mut exchange = |a: &mut ExchangeCore,
                        b: &mut ExchangeCore,
                        loads_a: &[f64],
                        loads_b: &[f64],
                        frame_a: &mut Vec<u8>,
                        frame_b: &mut Vec<u8>| {
        round += 1;
        frame_a.clear();
        frame_b.clear();
        a.begin_round(round, loads_a, &hessians, &prices, frame_a);
        b.begin_round(round, loads_b, &hessians, &prices, frame_b);
        a.apply_frame(frame_b).expect("peer frame decodes");
        b.apply_frame(frame_a).expect("peer frame decodes");
    };

    // Warm-up: first rounds size the last-shipped tables, the replicas
    // and the frame buffers.
    for r in 0..WARM_ROUNDS {
        for load in loads_a.iter_mut().chain(loads_b.iter_mut()) {
            *load += 0.01 * (r + 1) as f64;
        }
        exchange(
            &mut a,
            &mut b,
            &loads_a,
            &loads_b,
            &mut frame_a,
            &mut frame_b,
        );
    }

    // Measured window: every load moves every round, so every entry is
    // re-shipped — the worst case for the encode path.
    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    for r in 0..MEASURED_ROUNDS {
        for load in loads_a.iter_mut().chain(loads_b.iter_mut()) {
            *load += 0.001 * (r + 1) as f64;
        }
        exchange(
            &mut a,
            &mut b,
            &loads_a,
            &loads_b,
            &mut frame_a,
            &mut frame_b,
        );
    }
    ENABLED.store(false, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "steady-state exchange rounds must not allocate ({allocs} allocations over {MEASURED_ROUNDS} rounds)"
    );
}

#[test]
fn steady_state_allocator_tick_allocates_nothing() {
    let _window = WINDOW.lock().unwrap();
    let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
    for incremental in [true, false] {
        let cfg = FlowtuneConfig {
            incremental,
            // Small cadence so the measured window provably crosses
            // full-sweep ticks — the worst case for the export path
            // (every worker drains) must be allocation-free too.
            full_sweep_every: 8,
            ..FlowtuneConfig::default()
        };
        let mut svc = AllocatorService::new(&fabric, cfg);
        let mut token = 0u32;
        for src in 0..16u16 {
            for k in 0..2u16 {
                let dst = (src + 5 + 3 * k) % 16;
                token += 1;
                let spine = fabric.ecmp_spine(
                    src as usize,
                    dst as usize,
                    flowtune_topo::FlowId(token as u64),
                );
                svc.on_message(Message::FlowletStart {
                    token: Token::new(token),
                    src,
                    dst,
                    size_hint: 1_000_000,
                    weight_q8: 256,
                    spine: spine as u8,
                })
                .unwrap();
            }
        }
        let mut rates = Vec::new();
        // Warm-up: converge the trajectory (so ticks are quiet and the
        // update filter suppresses everything) and size every reusable
        // buffer — export scratch, changed-set scratch, the rates vec.
        for _ in 0..300 {
            svc.tick();
        }
        svc.rates_into(&mut rates);
        assert_eq!(rates.len(), 32);

        ALLOCS.store(0, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        for _ in 0..MEASURED_ROUNDS {
            let updates = svc.tick();
            assert!(updates.is_empty(), "quiet ticks must suppress updates");
            svc.rates_into(&mut rates);
        }
        ENABLED.store(false, Ordering::Relaxed);

        let allocs = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            allocs, 0,
            "steady-state allocator ticks must not allocate \
             (incremental={incremental}: {allocs} allocations over {MEASURED_ROUNDS} ticks)"
        );
        assert_eq!(rates.len(), 32);
    }
}

#[test]
fn steady_state_peer_cluster_tick_allocates_nothing() {
    use std::time::Duration;

    use flowtune::ExchangeConfig;
    use flowtune_net::{mem_mesh, PeerCluster, ShardPeer};
    use flowtune_topo::FlowId;

    let _window = WINDOW.lock().unwrap();
    let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
    let cfg = FlowtuneConfig {
        exchange_every: 1,
        ..FlowtuneConfig::default()
    };
    let exchange = ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
    let peers: Vec<_> = mem_mesh(2)
        .into_iter()
        .map(|t| {
            ShardPeer::new(AllocatorService::new(&fabric, cfg), t, exchange)
                .expect("mem transport splits infallibly")
        })
        .collect();
    let mut cluster = PeerCluster::from_peers(peers);
    let mut token = 0u32;
    for src in 0..16u16 {
        let dst = (src + 5) % 16;
        token += 1;
        let spine = fabric.ecmp_spine(src as usize, dst as usize, FlowId(token as u64));
        cluster
            .on_message(Message::FlowletStart {
                token: Token::new(token),
                src,
                dst,
                size_hint: 1_000_000,
                weight_q8: 256,
                spine: spine as u8,
            })
            .unwrap();
    }
    let mut out = Vec::new();
    // Warm-up: converge (quiet ticks, empty update streams) and size
    // every reusable buffer — frame scratch, mailbox queues, the frame
    // pools on both the send and receive side.
    for _ in 0..300 {
        cluster.try_tick_into(&mut out).expect("warm-up tick");
    }

    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    for _ in 0..MEASURED_ROUNDS {
        cluster.try_tick_into(&mut out).expect("measured tick");
        assert!(out.is_empty(), "quiet cluster ticks must suppress updates");
    }
    ENABLED.store(false, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "steady-state peer cluster ticks must not allocate \
         ({allocs} allocations over {MEASURED_ROUNDS} ticks, receiver threads included)"
    );
}
