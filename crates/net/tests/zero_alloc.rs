//! Pins the steady-state allocation discipline of the hot paths:
//!
//! * an exchange round's encode + decode path (delta-filter, frame
//!   append, record walk, replica update) touches the heap zero times
//!   after warm-up — the frame goes into one flat reusable buffer and
//!   the receiver's replicas are grown once, steady-state rounds only
//!   overwrite;
//! * an allocator service tick into a warm caller buffer — engine
//!   iteration, changed-rate export, update filtering, message encoding
//!   — touches the heap zero times after warm-up, with the incremental
//!   engine on or off, on quiet ticks (including the periodic full-sweep
//!   ticks and `rates_into` reads of every rate) and on ticks that emit
//!   an update for every flow;
//! * the token-ordered merge of non-empty per-shard update streams into
//!   a warm buffer touches the heap zero times;
//! * a converged peer cluster over the mem transport — send path,
//!   receiver threads, mailboxes, barrier, install, merge — recycles
//!   every frame buffer through the pools and ticks without touching the
//!   heap (`TickDriver::tick_into`).
//!
//! A counting `#[global_allocator]` makes the claims checkable without
//! tooling: it counts every `alloc`/`realloc`/`alloc_zeroed` while the
//! measured window is open, on the measuring thread and on the threads
//! the code under test spawns. The test harness's own threads are not
//! counted (see [`counts_here`]). This lives in its own integration-test
//! binary so the counter sees nothing but these tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use flowtune::{merge_by_token_into, AllocatorService, ExchangeCore, FlowtuneConfig, TickDriver};
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, TwoTierClos};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A thread's part in the measurement, decided on its first allocation
/// inside a window (and set explicitly by the measuring thread).
const UNDECIDED: u8 = 0;
const COUNTED: u8 = 1;
const HARNESS: u8 = 2;
const DECIDING: u8 = 3;

thread_local! {
    static ROLE: Cell<u8> = const { Cell::new(UNDECIDED) };
}

/// Whether an allocation on this thread belongs to the measured window.
/// libtest's own threads — its `main` thread and one thread per test,
/// named after the test — allocate whenever a sibling test starts or
/// reports, which has nothing to do with the code under test, so they
/// are harness unless one is the thread measuring. Every thread the
/// code under test spawns is either unnamed (the receive runtime's
/// mailbox threads) or named `flowtune-…` (the worker pool), and always
/// counts. An allocation made while a thread's role is being decided
/// counts too, so nothing escapes.
fn counts_here() -> bool {
    ROLE.try_with(|role| match role.get() {
        COUNTED | DECIDING => true,
        HARNESS => false,
        _ => {
            role.set(DECIDING);
            let harness = std::thread::current()
                .name()
                .is_some_and(|name| !name.starts_with("flowtune-"));
            role.set(if harness { HARNESS } else { COUNTED });
            !harness
        }
    })
    .unwrap_or(true)
}

fn count() {
    if ENABLED.load(Ordering::Relaxed) && counts_here() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Opens the measured window, counting this thread.
fn open_window() {
    ROLE.with(|role| role.set(COUNTED));
    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Closes the window and returns the allocations it counted.
fn close_window() -> u64 {
    ENABLED.store(false, Ordering::Relaxed);
    ROLE.with(|role| role.set(HARNESS));
    ALLOCS.load(Ordering::Relaxed)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const LINKS: usize = 48;
const WARM_ROUNDS: u64 = 5;
const MEASURED_ROUNDS: u64 = 50;

/// The counter window is process-global, so tests that open it must not
/// overlap (cargo runs `#[test]`s concurrently by default). Taken
/// poison-tolerantly: the mutex guards no data, so one failed window
/// must not fail the next test too.
static WINDOW: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_exchange_round_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
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
    open_window();
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

    let allocs = close_window();
    assert_eq!(
        allocs, 0,
        "steady-state exchange rounds must not allocate ({allocs} allocations over {MEASURED_ROUNDS} rounds)"
    );
}

/// A serial service on the 16-server test fabric with two flows per
/// source, all started.
fn loaded_service(fabric: &TwoTierClos, cfg: FlowtuneConfig) -> AllocatorService {
    let mut svc = AllocatorService::new(fabric, cfg);
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
    svc
}

#[test]
fn steady_state_allocator_tick_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
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
        let mut svc = loaded_service(&fabric, cfg);
        let mut rates = Vec::new();
        let mut updates = Vec::new();
        // Warm-up: converge the trajectory (so ticks are quiet and the
        // update filter suppresses everything) and size every reusable
        // buffer — export scratch, changed-set scratch, the rates vec.
        for _ in 0..300 {
            svc.tick_into(&mut updates);
        }
        svc.rates_into(&mut rates);
        assert_eq!(rates.len(), 32);

        open_window();
        for _ in 0..MEASURED_ROUNDS {
            svc.tick_into(&mut updates);
            assert!(updates.is_empty(), "quiet ticks must suppress updates");
            svc.rates_into(&mut rates);
        }

        let allocs = close_window();
        assert_eq!(
            allocs, 0,
            "steady-state allocator ticks must not allocate \
             (incremental={incremental}: {allocs} allocations over {MEASURED_ROUNDS} ticks)"
        );
        assert_eq!(rates.len(), 32);
    }
}

#[test]
fn updating_allocator_tick_into_a_warm_buffer_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
    for incremental in [true, false] {
        // Threshold 0: every rate move is sent, and a trajectory a few
        // ticks from its start still moves every flow on every tick.
        let cfg = FlowtuneConfig {
            incremental,
            update_threshold: 0.0,
            ..FlowtuneConfig::default()
        };
        let mut svc = loaded_service(&fabric, cfg);
        let mut updates = Vec::new();
        // Warm-up: the first tick sends all 32 flows' first rates, which
        // sizes the caller buffer and the export scratch for a full tick.
        for _ in 0..WARM_ROUNDS {
            svc.tick_into(&mut updates);
        }

        let mut sent = 0;
        open_window();
        for _ in 0..MEASURED_ROUNDS {
            svc.tick_into(&mut updates);
            assert!(!updates.is_empty(), "a converging tick must send updates");
            sent += updates.len();
        }

        let allocs = close_window();
        assert_eq!(
            allocs, 0,
            "updating allocator ticks must not allocate \
             (incremental={incremental}: {allocs} allocations over {sent} updates)"
        );
    }
}

#[test]
fn merging_update_streams_into_a_warm_buffer_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let update = |t: u32| {
        (
            (t % 16) as u16,
            Message::RateUpdate {
                token: Token::new(t),
                rate: flowtune_proto::Rate16::encode(1.0),
            },
        )
    };
    // Four shards, tokens dealt round-robin: each stream is token-ordered
    // and the token sets are disjoint, as the router guarantees.
    let fill = |streams: &mut [Vec<(u16, Message)>]| {
        for t in 1..=64u32 {
            streams[t as usize % 4].push(update(t));
        }
    };
    let mut streams = vec![Vec::new(); 4];
    let mut out = Vec::new();
    fill(&mut streams);
    merge_by_token_into(&mut streams, &mut out);

    open_window();
    for _ in 0..MEASURED_ROUNDS {
        fill(&mut streams);
        merge_by_token_into(&mut streams, &mut out);
    }

    let allocs = close_window();
    assert_eq!(
        allocs, 0,
        "merging into a warm buffer must not allocate ({allocs} allocations over {MEASURED_ROUNDS} merges)"
    );
    let tokens: Vec<u32> = out
        .iter()
        .map(|(_, m)| match m {
            Message::RateUpdate { token, .. } => token.get(),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(tokens, (1..=64).collect::<Vec<_>>());
}

#[test]
fn steady_state_peer_cluster_tick_allocates_nothing() {
    use std::time::Duration;

    use flowtune::ExchangeConfig;
    use flowtune_net::{mem_mesh, PeerCluster, ShardPeer};
    use flowtune_topo::FlowId;

    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
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
    let mut cluster = PeerCluster::from_shards(peers);
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
        cluster.tick_into(&mut out).expect("warm-up tick");
    }

    open_window();
    for _ in 0..MEASURED_ROUNDS {
        cluster.tick_into(&mut out).expect("measured tick");
        assert!(out.is_empty(), "quiet cluster ticks must suppress updates");
    }

    let allocs = close_window();
    assert_eq!(
        allocs, 0,
        "steady-state peer cluster ticks must not allocate \
         ({allocs} allocations over {MEASURED_ROUNDS} ticks, receiver threads included)"
    );
}
