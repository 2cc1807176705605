//! Output checks, run off the clock. Each returns `Err` with the
//! violated check's name and the evidence, so the command can exit
//! non-zero naming it.

use flowtune_proto::Message;
use flowtune_topo::TwoTierClos;

use crate::plane::Plane;
use crate::workload::Gen;

/// Relative slack on a link's capacity before a normalized load counts
/// as over-subscription (float rounding in the normalization).
pub const CAPACITY_SLACK: f64 = 1e-9;

/// Link capacities of `fabric`, Gbit/s, indexed by link id.
pub fn capacities_gbps(fabric: &TwoTierClos) -> Vec<f64> {
    fabric
        .topology()
        .links()
        .iter()
        .map(|l| l.capacity_bps as f64 / 1e9)
        .collect()
}

/// Raw over-allocation `Σ max(0, load − capacity)`, Gbit/s (Fig. 12).
pub fn overalloc_gbps(loads: &[f64], caps: &[f64]) -> f64 {
    loads
        .iter()
        .zip(caps)
        .map(|(&load, &cap)| (load - cap).max(0.0))
        .sum()
}

/// Per-link sums of the allocator's current normalized rates over every
/// active flow's path, Gbit/s.
pub fn normalized_loads(plane: &Plane, gen: &Gen, fabric: &TwoTierClos) -> Vec<f64> {
    let mut loads = vec![0.0; fabric.topology().link_count()];
    let mut tokens: Vec<u32> = gen.flows.keys().copied().collect();
    tokens.sort_unstable();
    for t in tokens {
        let f = &gen.flows[&t];
        let rate = plane
            .flow_rate_gbps(flowtune_proto::Token::new(t))
            .unwrap_or(0.0);
        let path = fabric.path_via_spine(f.src as usize, f.dst as usize, f.spine as usize);
        for l in path.links() {
            loads[l.index()] += rate;
        }
    }
    loads
}

/// `no_oversubscription`: no link carries more normalized rate than its
/// capacity.
pub fn no_oversubscription(loads: &[f64], caps: &[f64], tick: u64) -> Result<(), String> {
    for (i, (&load, &cap)) in loads.iter().zip(caps).enumerate() {
        if load.is_nan() || load > cap * (1.0 + CAPACITY_SLACK) {
            return Err(format!(
                "no_oversubscription: tick {tick}: link {i} carries {load} Gbit/s of \
                 normalized rate over a {cap} Gbit/s capacity"
            ));
        }
    }
    Ok(())
}

/// `first_update_same_tick`: every start delivered in a tick's batch got
/// its first `RateUpdate` in that tick's update batch.
pub fn first_update_same_tick(missing: Option<u32>, tick: u64) -> Result<(), String> {
    match missing {
        None => Ok(()),
        Some(t) => Err(format!(
            "first_update_same_tick: tick {tick}: the FlowletStart for token {t} \
             got no RateUpdate in the tick it was delivered"
        )),
    }
}

/// `failed_frac_zero`: no notification was rejected and no tick failed.
pub fn failed_frac_zero(failed: u64, attempted: u64) -> Result<(), String> {
    if failed == 0 {
        Ok(())
    } else {
        Err(format!(
            "failed_frac_zero: {failed} of {attempted} operations failed \
             (rejected notifications plus errored ticks)"
        ))
    }
}

/// Folds one tick's update batch into an update-stream digest (FNV-1a
/// over tick, destination, token and rate bits).
pub fn digest(mut h: u64, tick: u64, updates: &[(u16, Message)]) -> u64 {
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(tick);
    for (dst, msg) in updates {
        eat(u64::from(*dst));
        if let Message::RateUpdate { token, rate } = msg {
            eat(u64::from(token.get()));
            eat(u64::from(rate.bits()));
        }
    }
    h
}

/// The FNV-1a offset basis a digest starts from.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Everything a run reports that must repeat exactly for a seed, taken
/// over the deterministic window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Det {
    /// Update-stream digest.
    pub digest: u64,
    /// `RateUpdate`s sent.
    pub updates: u64,
    /// Their payload bytes.
    pub update_bytes: u64,
    /// Flowlets started and completed in the window: how many took each
    /// completion time, in ticks.
    pub fct_ticks: std::collections::BTreeMap<u64, u64>,
    /// Raw over-allocation at every sampled tick, Gbit/s.
    pub overalloc_samples: Vec<f64>,
    /// Flows and link-price moves the incremental engine recomputed.
    pub dirty_flows: u64,
    /// Link-price moves beyond `dirty_eps`.
    pub dirty_links: u64,
    /// Flows the export considered (sent plus suppressed).
    pub considered: u64,
    /// Logical exchange bytes and rounds.
    pub exchange_bytes: u64,
    /// Exchange rounds.
    pub exchange_rounds: u64,
}

/// `twin_identical`: the workload and its twin configuration (the other
/// sharded backend, or the full sweep an incremental engine at
/// `dirty_eps = 0` must equal) produced the same update stream and the
/// same counts.
pub fn twins_identical(run: &Det, twin: &Det) -> Result<(), String> {
    if run == twin {
        return Ok(());
    }
    let mut diffs = Vec::new();
    if run.digest != twin.digest {
        diffs.push(format!(
            "update digest {:016x} vs {:016x}",
            run.digest, twin.digest
        ));
    }
    for (name, a, b) in [
        ("updates", run.updates, twin.updates),
        ("update_bytes", run.update_bytes, twin.update_bytes),
        ("dirty_flows", run.dirty_flows, twin.dirty_flows),
        ("dirty_links", run.dirty_links, twin.dirty_links),
        ("considered", run.considered, twin.considered),
        ("exchange_bytes", run.exchange_bytes, twin.exchange_bytes),
        ("exchange_rounds", run.exchange_rounds, twin.exchange_rounds),
    ] {
        if a != b {
            diffs.push(format!("{name} {a} vs {b}"));
        }
    }
    if run.fct_ticks != twin.fct_ticks {
        diffs.push("flowlet completion times".into());
    }
    if run.overalloc_samples != twin.overalloc_samples {
        diffs.push("over-allocation samples".into());
    }
    Err(format!(
        "twin_identical: the twin configuration disagrees: {}",
        diffs.join("; ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{first_update_missing, Flow};
    use flowtune_proto::{Rate16, Token};
    use std::collections::HashMap;

    #[test]
    fn oversubscription_fires_on_a_fabricated_overloaded_link() {
        let caps = [10.0, 40.0, 10.0];
        assert!(no_oversubscription(&[9.9, 40.0, 0.0], &caps, 3).is_ok());
        let err = no_oversubscription(&[9.9, 40.5, 0.0], &caps, 3).unwrap_err();
        assert!(err.starts_with("no_oversubscription"), "{err}");
        assert!(err.contains("link 1"), "{err}");
        // A NaN load is a violation, not a pass.
        assert!(no_oversubscription(&[f64::NAN, 0.0, 0.0], &caps, 3).is_err());
        assert_eq!(overalloc_gbps(&[12.0, 30.0, 10.5], &caps), 2.5);
    }

    #[test]
    fn a_dropped_first_update_fires() {
        let flow = |got_update| Flow {
            src: 0,
            dst: 1,
            spine: 0,
            rate_gbps: 1.0,
            remaining: 1.0,
            start_tick: 7,
            got_update,
        };
        let mut flows = HashMap::new();
        flows.insert(1, flow(true));
        flows.insert(2, flow(false));
        assert_eq!(first_update_missing(&[1], &flows), None);
        assert!(first_update_same_tick(first_update_missing(&[1], &flows), 7).is_ok());
        let err = first_update_same_tick(first_update_missing(&[1, 2], &flows), 7).unwrap_err();
        assert!(err.starts_with("first_update_same_tick"), "{err}");
        assert!(err.contains("token 2"), "{err}");
    }

    #[test]
    fn a_failed_operation_fires() {
        assert!(failed_frac_zero(0, 10).is_ok());
        let err = failed_frac_zero(1, 10).unwrap_err();
        assert!(err.starts_with("failed_frac_zero"), "{err}");
    }

    #[test]
    fn a_mismatched_digest_fires() {
        let update = |rate| {
            (
                3u16,
                Message::RateUpdate {
                    token: Token::new(9),
                    rate: Rate16::encode(rate),
                },
            )
        };
        let a = Det {
            digest: digest(DIGEST_SEED, 1, &[update(1.0)]),
            ..Det::default()
        };
        let b = Det {
            digest: digest(DIGEST_SEED, 1, &[update(2.0)]),
            ..Det::default()
        };
        assert!(twins_identical(&a, &a.clone()).is_ok());
        let err = twins_identical(&a, &b).unwrap_err();
        assert!(err.starts_with("twin_identical"), "{err}");
        assert!(err.contains("digest"), "{err}");
        // A count mismatch with equal digests fires too.
        let c = Det {
            exchange_bytes: 8,
            ..a.clone()
        };
        assert!(twins_identical(&a, &c)
            .unwrap_err()
            .contains("exchange_bytes"));
        // The digest depends on the tick an update arrived in.
        assert_ne!(
            digest(DIGEST_SEED, 1, &[update(1.0)]),
            digest(DIGEST_SEED, 2, &[update(1.0)])
        );
    }
}
