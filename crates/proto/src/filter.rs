//! Rate-update suppression (§6.4).
//!
//! "The allocator notifies servers when the rates assigned to flows change
//! by a factor larger than a threshold. For example, with a threshold of
//! 0.01, a flow allocated 1 Gbit/s will only be notified when its rate
//! changes above 1.01 or below 0.99 Gbits/s." The matching capacity
//! headroom lives in `flowtune_alloc::AllocConfig::capacity_fraction`.

/// The update-threshold rule. Stateless: the caller keeps each flowlet's
/// last sent rate next to the rest of its per-flow state and hands it in.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdFilter {
    threshold: f64,
}

impl ThresholdFilter {
    /// Creates a filter; `threshold` is the relative change (e.g. 0.01)
    /// below which updates are suppressed. A threshold of 0 forwards
    /// everything.
    ///
    /// # Panics
    /// Panics if `threshold` is negative or not finite.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold >= 0.0 && threshold.is_finite(),
            "threshold must be ≥ 0"
        );
        Self { threshold }
    }

    /// Decides whether `rate` must be sent for a flowlet whose last sent
    /// rate is `last_sent` (`None`: nothing sent yet). The first rate is
    /// always sent; afterwards only changes beyond the threshold
    /// (relative to the *last sent* rate, not the last computed one)
    /// pass. Records the rate in `last_sent` when it passes.
    pub fn should_send(&self, last_sent: &mut Option<f64>, rate: f64) -> bool {
        let send = match *last_sent {
            None => true,
            Some(0.0) => rate != 0.0,
            Some(prev) => (rate - prev).abs() / prev > self.threshold,
        };
        if send {
            *last_sent = Some(rate);
        }
        send
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_update_always_sent() {
        let f = ThresholdFilter::new(0.01);
        let mut last = None;
        assert!(f.should_send(&mut last, 5.0));
        assert_eq!(last, Some(5.0));
    }

    #[test]
    fn small_changes_suppressed_relative_to_last_sent() {
        let f = ThresholdFilter::new(0.01);
        let mut last = None;
        assert!(f.should_send(&mut last, 1.0));
        assert!(!f.should_send(&mut last, 1.005)); // +0.5%
        assert!(!f.should_send(&mut last, 0.995)); // −0.5%
        assert_eq!(last, Some(1.0), "suppressed rates are not recorded");
        // Drift accumulates relative to the last *sent* value (1.0):
        assert!(f.should_send(&mut last, 1.011)); // +1.1% vs 1.0 → send
        assert_eq!(last, Some(1.011));
    }

    #[test]
    fn exact_threshold_is_suppressed() {
        // The paper's wording: notified when the change is *larger* than
        // the threshold — an exactly-at-threshold change stays quiet.
        // (0.5, 2.0 and 3.0 are exactly representable, so the comparison
        // is float-exact.)
        let f = ThresholdFilter::new(0.5);
        let mut last = None;
        assert!(f.should_send(&mut last, 2.0));
        assert!(!f.should_send(&mut last, 3.0));
        assert!(f.should_send(&mut last, 3.5));
    }

    #[test]
    fn zero_threshold_forwards_changes_only() {
        let f = ThresholdFilter::new(0.0);
        let mut last = None;
        assert!(f.should_send(&mut last, 1.0));
        assert!(
            !f.should_send(&mut last, 1.0),
            "identical rate never resent"
        );
        assert!(f.should_send(&mut last, 1.0000001));
    }

    #[test]
    fn zero_rate_transitions() {
        let f = ThresholdFilter::new(0.05);
        let mut last = None;
        assert!(f.should_send(&mut last, 0.0));
        assert!(!f.should_send(&mut last, 0.0));
        assert!(
            f.should_send(&mut last, 0.5),
            "leaving zero is always a change"
        );
    }

    #[test]
    fn independent_tokens() {
        let f = ThresholdFilter::new(0.01);
        let (mut a, mut b) = (None, None);
        assert!(f.should_send(&mut a, 1.0));
        assert!(f.should_send(&mut b, 1.0));
        assert!(!f.should_send(&mut a, 1.0));
        assert_eq!(b, Some(1.0));
    }

    #[test]
    #[should_panic(expected = "≥ 0")]
    fn negative_threshold_rejected() {
        let _ = ThresholdFilter::new(-0.1);
    }
}
