//! Traffic statistics collected by the simulated network — the raw
//! measurements behind the locality/scalability experiments (C1, C3, C4).

/// Counters describing one run's traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Deliveries handled per site — the per-site load whose maximum is
    /// the system's bottleneck (experiment C1/C4).
    pub per_site_deliveries: std::collections::BTreeMap<u32, u64>,
    /// Messages sent, total.
    pub sent_total: u64,
    /// Messages that crossed a site boundary.
    pub sent_remote: u64,
    /// Messages delivered.
    pub delivered_total: u64,
    /// Sum of sampled latencies (for mean latency).
    pub latency_sum: u64,
    /// Histogram of latencies in power-of-two buckets
    /// (`bucket[i]` counts latencies in `[2^i, 2^(i+1))`).
    pub latency_buckets: [u64; 16],
}

impl NetStats {
    pub(crate) fn record_send(&mut self, remote: bool, latency: u64) {
        self.sent_total += 1;
        if remote {
            self.sent_remote += 1;
        }
        self.latency_sum += latency;
        let bucket = (63 - latency.max(1).leading_zeros() as usize).min(15);
        self.latency_buckets[bucket] += 1;
    }

    /// Fold another stats block into this one (a fleet's total is the
    /// sum of its instances').
    pub fn absorb(&mut self, other: &NetStats) {
        for (site, count) in &other.per_site_deliveries {
            *self.per_site_deliveries.entry(*site).or_insert(0) += count;
        }
        self.sent_total += other.sent_total;
        self.sent_remote += other.sent_remote;
        self.delivered_total += other.delivered_total;
        self.latency_sum += other.latency_sum;
        for (b, o) in self.latency_buckets.iter_mut().zip(other.latency_buckets.iter()) {
            *b += o;
        }
    }

    pub(crate) fn record_delivery(&mut self, site: u32) {
        self.delivered_total += 1;
        *self.per_site_deliveries.entry(site).or_insert(0) += 1;
    }

    /// The busiest site's delivery count.
    pub fn max_site_load(&self) -> u64 {
        self.per_site_deliveries.values().copied().max().unwrap_or(0)
    }

    /// Fraction of traffic that crossed sites (0.0 when nothing was sent).
    pub fn remote_fraction(&self) -> f64 {
        if self.sent_total == 0 {
            0.0
        } else {
            self.sent_remote as f64 / self.sent_total as f64
        }
    }

    /// Mean sampled latency (0.0 when nothing was sent).
    pub fn mean_latency(&self) -> f64 {
        if self.sent_total == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.sent_total as f64
        }
    }

    /// Latency quantile estimated from `latency_buckets`.
    ///
    /// Bucket `i` counts latencies in `[2^i, 2^(i+1))` (latency 0 is
    /// clamped into bucket 0), so the estimator can only answer with a
    /// bucket boundary: it returns the **inclusive lower bound** `2^i` of
    /// the bucket where the cumulative count reaches `ceil(q * total)` —
    /// i.e. quantiles round *down* to the nearest power of two. Returns 0
    /// when nothing was sampled.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        let total: u64 = self.latency_buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &count) in self.latency_buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        unreachable!("cumulative bucket count reaches total")
    }

    /// Median latency estimate (lower bucket bound; see
    /// [`NetStats::latency_quantile`]).
    pub fn p50(&self) -> u64 {
        self.latency_quantile(0.50)
    }

    /// 99th-percentile latency estimate (lower bucket bound; see
    /// [`NetStats::latency_quantile`]).
    pub fn p99(&self) -> u64 {
        self.latency_quantile(0.99)
    }

    /// Write these counters to a metrics sink (`&MetricsRegistry`, or a
    /// `&mut MetricsSnapshot` under assembly) under the `net.*`
    /// namespace — the snapshotting API that subsumes this struct on run
    /// reports.
    pub fn record_into(&self, mut metrics: impl obs::MetricSink) {
        metrics.add("net.sent_total", &[], self.sent_total);
        metrics.add("net.sent_remote", &[], self.sent_remote);
        metrics.add("net.delivered_total", &[], self.delivered_total);
        for (site, count) in &self.per_site_deliveries {
            metrics.add("net.deliveries", &[("site", &site.to_string())], *count);
        }
        metrics.merge_buckets("net.latency", &[], &self.latency_buckets, self.latency_sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut s = NetStats::default();
        s.record_send(false, 1);
        s.record_send(true, 16);
        s.record_delivery(0);
        assert_eq!(s.sent_total, 2);
        assert_eq!(s.sent_remote, 1);
        assert_eq!(s.delivered_total, 1);
        assert!((s.remote_fraction() - 0.5).abs() < 1e-9);
        assert!((s.mean_latency() - 8.5).abs() < 1e-9);
        assert_eq!(s.latency_buckets[0], 1);
        assert_eq!(s.latency_buckets[4], 1);
        assert_eq!(s.max_site_load(), 1);
    }

    #[test]
    fn empty_stats_divide_safely() {
        let s = NetStats::default();
        assert_eq!(s.remote_fraction(), 0.0);
        assert_eq!(s.mean_latency(), 0.0);
    }

    #[test]
    fn huge_latency_clamps_to_last_bucket() {
        let mut s = NetStats::default();
        s.record_send(false, u64::MAX);
        assert_eq!(s.latency_buckets[15], 1);
    }

    #[test]
    fn quantiles_round_down_to_bucket_lower_bounds() {
        let mut s = NetStats::default();
        // Latencies 2..=3 share bucket 1 ([2, 4)): any quantile landing
        // there answers the inclusive lower bound 2, never 3 or 4.
        s.record_send(false, 2);
        s.record_send(false, 3);
        assert_eq!(s.p50(), 2);
        assert_eq!(s.p99(), 2);
        // A boundary value opens the next bucket: 4 lands in [4, 8).
        s.record_send(false, 4);
        assert_eq!(s.p99(), 4);
    }

    #[test]
    fn p50_p99_split_across_buckets() {
        let mut s = NetStats::default();
        // 98 fast sends at latency 1, two stragglers at 1000 ([512, 1024)).
        for _ in 0..98 {
            s.record_send(false, 1);
        }
        s.record_send(false, 1000);
        s.record_send(false, 1000);
        assert_eq!(s.p50(), 1);
        assert_eq!(s.p99(), 512, "rank 99 of 100 falls on the straggler bucket");
    }

    #[test]
    fn quantiles_handle_edge_ranks() {
        let mut s = NetStats::default();
        assert_eq!(s.p50(), 0, "empty histogram answers 0");
        // Latency 0 is clamped into bucket 0, whose reported bound is 1
        // (the clamp target `latency.max(1)`).
        s.record_send(false, 0);
        assert_eq!(s.p50(), 1);
        assert_eq!(s.latency_quantile(0.0), 1, "rank clamps to the first sample");
        assert_eq!(s.latency_quantile(1.0), 1);
        // u64::MAX clamps into the last bucket, reported as 2^15.
        s.record_send(false, u64::MAX);
        assert_eq!(s.latency_quantile(1.0), 1 << 15);
    }

    #[test]
    fn record_into_registry_preserves_counts_and_quantiles() {
        let mut s = NetStats::default();
        s.record_send(true, 5);
        s.record_send(false, 900);
        s.record_delivery(3);
        s.record_delivery(3);
        let reg = obs::MetricsRegistry::new();
        s.record_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("net.sent_total", &[]), Some(2));
        assert_eq!(snap.counter("net.deliveries", &[("site", "3")]), Some(2));
        let h = snap.histogram("net.latency", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 905);
        assert_eq!(h.quantile(0.5), s.p50());
    }
}
