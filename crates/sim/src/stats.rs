//! Traffic statistics collected by the simulated network — the raw
//! measurements behind the locality/scalability experiments (C1, C3, C4).

use std::cmp::Ordering;
use std::fmt::Write;

/// Counters describing one run's traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Deliveries handled per site, as `(site, count)` sorted by site —
    /// the per-site load whose maximum is the system's bottleneck
    /// (experiment C1/C4). A network's statistics hold one entry for each
    /// site it places a node on, zero counts included, so a delivery
    /// bumps an entry found once per node instead of searching for one.
    pub per_site_deliveries: Vec<(u32, u64)>,
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
    /// Zeroed counters with one per-site entry for each of `sites`.
    pub(crate) fn for_sites(sites: impl IntoIterator<Item = u32>) -> NetStats {
        let mut per_site: Vec<(u32, u64)> = sites.into_iter().map(|s| (s, 0)).collect();
        per_site.sort_unstable();
        per_site.dedup();
        NetStats { per_site_deliveries: per_site, ..NetStats::default() }
    }

    /// Zero every counter, keeping the per-site entries (and their buffer).
    pub(crate) fn clear(&mut self) {
        let per_site = std::mem::take(&mut self.per_site_deliveries);
        *self = NetStats { per_site_deliveries: per_site, ..NetStats::default() };
        self.per_site_deliveries.iter_mut().for_each(|(_, count)| *count = 0);
    }

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
        for &(site, count) in &other.per_site_deliveries {
            match self.per_site_deliveries.binary_search_by_key(&site, |&(s, _)| s) {
                Ok(ix) => self.per_site_deliveries[ix].1 += count,
                Err(at) => self.per_site_deliveries.insert(at, (site, count)),
            }
        }
        self.sent_total += other.sent_total;
        self.sent_remote += other.sent_remote;
        self.delivered_total += other.delivered_total;
        self.latency_sum += other.latency_sum;
        for (b, o) in self.latency_buckets.iter_mut().zip(other.latency_buckets.iter()) {
            *b += o;
        }
    }

    /// Count a delivery at the site whose entry is `per_site_deliveries[site_ix]`.
    pub(crate) fn record_delivery(&mut self, site_ix: usize) {
        self.delivered_total += 1;
        self.per_site_deliveries[site_ix].1 += 1;
    }

    /// The busiest site's delivery count.
    pub fn max_site_load(&self) -> u64 {
        self.per_site_deliveries.iter().map(|&(_, count)| count).max().unwrap_or(0)
    }

    /// Fraction of traffic that crossed sites (0.0 when nothing was sent).
    pub fn remote_fraction(&self) -> f64 {
        if self.sent_total == 0 {
            0.0
        } else {
            self.sent_remote as f64 / self.sent_total as f64
        }
    }

    /// Write these counters to a metrics sink (`&MetricsRegistry`, or a
    /// `&mut MetricsSnapshot` under assembly) under the `net.*`
    /// namespace — the snapshotting API that subsumes this struct on run
    /// reports. A site with no deliveries has no `net.deliveries` series.
    /// The series are written in key order: the sites as their labels
    /// sort (`"10"` before `"2"`).
    pub fn record_into(&self, mut metrics: impl obs::MetricSink) {
        metrics.add("net.delivered_total", &[], self.delivered_total);
        let live = || self.per_site_deliveries.iter().filter(|&&(_, count)| count > 0);
        let mut label = String::new();
        let mut after: Option<u32> = None;
        // Selection in label order: a network has few sites.
        while let Some(&(site, count)) = live()
            .filter(|&&(s, _)| after.is_none_or(|a| label_cmp(s, a).is_gt()))
            .min_by(|a, b| label_cmp(a.0, b.0))
        {
            label.clear();
            write!(label, "{site}").expect("writing to a String cannot fail");
            metrics.add("net.deliveries", &[("site", &label)], count);
            after = Some(site);
        }
        metrics.merge_buckets("net.latency", &[], &self.latency_buckets, self.latency_sum);
        metrics.add("net.sent_remote", &[], self.sent_remote);
        metrics.add("net.sent_total", &[], self.sent_total);
    }
}

/// `a` against `b` as their decimal renderings compare: both scaled to
/// the same number of digits, the shorter first on a tie (`"1" < "10"`).
fn label_cmp(a: u32, b: u32) -> Ordering {
    let digits = |x: u32| x.checked_ilog10().unwrap_or(0) + 1;
    let (da, db) = (digits(a), digits(b));
    let scaled = |x: u32, d: u32| u64::from(x) * 10u64.pow(da.max(db) - d);
    scaled(a, da).cmp(&scaled(b, db)).then(da.cmp(&db))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The `net.deliveries` series `stats` publishes, by site.
    pub(crate) fn deliveries_series(stats: &NetStats) -> BTreeMap<u32, u64> {
        let reg = obs::MetricsRegistry::new();
        stats.record_into(&reg);
        let snap = reg.snapshot();
        let series = snap.counters.iter().filter(|(k, _)| k.name == "net.deliveries");
        series
            .map(|(k, count)| {
                assert_eq!(k.labels.len(), 1, "{k:?}");
                let (label, site) = &k.labels[0];
                assert_eq!(label, "site");
                (site.parse().expect("a site label is a number"), *count)
            })
            .collect()
    }

    #[test]
    fn records_accumulate() {
        let mut s = NetStats::for_sites([0]);
        s.record_send(false, 1);
        s.record_send(true, 16);
        s.record_delivery(0);
        assert_eq!(s.sent_total, 2);
        assert_eq!(s.sent_remote, 1);
        assert_eq!(s.delivered_total, 1);
        assert!((s.remote_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(s.latency_sum, 17);
        assert_eq!(s.latency_buckets[0], 1);
        assert_eq!(s.latency_buckets[4], 1);
        assert_eq!(s.max_site_load(), 1);
    }

    #[test]
    fn labels_compare_as_their_renderings() {
        let values = [0, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 1000, 4_294_967_295];
        for a in values {
            for b in values {
                assert_eq!(label_cmp(a, b), a.to_string().cmp(&b.to_string()), "{a} vs {b}");
            }
        }
    }

    /// Written into a snapshot, the series already stand in key order.
    #[test]
    fn record_into_writes_in_key_order() {
        let mut s = NetStats::for_sites([2, 10, 3, 100, 7]);
        for ix in 0..5 {
            s.record_delivery(ix);
        }
        let mut snap = obs::MetricsSnapshot::default();
        s.record_into(&mut snap);
        let sites: Vec<&str> = (snap.counters.iter())
            .filter(|(k, _)| k.name == "net.deliveries")
            .map(|(k, _)| k.labels[0].1.as_str())
            .collect();
        assert_eq!(sites, ["10", "100", "2", "3", "7"]);
        assert!(snap.counters.is_sorted_by(|a, b| a.0 < b.0));
        let reg = obs::MetricsRegistry::new();
        s.record_into(&reg);
        assert_eq!(snap.sorted(), reg.snapshot());
    }

    #[test]
    fn empty_stats_divide_safely() {
        let s = NetStats::default();
        assert_eq!(s.remote_fraction(), 0.0);
    }

    #[test]
    fn huge_latency_clamps_to_last_bucket() {
        let mut s = NetStats::default();
        s.record_send(false, u64::MAX);
        assert_eq!(s.latency_buckets[15], 1);
    }

    #[test]
    fn record_into_registry_preserves_counts_and_quantiles() {
        let mut s = NetStats::for_sites([8, 3]);
        s.record_send(true, 5);
        s.record_send(false, 900);
        s.record_delivery(0);
        s.record_delivery(0);
        let reg = obs::MetricsRegistry::new();
        s.record_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("net.sent_total", &[]), Some(2));
        assert_eq!(snap.counter("net.deliveries", &[("site", "3")]), Some(2));
        assert_eq!(
            snap.counter("net.deliveries", &[("site", "8")]),
            None,
            "no deliveries, no series"
        );
        let h = snap.histogram("net.latency", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 905);
        assert_eq!(h.quantile(0.5), 4, "rank 1 of 2 is latency 5, in [4, 8)");
    }

    /// Folding statistics over different site sets adds the counts of
    /// shared sites and keeps every other entry in site order: the sum a
    /// `BTreeMap` per site gives, series and busiest site included.
    #[test]
    fn absorb_merges_different_site_sets() {
        let mut a = NetStats::for_sites([5, 1]);
        for ix in [0, 0, 1] {
            a.record_delivery(ix);
        }
        let mut b = NetStats::for_sites([1_000_000, 9, 5, 0]);
        for ix in [1, 1, 1, 1, 3] {
            b.record_delivery(ix);
        }
        let mut reference: BTreeMap<u32, u64> = BTreeMap::new();
        for &(site, count) in a.per_site_deliveries.iter().chain(&b.per_site_deliveries) {
            *reference.entry(site).or_insert(0) += count;
        }
        let mut total = NetStats::default();
        total.absorb(&a);
        assert_eq!(total, a, "absorbing into nothing copies");
        total.absorb(&b);
        assert_eq!(
            total.per_site_deliveries,
            reference.iter().map(|(&s, &n)| (s, n)).collect::<Vec<_>>()
        );
        assert_eq!(total.delivered_total, 8);
        assert_eq!(total.max_site_load(), 5, "site 5: one delivery in a, four in b");
        assert_eq!(total.max_site_load(), reference.values().copied().max().unwrap());
        reference.retain(|_, &mut n| n > 0);
        assert_eq!(deliveries_series(&total), reference);
        assert_eq!(NetStats::for_sites([4]).max_site_load(), 0);
        assert_eq!(NetStats::default().max_site_load(), 0);
    }
}
