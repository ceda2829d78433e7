//! Unified metrics: counters, gauges, and log2 histograms keyed by name +
//! labels, behind one writing interface ([`MetricSink`]) and one reading
//! one ([`MetricsSnapshot`]).
//!
//! This subsumes the ad-hoc `sim::NetStats` and `sim::FaultStats` counter
//! structs: after a run, the executor folds both (plus per-actor and
//! transport counters) into the [`MetricsSnapshot`] on the run report,
//! serialized to JSON alongside the recorded trace. A run knows all of
//! its series when it ends, so it writes them straight into a snapshot,
//! in key order, and [`MetricsSnapshot::sorted`] only checks that order
//! and folds repeated keys; the [`MetricsRegistry`] is the sink for
//! values that accumulate under a shared handle.

use crate::json::Json;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A metric identity: name plus sorted `(key, value)` label pairs
/// (site/actor/dependency labels by convention).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Dotted metric name, e.g. `net.sent_total`: borrowed when the
    /// series was written under a static name (every [`MetricSink`]
    /// write), owned when it came from a registry call or from JSON.
    pub name: Cow<'static, str>,
    /// Label pairs, kept sorted so equal label sets compare equal.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// The key for `name` with `labels`, in any order.
    pub fn new(name: impl Into<Cow<'static, str>>, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.into(), labels }
    }

    /// This key against `name` with `labels` sorted, without building a
    /// key from them.
    fn cmp_borrowed(&self, name: &str, labels: &[(&str, &str)]) -> Ordering {
        let mine = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        (*self.name).cmp(name).then_with(|| mine.cmp(labels.iter().copied()))
    }

    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let labels =
            self.labels.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(",");
        format!("{}{{{labels}}}", self.name)
    }
}

/// A histogram over `[2^i, 2^(i+1))` buckets — cheap to update, good
/// enough for latency quantiles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Log2Histogram {
    /// `buckets[i]` counts observations `v` with `floor(log2(max(v,1))) == i`,
    /// clamped to the last bucket.
    pub buckets: [u64; 32],
    /// Total observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Log2Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        let bucket = (63 - v.max(1).leading_zeros() as usize).min(31);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// The quantile estimate for `q` in `[0, 1]`: the inclusive lower
    /// bound `2^i` of the bucket where the cumulative count crosses
    /// `ceil(q * count)`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max
    }

    /// Mean of observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold in every observation `other` holds: exactly the histogram
    /// that observing both streams into one would have given.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Fold in a pre-counted log2 bucket array with the same
    /// `[2^i, 2^(i+1))` layout (e.g. `NetStats`'s 16-bucket latency
    /// table). The observations themselves are gone, so `max` can only be
    /// raised to the upper bound of the highest occupied bucket.
    pub fn merge_buckets(&mut self, buckets: &[u64], sum: u64) {
        for (i, &c) in buckets.iter().enumerate() {
            let slot = i.min(31);
            self.buckets[slot] += c;
            self.count += c;
            if c > 0 {
                self.max = self.max.max(if slot == 0 { 1 } else { (1u64 << (slot + 1)) - 1 });
            }
        }
        self.sum += sum;
    }
}

/// Somewhere measurements are written: the shared [`MetricsRegistry`], or
/// a [`MetricsSnapshot`] being assembled by the one thread that owns it.
/// Code that publishes a fixed set of series (`NetStats::record_into`)
/// is written once against this. Series names are static, so a snapshot
/// borrows them.
pub trait MetricSink {
    /// Add `by` to a counter.
    fn add(&mut self, name: &'static str, labels: &[(&str, &str)], by: u64);
    /// Set a gauge to `v`.
    fn set_gauge(&mut self, name: &'static str, labels: &[(&str, &str)], v: i64);
    /// Merge a pre-counted bucket array ([`Log2Histogram::merge_buckets`]).
    fn merge_buckets(
        &mut self,
        name: &'static str,
        labels: &[(&str, &str)],
        buckets: &[u64],
        sum: u64,
    );
}

impl<S: MetricSink> MetricSink for &mut S {
    fn add(&mut self, name: &'static str, labels: &[(&str, &str)], by: u64) {
        (**self).add(name, labels, by);
    }
    fn set_gauge(&mut self, name: &'static str, labels: &[(&str, &str)], v: i64) {
        (**self).set_gauge(name, labels, v);
    }
    fn merge_buckets(
        &mut self,
        name: &'static str,
        labels: &[(&str, &str)],
        buckets: &[u64],
        sum: u64,
    ) {
        (**self).merge_buckets(name, labels, buckets, sum);
    }
}

impl MetricSink for &MetricsRegistry {
    fn add(&mut self, name: &'static str, labels: &[(&str, &str)], by: u64) {
        MetricsRegistry::add(self, name, labels, by);
    }
    fn set_gauge(&mut self, name: &'static str, labels: &[(&str, &str)], v: i64) {
        MetricsRegistry::set_gauge(self, name, labels, v);
    }
    fn merge_buckets(
        &mut self,
        name: &'static str,
        labels: &[(&str, &str)],
        buckets: &[u64],
        sum: u64,
    ) {
        MetricsRegistry::merge_buckets(self, name, labels, buckets, sum);
    }
}

/// Call `f` with `0..n` in the order of their decimal renderings — the
/// order of label values `"0"`, `"1"`, `"10"`, `"11"`, …, `"2"`. A writer
/// labelling series by index emits them in key order this way.
pub fn in_label_order(n: u64, mut f: impl FnMut(u64)) {
    fn visit(x: u64, n: u64, f: &mut dyn FnMut(u64)) {
        f(x);
        if x == 0 {
            return; // "0" prefixes no other rendering
        }
        for d in 0..10 {
            match x.checked_mul(10).and_then(|y| y.checked_add(d)) {
                Some(y) if y < n => visit(y, n, f),
                _ => return,
            }
        }
    }
    for first in 0..n.min(10) {
        visit(first, n, &mut f);
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, i64>,
    histograms: BTreeMap<MetricKey, Log2Histogram>,
}

/// A shared registry of counters, gauges, and log2 histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `by` to a counter.
    pub fn add(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        let key = MetricKey::new(name.to_owned(), labels);
        *self.inner.lock().expect("metrics lock").counters.entry(key).or_insert(0) += by;
    }

    /// Set a gauge to `v`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], v: i64) {
        let key = MetricKey::new(name.to_owned(), labels);
        self.inner.lock().expect("metrics lock").gauges.insert(key, v);
    }

    /// Record one histogram observation.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        let key = MetricKey::new(name.to_owned(), labels);
        self.inner.lock().expect("metrics lock").histograms.entry(key).or_default().observe(v);
    }

    /// Merge a pre-counted log2 bucket array (e.g. `NetStats`'s 16-bucket
    /// latency table, whose buckets use the same `[2^i, 2^(i+1))` layout).
    pub fn merge_buckets(&self, name: &str, labels: &[(&str, &str)], buckets: &[u64], sum: u64) {
        let key = MetricKey::new(name.to_owned(), labels);
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.histograms.entry(key).or_default().merge_buckets(buckets, sum);
    }

    /// Merge a histogram accumulated elsewhere, exactly
    /// ([`Log2Histogram::merge`]): a caller that observes many values
    /// into a local histogram and publishes it once ends with the series
    /// that observing each value here would have built.
    pub fn merge_histogram(&self, name: &str, labels: &[(&str, &str)], h: &Log2Histogram) {
        let key = MetricKey::new(name.to_owned(), labels);
        self.inner.lock().expect("metrics lock").histograms.entry(key).or_default().merge(h);
    }

    /// A point-in-time copy of every metric, sorted by key.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics lock");
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }
}

/// A point-in-time copy of a registry, attached to run reports and
/// serialized inside recordings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values sorted by key.
    pub gauges: Vec<(MetricKey, i64)>,
    /// Histograms sorted by key.
    pub histograms: Vec<(MetricKey, Log2Histogram)>,
}

/// Written to directly, a snapshot takes each series as it comes; pass
/// it through [`MetricsSnapshot::sorted`] before handing it on.
impl MetricSink for MetricsSnapshot {
    fn add(&mut self, name: &'static str, labels: &[(&str, &str)], by: u64) {
        self.counters.push((MetricKey::new(name, labels), by));
    }
    fn set_gauge(&mut self, name: &'static str, labels: &[(&str, &str)], v: i64) {
        self.gauges.push((MetricKey::new(name, labels), v));
    }
    fn merge_buckets(
        &mut self,
        name: &'static str,
        labels: &[(&str, &str)],
        buckets: &[u64],
        sum: u64,
    ) {
        let mut h = Log2Histogram::default();
        h.merge_buckets(buckets, sum);
        self.histograms.push((MetricKey::new(name, labels), h));
    }
}

/// Sort `series` by key unless it already is, and fold every run of equal
/// keys into its first entry with `fold(kept, later)`.
fn sort_and_fold<V>(series: &mut Vec<(MetricKey, V)>, mut fold: impl FnMut(&mut V, &V)) {
    if !series.is_sorted_by(|a, b| a.0 <= b.0) {
        series.sort_by(|a, b| a.0.cmp(&b.0)); // stable: equal keys keep write order
    }
    series.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            fold(&mut kept.1, &later.1);
        }
        same
    });
}

/// The value under `name` with `labels` (in any order) in a series sorted
/// by key: a binary search over borrowed strings. Labels arrive sorted
/// from every caller in this workspace; others are sorted into a copy.
fn lookup<'s, V>(
    series: &'s [(MetricKey, V)],
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'s V> {
    let find = |labels: &[(&str, &str)]| {
        let at = series.binary_search_by(|(k, _)| k.cmp_borrowed(name, labels)).ok()?;
        Some(&series[at].1)
    };
    if labels.is_sorted() {
        find(labels)
    } else {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        find(&sorted)
    }
}

impl MetricsSnapshot {
    /// An empty snapshot with room for the given numbers of series.
    pub fn with_capacity(counters: usize, gauges: usize, histograms: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Vec::with_capacity(counters),
            gauges: Vec::with_capacity(gauges),
            histograms: Vec::with_capacity(histograms),
        }
    }

    /// The snapshot a [`MetricsRegistry`] would give after the same
    /// writes: every series sorted by key, writes to one key folded — a
    /// counter's added up, a gauge's last one kept, a histogram's merged.
    /// Series written in key order are only checked, not sorted.
    pub fn sorted(mut self) -> MetricsSnapshot {
        sort_and_fold(&mut self.counters, |kept, later| *kept += later);
        sort_and_fold(&mut self.gauges, |kept, later| *kept = *later);
        sort_and_fold(&mut self.histograms, Log2Histogram::merge);
        self
    }

    /// Look up a counter by name + labels (the snapshot is sorted, as
    /// [`MetricsSnapshot::sorted`] and a registry leave it).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        lookup(&self.counters, name, labels).copied()
    }

    /// Look up a gauge by name + labels, as [`MetricsSnapshot::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        lookup(&self.gauges, name, labels).copied()
    }

    /// Look up a histogram by name + labels, as [`MetricsSnapshot::counter`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Log2Histogram> {
        lookup(&self.histograms, name, labels)
    }

    /// Serialize to a JSON value.
    pub fn to_json(&self) -> Json {
        let key_json = |k: &MetricKey| {
            Json::obj(vec![
                ("name", Json::str(&k.name)),
                (
                    "labels",
                    Json::Obj(k.labels.iter().map(|(k, v)| (k.clone(), Json::str(v))).collect()),
                ),
            ])
        };
        Json::obj(vec![
            (
                "counters",
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|(k, v)| {
                            let mut o = key_json(k);
                            if let Json::Obj(map) = &mut o {
                                map.insert("value".to_string(), Json::u64(*v));
                            }
                            o
                        })
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Arr(
                    self.gauges
                        .iter()
                        .map(|(k, v)| {
                            let mut o = key_json(k);
                            if let Json::Obj(map) = &mut o {
                                map.insert("value".to_string(), Json::i64(*v));
                            }
                            o
                        })
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            let mut o = key_json(k);
                            if let Json::Obj(map) = &mut o {
                                map.insert(
                                    "buckets".to_string(),
                                    Json::Arr(h.buckets.iter().map(|&c| Json::u64(c)).collect()),
                                );
                                map.insert("count".to_string(), Json::u64(h.count));
                                map.insert("sum".to_string(), Json::u64(h.sum));
                                map.insert("max".to_string(), Json::u64(h.max));
                            }
                            o
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`MetricsSnapshot::to_json`].
    pub fn from_json(v: &Json) -> Result<MetricsSnapshot, String> {
        let key_of = |o: &Json| -> Result<MetricKey, String> {
            let name =
                o.get("name").and_then(Json::as_str).ok_or("metric missing name")?.to_string();
            let name = Cow::Owned(name);
            let labels = o
                .get("labels")
                .and_then(Json::as_obj)
                .map(|m| {
                    m.iter()
                        .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                        .collect()
                })
                .unwrap_or_default();
            Ok(MetricKey { name, labels })
        };
        let mut snap = MetricsSnapshot::default();
        for c in v.get("counters").and_then(Json::as_arr).unwrap_or(&[]) {
            let value = c.get("value").and_then(Json::as_u64).ok_or("counter value")?;
            snap.counters.push((key_of(c)?, value));
        }
        for g in v.get("gauges").and_then(Json::as_arr).unwrap_or(&[]) {
            let value = g.get("value").and_then(Json::as_i64).ok_or("gauge value")?;
            snap.gauges.push((key_of(g)?, value));
        }
        for h in v.get("histograms").and_then(Json::as_arr).unwrap_or(&[]) {
            let mut hist = Log2Histogram::default();
            let buckets = h.get("buckets").and_then(Json::as_arr).ok_or("histogram buckets")?;
            for (i, b) in buckets.iter().enumerate().take(32) {
                hist.buckets[i] = b.as_u64().ok_or("bucket count")?;
            }
            hist.count = h.get("count").and_then(Json::as_u64).ok_or("histogram count")?;
            hist.sum = h.get("sum").and_then(Json::as_u64).ok_or("histogram sum")?;
            hist.max = h.get("max").and_then(Json::as_u64).ok_or("histogram max")?;
            snap.histograms.push((key_of(h)?, hist));
        }
        Ok(snap)
    }

    /// Multi-line human rendering (used by `wftrace stats`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{:<48} {v}\n", k.render()));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{:<48} {v}\n", k.render()));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{:<48} count={} mean={:.1} p50={} p99={} max={}\n",
                k.render(),
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = MetricsRegistry::new();
        m.add("net.sent", &[("site", "0")], 2);
        m.add("net.sent", &[("site", "0")], 3);
        m.add("net.sent", &[("site", "1")], 7);
        let snap = m.snapshot();
        assert_eq!(snap.counter("net.sent", &[("site", "0")]), Some(5));
        assert_eq!(snap.counter("net.sent", &[("site", "1")]), Some(7));
        assert_eq!(snap.counter("net.sent", &[]), None);
    }

    #[test]
    fn label_order_is_canonical() {
        let m = MetricsRegistry::new();
        m.add("x", &[("b", "2"), ("a", "1")], 1);
        m.add("x", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(m.snapshot().counters.len(), 1);
    }

    #[test]
    fn log2_histogram_buckets_and_quantiles() {
        let mut h = Log2Histogram::default();
        for v in [0, 1, 2, 3, 4, 8, 1000] {
            h.observe(v);
        }
        // 0 and 1 land in bucket 0; 2,3 in bucket 1; 4 in 2; 8 in 3; 1000 in 9.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.count, 7);
        assert_eq!(h.max, 1000);
        assert_eq!(h.quantile(0.5), 2); // 4th of 7 sorted obs sits in bucket 1
        assert_eq!(h.quantile(1.0), 512);
        assert_eq!(Log2Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let m = MetricsRegistry::new();
        m.add("a.count", &[("site", "0"), ("actor", "buy")], 41);
        m.set_gauge("b.level", &[], -3);
        m.observe("c.latency", &[("dep", "d1")], 17);
        m.observe("c.latency", &[("dep", "d1")], 900);
        let snap = m.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    /// The two sinks agree: the same writes, in the same order, through
    /// the registry and straight into a snapshot.
    #[test]
    fn a_sorted_snapshot_is_the_registrys_snapshot() {
        fn write(mut sink: impl MetricSink) {
            sink.add("z.last", &[], 1);
            sink.add("a.count", &[("site", "1"), ("actor", "buy")], 4);
            sink.add("a.count", &[("site", "0")], 2);
            sink.add("a.count", &[("actor", "buy"), ("site", "1")], 3);
            sink.set_gauge("g.level", &[], 5);
            sink.set_gauge("g.level", &[], -2);
            sink.set_gauge("a.gauge", &[("dep", "10")], 1);
            sink.set_gauge("a.gauge", &[("dep", "9")], 0);
            sink.merge_buckets("lat", &[], &[1, 0, 2], 11);
            sink.merge_buckets("lat", &[], &[0, 0, 0, 0, 1], 17);
        }
        let reg = MetricsRegistry::new();
        write(&reg);
        let mut direct = MetricsSnapshot::default();
        write(&mut direct);
        let direct = direct.sorted();
        assert_eq!(direct, reg.snapshot());
        assert_eq!(direct.counter("a.count", &[("site", "1"), ("actor", "buy")]), Some(7));
        assert_eq!(direct.gauge("g.level", &[]), Some(-2));
    }

    #[test]
    fn label_order_is_the_order_of_the_renderings() {
        for n in [0u64, 1, 2, 10, 11, 23, 101, 1000] {
            let mut seen = Vec::new();
            in_label_order(n, |ix| seen.push(ix));
            let mut want: Vec<u64> = (0..n).collect();
            want.sort_by_key(|ix| ix.to_string());
            assert_eq!(seen, want, "n = {n}");
        }
    }

    /// Lookups binary-search the sorted series by borrowed name and
    /// labels, in any label order, and agree with a linear scan for a
    /// built key.
    #[test]
    fn lookups_find_every_series_and_nothing_else() {
        let m = MetricsRegistry::new();
        for site in 0..12u32 {
            let site = site.to_string();
            m.add("net.deliveries", &[("site", &site)], 1 + site.len() as u64);
            m.set_gauge("dep.satisfied", &[("dep", &site), ("z", "1")], -1);
        }
        m.add("net.sent_total", &[], 7);
        m.merge_buckets("net.latency", &[], &[1], 1);
        let snap = m.snapshot();
        for (k, v) in &snap.counters {
            let labels: Vec<(&str, &str)> =
                k.labels.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            assert_eq!(snap.counter(&k.name, &labels), Some(*v), "{k:?}");
        }
        assert_eq!(snap.gauge("dep.satisfied", &[("z", "1"), ("dep", "10")]), Some(-1));
        assert_eq!(snap.gauge("dep.satisfied", &[("dep", "10")]), None);
        assert_eq!(snap.counter("net.sent_total", &[]), Some(7));
        assert_eq!(snap.counter("net.sent_total", &[("site", "0")]), None);
        assert_eq!(snap.counter("net.deliveries", &[("site", "12")]), None);
        assert_eq!(snap.counter("net", &[]), None);
        assert_eq!(snap.counter("net.sent_totals", &[]), None);
        assert_eq!(snap.histogram("net.latency", &[]).map(|h| h.count), Some(1));
        assert_eq!(snap.gauge("net.sent_total", &[]), None);
    }

    /// `merge_histogram` is exact where `merge_buckets` has to round.
    #[test]
    fn merging_a_local_histogram_equals_observing_into_the_registry() {
        let values = [0u64, 1, 5, 5, 900, 70_000];
        let (observed, merged) = (MetricsRegistry::new(), MetricsRegistry::new());
        let mut local = [Log2Histogram::default(), Log2Histogram::default()];
        for (i, &v) in values.iter().enumerate() {
            observed.observe("lat", &[("k", "v")], v);
            local[i % 2].observe(v);
        }
        for h in &local {
            merged.merge_histogram("lat", &[("k", "v")], h);
        }
        assert_eq!(merged.snapshot(), observed.snapshot());
        assert_eq!(merged.snapshot().histogram("lat", &[("k", "v")]).unwrap().max, 70_000);
    }

    #[test]
    fn merge_buckets_matches_direct_observation() {
        let m = MetricsRegistry::new();
        let mut raw = [0u64; 16];
        // Mimic NetStats: latencies 1, 2, 5 → buckets 0, 1, 2.
        raw[0] = 1;
        raw[1] = 1;
        raw[2] = 1;
        m.merge_buckets("lat", &[], &raw, 8);
        let snap = m.snapshot();
        let h = snap.histogram("lat", &[]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 8);
        assert_eq!(h.quantile(0.5), 2);
    }
}
