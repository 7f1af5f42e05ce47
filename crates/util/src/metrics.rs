//! A zero-dependency metrics registry: counters, gauges and fixed-bucket
//! histograms with deterministic JSON export.
//!
//! The simulator and the fill unit record *why* things happened (opt
//! accept/reject reasons, segment-length distributions, window occupancy)
//! into a [`Registry`]. The harness merges registries across runs and the
//! report layer renders them; everything round-trips through
//! [`crate::json::Json`] so campaign rows stay byte-identical across
//! identical runs.
//!
//! Design constraints:
//!
//! * **Determinism** — registries iterate in sorted-name order and
//!   histograms use fixed bucket bounds chosen at the observation site, so
//!   serialization is byte-stable and merging is order-independent.
//! * **Mergeability** — `merge(a, b)` over fixed-bucket histograms yields
//!   exactly the histogram of the concatenated samples, so quantile
//!   estimates computed after a merge equal those computed over the union
//!   (see the `merge_matches_concatenation` test).
//! * **Smallness** — no atomics, no labels, no time series; one process,
//!   one thread of observation per registry.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// The current count.
    #[must_use]
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&mut self, v: f64) {
        self.value = v;
    }

    /// The current value.
    #[must_use]
    #[inline]
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// A fixed-bucket histogram over non-negative integer samples.
///
/// Buckets are defined by strictly increasing inclusive upper `bounds`
/// plus one implicit overflow bucket. Quantiles report the upper bound of
/// the bucket containing the target rank (the overflow bucket reports the
/// last finite bound), which makes them deterministic and stable under
/// [`Histogram::merge`]: merging two histograms with identical bounds is
/// exactly equivalent to observing the concatenated sample stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The configured inclusive upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Estimates the `p`-quantile (`0.0 ..= 1.0`) as the inclusive upper
    /// bound of the bucket containing the target rank.
    ///
    /// Returns 0.0 with no samples; samples in the overflow bucket report
    /// the last finite bound.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        // Target rank in 1..=count (nearest-rank definition).
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return if i < self.bounds.len() {
                    self.bounds[i] as f64
                } else {
                    *self.bounds.last().expect("non-empty bounds") as f64
                };
            }
        }
        *self.bounds.last().expect("non-empty bounds") as f64
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merging is only defined over
    /// histograms built with identical fixed bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Serializes to a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with(
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| Json::UInt(b)).collect()),
            )
            .with(
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::UInt(c)).collect()),
            )
            .with("count", self.count)
            .with("sum", self.sum)
    }

    /// Rebuilds a histogram from [`Histogram::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`MetricsError`] when the shape is not a valid histogram
    /// (missing members, non-numeric entries, count/bounds mismatch).
    pub fn from_json(v: &Json) -> Result<Histogram, MetricsError> {
        let bounds = arr_u64(v, "bounds")?;
        let counts = arr_u64(v, "counts")?;
        if bounds.is_empty() || !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err(MetricsError::new("histogram bounds invalid"));
        }
        if counts.len() != bounds.len() + 1 {
            return Err(MetricsError::new("histogram counts/bounds mismatch"));
        }
        let count = member_u64(v, "count")?;
        let sum = member_u64(v, "sum")?;
        if counts.iter().sum::<u64>() != count {
            return Err(MetricsError::new("histogram count mismatch"));
        }
        Ok(Histogram {
            bounds,
            counts,
            count,
            sum,
        })
    }
}

/// A malformed metrics payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsError {
    /// Human-readable description.
    pub msg: String,
}

impl MetricsError {
    fn new(msg: &str) -> MetricsError {
        MetricsError {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics error: {}", self.msg)
    }
}

impl std::error::Error for MetricsError {}

fn member_u64(v: &Json, key: &str) -> Result<u64, MetricsError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| MetricsError::new(&format!("missing or non-u64 member `{key}`")))
}

fn arr_u64(v: &Json, key: &str) -> Result<Vec<u64>, MetricsError> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| MetricsError::new(&format!("missing array member `{key}`")))?;
    arr.iter()
        .map(|e| {
            e.as_u64()
                .ok_or_else(|| MetricsError::new(&format!("non-u64 entry in `{key}`")))
        })
        .collect()
}

/// A named collection of counters, gauges and histograms.
///
/// Names iterate in sorted order, so [`Registry::to_json`] is
/// deterministic and [`Registry::merge`] is order-independent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `n` to the named counter (creating it at zero). The name is
    /// copied only when the counter is created.
    pub fn add(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => c.add(n),
            None => self.counters.entry(name.to_string()).or_default().add(n),
        }
    }

    /// Adds one to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// The named counter's value (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, Counter::get)
    }

    /// Sets the named gauge (creating it).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.entry(name.to_string()).or_default().set(v);
    }

    /// The named gauge's value, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(Gauge::get)
    }

    /// Records one sample into the named histogram, creating it with
    /// `bounds` on first use (the only time the name is copied).
    ///
    /// # Panics
    ///
    /// Panics if the histogram exists with different bounds.
    pub fn observe(&mut self, name: &str, bounds: &[u64], v: u64) {
        let h = match self.histograms.get_mut(name) {
            Some(h) => h,
            None => self
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::new(bounds)),
        };
        assert_eq!(
            h.bounds(),
            bounds,
            "histogram `{name}` re-registered with different bounds"
        );
        h.observe(v);
    }

    /// The named histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, c)| (k.as_str(), c.get()))
    }

    /// Iterates counters whose name starts with `prefix`, in sorted order.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters()
            .filter(move |(name, _)| name.starts_with(prefix))
    }

    /// Iterates histograms in sorted-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Folds `other` into `self`: counters add, gauges keep `other`'s
    /// value (last write wins), histograms merge bucket-wise.
    ///
    /// # Panics
    ///
    /// Panics if a shared histogram name carries different bounds.
    pub fn merge(&mut self, other: &Registry) {
        for (name, c) in &other.counters {
            self.counters.entry(name.clone()).or_default().add(c.get());
        }
        for (name, g) in &other.gauges {
            self.gauges.entry(name.clone()).or_default().set(g.get());
        }
        for (name, h) in &other.histograms {
            self.merge_histogram(name, h);
        }
    }

    /// Folds `h` into the named histogram, creating it as a copy of `h`
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if the histogram exists with different bounds.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        match self.histograms.get_mut(name) {
            Some(mine) => mine.merge(h),
            None => {
                self.histograms.insert(name.to_string(), h.clone());
            }
        }
    }

    /// Serializes to a JSON object with `counters`, `gauges` and
    /// `histograms` members, each keyed by name in sorted order.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut counters = Json::object();
        for (name, v) in self.counters() {
            counters = counters.with(name, v);
        }
        let mut gauges = Json::object();
        for (name, g) in &self.gauges {
            gauges = gauges.with(name, g.get());
        }
        let mut histograms = Json::object();
        for (name, h) in self.histograms() {
            histograms = histograms.with(name, h.to_json());
        }
        Json::object()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
    }

    /// Rebuilds a registry from [`Registry::to_json`] output. Unknown
    /// members are ignored; missing sections default to empty.
    ///
    /// # Errors
    ///
    /// Returns a [`MetricsError`] when a present section is malformed.
    pub fn from_json(v: &Json) -> Result<Registry, MetricsError> {
        let mut reg = Registry::new();
        if let Some(counters) = v.get("counters") {
            let members = counters
                .as_obj()
                .ok_or_else(|| MetricsError::new("`counters` is not an object"))?;
            for (name, val) in members {
                let n = val
                    .as_u64()
                    .ok_or_else(|| MetricsError::new("non-u64 counter"))?;
                reg.add(name, n);
            }
        }
        if let Some(gauges) = v.get("gauges") {
            let members = gauges
                .as_obj()
                .ok_or_else(|| MetricsError::new("`gauges` is not an object"))?;
            for (name, val) in members {
                let x = val
                    .as_f64()
                    .ok_or_else(|| MetricsError::new("non-numeric gauge"))?;
                reg.set_gauge(name, x);
            }
        }
        if let Some(histograms) = v.get("histograms") {
            let members = histograms
                .as_obj()
                .ok_or_else(|| MetricsError::new("`histograms` is not an object"))?;
            for (name, val) in members {
                reg.histograms
                    .insert(name.clone(), Histogram::from_json(val)?);
            }
        }
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    const BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_observes_into_inclusive_buckets() {
        let mut h = Histogram::new(BOUNDS);
        for v in [0, 1, 2, 3, 8, 200] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 214);
        // 0,1 -> bucket[<=1]; 2 -> [<=2]; 3 -> [<=4]; 8 -> [<=8]; 200 -> overflow.
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 1, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn quantiles_use_bucket_upper_bounds() {
        let mut h = Histogram::new(BOUNDS);
        for _ in 0..90 {
            h.observe(3); // bucket <=4
        }
        for _ in 0..10 {
            h.observe(100); // bucket <=128
        }
        assert_eq!(h.p50(), 4.0);
        assert_eq!(h.p90(), 4.0);
        assert_eq!(h.p99(), 128.0);
        assert_eq!(h.quantile(1.0), 128.0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        // Pins the empty-histogram contract explicitly: every quantile of
        // an empty histogram is 0.0, across the whole [0, 1] range — not
        // NaN, not a bucket bound.
        let h = Histogram::new(BOUNDS);
        assert_eq!(h.count(), 0);
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(p), 0.0, "quantile({p}) of empty histogram");
        }
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p90(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.sum(), 0);
    }

    /// A seeded random histogram over `BOUNDS` with `n` observations.
    fn random_histogram(rng: &mut SplitMix64, n: usize) -> Histogram {
        let mut h = Histogram::new(BOUNDS);
        for _ in 0..n {
            // Spread across buckets and into overflow.
            h.observe(rng.next_u64() % 300);
        }
        h
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mut rng = SplitMix64::new(0xfeed);
        for trial in 0..50 {
            let a = random_histogram(&mut rng, 40);
            let b = random_histogram(&mut rng, 17);
            let c = random_histogram(&mut rng, 63);
            // Commutativity: a+b == b+a.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "trial {trial}: merge not commutative");
            // Associativity: (a+b)+c == a+(b+c).
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc, "trial {trial}: merge not associative");
            // The merge also conserves mass.
            assert_eq!(ab_c.count(), a.count() + b.count() + c.count());
            assert_eq!(ab_c.sum(), a.sum() + b.sum() + c.sum());
        }
    }

    #[test]
    fn quantiles_are_monotone_in_p() {
        let mut rng = SplitMix64::new(0xbead);
        for trial in 0..50 {
            let n = (rng.next_u64() % 100) as usize;
            let h = random_histogram(&mut rng, n);
            let ps = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            for w in ps.windows(2) {
                assert!(
                    h.quantile(w[0]) <= h.quantile(w[1]),
                    "trial {trial}: quantile({}) > quantile({})",
                    w[0],
                    w[1]
                );
            }
            // Merging can only move any quantile outward from the lower
            // histogram's view of it... not a lattice law in general, but
            // quantiles must stay inside the bound range.
            for p in ps {
                let q = h.quantile(p);
                assert!(
                    q == 0.0 || (q >= BOUNDS[0] as f64 && q <= *BOUNDS.last().unwrap() as f64),
                    "trial {trial}: quantile({p}) = {q} outside bounds"
                );
            }
        }
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut rng = SplitMix64::new(0xc0de);
        for trial in 0..50 {
            let n = (rng.next_u64() % 200) as usize;
            let h = random_histogram(&mut rng, n);
            // Through the Json value.
            let back = Histogram::from_json(&h.to_json()).unwrap();
            assert_eq!(h, back, "trial {trial}: value round-trip");
            // Through the serialized text, as stores do.
            let text = h.to_json().dump();
            let reparsed = Histogram::from_json(&crate::Json::parse(&text).unwrap()).unwrap();
            assert_eq!(h, reparsed, "trial {trial}: text round-trip");
            // And the round-tripped histogram keeps merging correctly.
            let mut m = h.clone();
            m.merge(&back);
            assert_eq!(m.count(), 2 * h.count(), "trial {trial}");
        }
    }

    #[test]
    fn overflow_reports_last_finite_bound() {
        let mut h = Histogram::new(&[4, 8]);
        h.observe(1000);
        assert_eq!(h.p50(), 8.0);
    }

    /// Satellite acceptance test: quantiles of `merge(a, b)` equal the
    /// quantiles of one histogram fed the concatenated sample stream.
    #[test]
    fn merge_matches_concatenation() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        let samples_a: Vec<u64> = (0..500).map(|_| rng.next_u64() % 200).collect();
        let samples_b: Vec<u64> = (0..337).map(|_| rng.next_u64() % 50).collect();

        let mut a = Histogram::new(BOUNDS);
        let mut b = Histogram::new(BOUNDS);
        let mut concat = Histogram::new(BOUNDS);
        for &v in &samples_a {
            a.observe(v);
            concat.observe(v);
        }
        for &v in &samples_b {
            b.observe(v);
            concat.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, concat);
        for p in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(p), concat.quantile(p), "p={p}");
        }
        assert_eq!(a.mean(), concat.mean());
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1, 2]);
        let b = Histogram::new(&[1, 3]);
        a.merge(&b);
    }

    #[test]
    fn histogram_json_roundtrip() {
        let mut h = Histogram::new(BOUNDS);
        for v in [0, 5, 9, 1000] {
            h.observe(v);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        // Also through text.
        let text = h.to_json().dump();
        let back2 = Histogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back2, h);
    }

    #[test]
    fn histogram_from_json_rejects_malformed() {
        assert!(Histogram::from_json(&Json::object()).is_err());
        let bad = Json::object()
            .with("bounds", Json::Arr(vec![Json::UInt(1)]))
            .with(
                "counts",
                Json::Arr(vec![Json::UInt(1), Json::UInt(0), Json::UInt(0)]),
            )
            .with("count", 1u64)
            .with("sum", 1u64);
        assert!(Histogram::from_json(&bad).is_err(), "counts len mismatch");
    }

    #[test]
    fn registry_records_and_exports_deterministically() {
        let mut r = Registry::new();
        r.inc("fill.moves.accept");
        r.add("fill.moves.reject.source_not_found", 2);
        r.set_gauge("window.peak", 96.0);
        r.observe("seg.len", BOUNDS, 12);
        r.observe("seg.len", BOUNDS, 3);
        assert_eq!(r.counter("fill.moves.accept"), 1);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("window.peak"), Some(96.0));
        assert_eq!(r.histogram("seg.len").unwrap().count(), 2);
        // Insertion order differs; output order is sorted and stable.
        let mut r2 = Registry::new();
        r2.observe("seg.len", BOUNDS, 3);
        r2.observe("seg.len", BOUNDS, 12);
        r2.set_gauge("window.peak", 96.0);
        r2.add("fill.moves.reject.source_not_found", 2);
        r2.inc("fill.moves.accept");
        assert_eq!(r.to_json().dump(), r2.to_json().dump());
    }

    #[test]
    fn registry_merge_adds_counters_and_merges_histograms() {
        let mut a = Registry::new();
        a.add("x", 3);
        a.observe("h", BOUNDS, 1);
        let mut b = Registry::new();
        b.add("x", 4);
        b.add("y", 1);
        b.observe("h", BOUNDS, 100);
        b.observe("k", BOUNDS, 2);
        a.merge(&b);
        assert_eq!(a.counter("x"), 7);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("k").unwrap().count(), 1);
    }

    #[test]
    fn registry_json_roundtrip() {
        let mut r = Registry::new();
        r.add("a.b", 42);
        r.set_gauge("g", 1.5);
        r.observe("h", BOUNDS, 7);
        let back = Registry::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        // Unknown members ignored, missing sections default empty.
        let sparse = Json::parse(r#"{"counters":{"n":1},"future":true}"#).unwrap();
        let reg = Registry::from_json(&sparse).unwrap();
        assert_eq!(reg.counter("n"), 1);
        assert!(reg.histogram("h").is_none());
        assert_eq!(
            Registry::from_json(&Json::parse("{}").unwrap()).unwrap(),
            Registry::new()
        );
    }

    #[test]
    fn recording_in_place_matches_merging() {
        // Counters and histograms that already exist are updated without
        // re-inserting their names; the result must be the registry a
        // merge of one-shot registries builds.
        let mut rng = SplitMix64::new(0x5eed);
        let names = ["fill.moves.accept", "fill.seg_end.full", "a", "z.z"];
        let mut direct = Registry::new();
        let mut merged = Registry::new();
        for _ in 0..500 {
            let name = names[(rng.next_u64() % 4) as usize];
            let v = rng.next_u64() % 300;
            let mut one = Registry::new();
            match rng.next_u64() % 3 {
                0 => {
                    direct.inc(name);
                    one.inc(name);
                }
                1 => {
                    direct.add(name, v);
                    one.add(name, v);
                }
                _ => {
                    direct.observe(name, BOUNDS, v);
                    one.observe(name, BOUNDS, v);
                }
            }
            merged.merge(&one);
        }
        assert_eq!(direct, merged);
        assert_eq!(direct.to_json().dump(), merged.to_json().dump());
    }

    #[test]
    fn counters_with_prefix_filters() {
        let mut r = Registry::new();
        r.inc("fill.moves.accept");
        r.inc("fill.cse.accept");
        r.inc("seg.count");
        let fill: Vec<&str> = r.counters_with_prefix("fill.").map(|(n, _)| n).collect();
        assert_eq!(fill, vec!["fill.cse.accept", "fill.moves.accept"]);
    }
}
