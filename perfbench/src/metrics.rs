//! Latency samples, the percentile rule, and the result line.

use std::fmt::Write as _;

/// Fewest samples that must lie strictly above a percentile before it
/// is reported. With fewer, the value is one of a handful of extreme
/// samples and moves from run to run for no reason in the program.
pub const MIN_BEYOND: u64 = 10;

/// Calls per block of [`Blocks`]: enough that a block's p999 has 20
/// samples beyond it.
pub const BLOCK: usize = 20_000;

/// The quantiles [`Blocks`] keeps per block.
pub const QUANTILES: [f64; 3] = [0.5, 0.99, 0.999];

/// Latency samples in nanoseconds, kept exactly (not bucketed) so
/// percentiles come from the order statistics themselves.
#[derive(Debug, Default)]
pub struct Samples {
    ns: Vec<u32>,
}

impl Samples {
    /// Records one sample, saturating at `u32::MAX` ns (4.3 s).
    pub fn record(&mut self, ns: u64) {
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    /// Moves every sample of `other` into this set.
    pub fn append(&mut self, mut other: Samples) {
        self.ns.append(&mut other.ns);
    }

    /// Sorts the samples for [`Sorted::percentile`].
    pub fn sorted(mut self) -> Sorted {
        self.ns.sort_unstable();
        Sorted { ns: self.ns }
    }
}

/// Samples in ascending order.
#[derive(Debug)]
pub struct Sorted {
    ns: Vec<u32>,
}

impl Sorted {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The `q` quantile in ns: the mean of the order statistics within
    /// `sqrt(n q (1 - q))` ranks (one binomial standard deviation of
    /// the rank) of the nearest rank. `None` unless at least
    /// [`MIN_BEYOND`] samples lie above the nearest rank.
    ///
    /// The averaging matters where the distribution has a step: the
    /// serve loops run a reclaim pass every 1024 requests, so about
    /// 0.098% of calls wait for one, right at the p999 rank. A single
    /// order statistic there jumps between the two sides of the step
    /// from one block to the next; the local mean moves smoothly.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.ns.len() as u64;
        let rank = nearest_rank(n, q, MIN_BEYOND)?;
        let h = (n as f64 * q * (1.0 - q)).sqrt().ceil() as u64;
        let (lo, hi) = (rank.saturating_sub(h).max(1), (rank + h).min(n));
        let window = &self.ns[lo as usize - 1..hi as usize];
        let sum: u64 = window.iter().map(|&x| u64::from(x)).sum();
        Some(sum as f64 / window.len() as f64)
    }
}

/// Latency percentiles over consecutive blocks of [`BLOCK`] calls in
/// recording order. [`Blocks::flush`] reduces complete blocks to their
/// [`QUANTILES`], so memory stays flat however long a run lasts; a
/// partial last block joins the block before it.
#[derive(Debug, Default)]
pub struct Blocks {
    raw: Samples,
    done: Vec<[Option<f64>; 3]>,
    n: u64,
}

impl Blocks {
    /// Records one sample, as [`Samples::record`].
    pub fn record(&mut self, ns: u64) {
        self.raw.record(ns);
        self.n += 1;
    }

    /// Reduces every complete block but the last (which a partial tail
    /// may still join). Call it outside timed code.
    pub fn flush(&mut self) {
        let full = self.raw.ns.len() / BLOCK;
        if full >= 2 {
            let take = (full - 1) * BLOCK;
            for block in self.raw.ns[..take].chunks_exact(BLOCK) {
                self.done.push(reduce(block.to_vec()));
            }
            self.raw.ns.drain(..take);
        }
    }

    /// Every block's [`QUANTILES`], and the samples recorded.
    pub fn finish(mut self) -> Summary {
        self.flush();
        if !self.raw.ns.is_empty() {
            self.done.push(reduce(std::mem::take(&mut self.raw.ns)));
        }
        Summary {
            blocks: self.done,
            n: self.n,
        }
    }
}

/// Per-block [`QUANTILES`] of a [`Blocks`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Summary {
    /// Each block's quantiles, `None` where the sample rule omits one.
    pub blocks: Vec<[Option<f64>; 3]>,
    /// Samples behind all blocks.
    pub n: u64,
}

impl Summary {
    /// The median over blocks of `QUANTILES[qi]`, if every block has it.
    pub fn median(&self, qi: usize) -> Option<f64> {
        let per_block: Option<Vec<f64>> = self.blocks.iter().map(|b| b[qi]).collect();
        per_block.filter(|v| !v.is_empty()).map(|v| median(&v))
    }
}

fn reduce(block: Vec<u32>) -> [Option<f64>; 3] {
    let sorted = Samples { ns: block }.sorted();
    QUANTILES.map(|q| sorted.percentile(q))
}

/// The 1-based nearest rank of quantile `q` among `n` ordered samples,
/// if at least `min_beyond` samples rank above it.
pub fn nearest_rank(n: u64, q: f64, min_beyond: u64) -> Option<u64> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    (n - rank >= min_beyond).then_some(rank)
}

/// The `q` quantile of a scraped log-bucketed histogram, under the
/// same rule as [`Sorted::percentile`].
pub fn hist_percentile(h: &ssync_core::stats::HistogramSnapshot, q: f64) -> Option<u64> {
    nearest_rank(h.count(), q, MIN_BEYOND)?;
    h.quantile(q)
}

/// True if `name` may name a metric: letters, digits, `_`, `.`, `-`,
/// starting with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value with its unit, plus the sample count behind it
/// when it is a percentile.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `us` or `count`.
    pub unit: &'static str,
    /// Samples the value was computed from, for percentiles.
    pub samples: Option<u64>,
}

/// An ordered set of metrics, written as the result line.
#[derive(Debug, Default)]
pub struct MetricSet {
    items: Vec<Metric>,
}

impl MetricSet {
    /// Adds a plain value.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, None);
    }

    /// Adds a percentile of `sorted` (in ns) scaled by `div` into
    /// `unit`; omitted, with a note on stderr, when too few samples lie
    /// beyond it.
    pub fn put_pct(&mut self, name: &str, sorted: &Sorted, q: f64, div: f64, unit: &'static str) {
        match sorted.percentile(q) {
            Some(ns) => self.push(name.into(), ns / div, unit, Some(sorted.len() as u64)),
            None => omitted(name, sorted.len() as u64),
        }
    }

    /// Adds [`Summary::median`] of `QUANTILES[qi]` (in ns, scaled by
    /// `div` into `unit`). Every block must carry the percentile under
    /// the sample rule, or the metric is omitted.
    pub fn put_median_pct(
        &mut self,
        name: &str,
        s: &Summary,
        qi: usize,
        div: f64,
        unit: &'static str,
    ) {
        match s.median(qi) {
            Some(ns) => self.push(name.into(), ns / div, unit, Some(s.n)),
            None => omitted(name, s.n),
        }
    }

    /// Adds a percentile of a scraped histogram (ns), as
    /// [`MetricSet::put_pct`].
    pub fn put_hist_pct(&mut self, name: &str, h: &ssync_core::stats::HistogramSnapshot, q: f64) {
        match hist_percentile(h, q) {
            Some(ns) => self.push(name.into(), ns as f64, "ns", Some(h.count())),
            None => omitted(name, h.count()),
        }
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, samples: Option<u64>) {
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(
            !self.items.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.items.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: MetricSet) {
        for m in other.items {
            self.push(m.name, m.value, m.unit, m.samples);
        }
    }

    /// One human-readable line per metric: name, value, unit, and the
    /// sample count behind a percentile.
    pub fn print_table(&self) {
        for m in &self.items {
            match m.samples {
                Some(n) => println!("  {:<36} {:>14.4} {:<6} (n={n})", m.name, m.value, m.unit),
                None => println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit),
            }
        }
    }

    /// The result line, `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`,
    /// with every metric but those named in `leave_out`.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        leave_out: &[&str],
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let kept = self
            .items
            .iter()
            .filter(|m| !leave_out.contains(&m.name.as_str()));
        for (i, m) in kept.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

fn omitted(name: &str, n: u64) {
    eprintln!("perfbench: {name} omitted: fewer than {MIN_BEYOND} of {n} samples lie beyond it");
}

/// The median of `values` (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A finite f64 as JSON (non-finite values have no JSON form and mark
/// a broken measurement, so they become `null`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(v: impl IntoIterator<Item = u64>) -> Sorted {
        let mut s = Samples::default();
        for x in v {
            s.record(x);
        }
        s.sorted()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1..=1000: p99 is rank 990, with exactly 10 samples above it.
        let s = sorted(1..=1000);
        assert_eq!(s.percentile(0.99), Some(990.0));
        assert_eq!(s.percentile(0.5), Some(500.0));
        // p999 is rank 999, with only one sample above it: omitted.
        assert_eq!(s.percentile(0.999), None);
        // 999 samples: p99 is rank 990 (ceil of 989.01), 9 beyond.
        let s = sorted(1..=999);
        assert_eq!(s.percentile(0.99), None);
        // 10 000 samples carry a p999 with exactly 10 beyond.
        let s = sorted(1..=10_000);
        assert_eq!(s.percentile(0.999), Some(9990.0));
        assert_eq!(sorted([]).percentile(0.5), None);
    }

    #[test]
    fn blocks_reduce_in_recording_order() {
        let mut b = Blocks::default();
        // Two full blocks, descending, then a 5-sample tail.
        for x in (0..2 * BLOCK as u64 + 5).rev() {
            b.record(x);
            b.flush();
        }
        let summary = b.finish();
        let (blocks, n) = (summary.blocks.clone(), summary.n);
        assert_eq!(n, 2 * BLOCK as u64 + 5);
        assert_eq!(blocks.len(), 2, "the tail joins the last full block");
        // Block 0 is the first BLOCK samples recorded: the largest.
        let b0 = BLOCK as u64 + 5;
        assert_eq!(blocks[0][0], Some((b0 + BLOCK as u64 / 2 - 1) as f64));
        assert_eq!(blocks[1][0], Some(((BLOCK as u64 + 5) / 2) as f64));
        let mut m = MetricSet::default();
        m.put_median_pct("p50", &summary, 0, 1.0, "ns");
        let got: Vec<_> = m.iter().map(|x| (x.value, x.samples)).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, Some(n));
    }

    #[test]
    fn median_over_blocks_and_the_sample_rule() {
        let blocks = vec![
            [Some(100.0), Some(9.0), None],
            [Some(300.0), Some(7.0), None],
            [Some(200.0), Some(8.0), None],
        ];
        let mut m = MetricSet::default();
        let summary = Summary { blocks, n: 60_000 };
        m.put_median_pct("p50", &summary, 0, 1.0, "ns");
        m.put_median_pct("p99", &summary, 1, 1.0, "ns");
        // A block without a p999 under the sample rule omits the metric.
        m.put_median_pct("p999", &summary, 2, 1.0, "ns");
        let got: Vec<_> = m.iter().map(|x| (x.name.as_str(), x.value)).collect();
        assert_eq!(got, vec![("p50", 200.0), ("p99", 8.0)]);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let mut few = Blocks::default();
        few.record(7);
        assert_eq!(
            few.finish(),
            Summary {
                blocks: vec![[None, None, None]],
                n: 1
            }
        );
    }

    #[test]
    fn percentiles_average_across_a_step() {
        // 20 000 samples: 19 980 at 10 and 20 at 1000, so the p999
        // nearest rank (19 980) sits on the last sample below the step.
        let mut s = Samples::default();
        for i in 0..20_000u64 {
            s.record(if i < 19_980 { 10 } else { 1000 });
        }
        let s = s.sorted();
        // Ranks 19 975..=19 985: six below the step, five above it.
        assert_eq!(
            s.percentile(0.999),
            Some((6.0 * 10.0 + 5.0 * 1000.0) / 11.0)
        );
        assert_eq!(s.percentile(0.5), Some(10.0));
    }

    #[test]
    fn nearest_rank_rule() {
        assert_eq!(nearest_rank(20, 0.5, 10), Some(10));
        assert_eq!(nearest_rank(19, 0.5, 10), None);
        assert_eq!(nearest_rank(1, 0.0, 0), Some(1));
        assert_eq!(nearest_rank(5, 1.5, 0), None);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "ops_s",
            "srv.wire.req_codec_p50_ns",
            "core.epoch.pin_p50_ns",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "a\"b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_refused() {
        MetricSet::default().put("bad name", 1.0, "count");
    }

    #[test]
    fn result_line_shape() {
        let mut m = MetricSet::default();
        m.put("ops_s", 1234.5, "1/s");
        m.put_pct("get_p50_us", &sorted(1..=100), 0.5, 1000.0, "us");
        m.put_pct("get_p999_us", &sorted(1..=100), 0.999, 1000.0, "us");
        m.put("failed_frac", 0.0, "ratio");
        let line = m.result_line(true, 7, 0, &["failed_frac"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"ops_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"get_p50_us\": {\"value\": 0.05, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
